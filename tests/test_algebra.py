"""Coefficient algebras, graded components, tensor products over the
coefficients, dataset validation and serialization."""
import ast
import hashlib
import json
import re

import pytest

from koszulab.cli import fingerprint
from koszulab.padic import BaseRing, PAdicMatrix
from koszulab.algebra import (Bimodule, CoefficientAlgebra, Dataset,
                              DatasetError, GradedAugmentedAlgebra,
                              LeftModule, NonFreeQuotientError,
                              builtin_height1, canonical_json,
                              dataset_from_json, dataset_to_json,
                              iterated_tensor, load_dataset, save_dataset,
                              tensor_over_coeff, trivial_module,
                              validate_algebra, validate_module)
from koszulab.synthetic import synthetic_height1_dataset

from test_golden import sym2_dataset


def dual_numbers(p=2, N=2):
    """E0 = (Z/p^N)[eps]/eps^2, basis (1, eps)."""
    ring = BaseRing(p, N)
    mult = (
        ((1, 0), (0, 1)),   # 1*1 = 1, 1*eps = eps
        ((0, 1), (0, 0)),   # eps*1 = eps, eps*eps = 0
    )
    return CoefficientAlgebra(ring, 2, mult, (1, 0), ((0, 1),))


def test_coefficient_algebra_multiply():
    c = dual_numbers()
    assert c.multiply((1, 0), (0, 1)) == (0, 1)
    assert c.multiply((0, 1), (0, 1)) == (0, 0)
    assert c.multiply((1, 1), (1, 1)) == (1, 2)


def test_builtin_dataset_validates():
    for p in (2, 3, 5):
        for N in (1, 2, 3):
            ds = builtin_height1(p, N, 4)
            rep = ds.validate()
            assert rep.passed, str(rep)


def test_validation_catches_broken_associativity():
    ds = builtin_height1(3, 2, 4)
    A = ds.algebra
    bad_mult = dict(A.mult)
    bad_mult[(1, 2)] = PAdicMatrix(ds.ring, [[2]], 1, 1)
    bad = GradedAugmentedAlgebra(A.coeff, A.q_label, A.max_weight,
                                 A.components, bad_mult)
    rep = validate_algebra(bad)
    assert not rep.passed
    assert any("assoc" in c for c, _ in rep.failures), str(rep)


def test_validation_catches_broken_module_action():
    ds = builtin_height1(3, 2, 4)
    sphere = ds.module("sphere")
    bad_action = dict(sphere.action)
    bad_action[2] = PAdicMatrix(ds.ring, [[5]], 1, 1)
    bad = LeftModule("bad", sphere.coeff, 1, bad_action)
    rep = validate_module(ds.algebra, bad)
    assert not rep.passed
    # every failure names a concrete witness
    assert all(w for _, w in rep.failures)


def test_tensor_rank_one_fast_path():
    ds = builtin_height1(3, 2, 4)
    b = ds.algebra.component(1)
    t = tensor_over_coeff(b, b)
    assert t.bimodule.rank == 1
    assert t.proj @ t.sect == PAdicMatrix.identity(ds.ring, 1)


def test_tensor_over_rank_two_coefficients():
    c = dual_numbers()
    M = c.as_bimodule()
    t = tensor_over_coeff(M, M)
    # E0 (x)_{E0} E0 is free of rank 1 over E0, so base rank 2
    assert t.bimodule.rank == 2
    assert t.proj @ t.sect == PAdicMatrix.identity(c.ring, 2)
    # projection is E0-balanced: (x * eps) (x) y == x (x) (eps * y)
    eps_right = M.right[1].kron(PAdicMatrix.identity(c.ring, 2))
    eps_left = PAdicMatrix.identity(c.ring, 2).kron(M.left[1])
    assert t.proj @ eps_right == t.proj @ eps_left


def test_tensor_detects_torsion_quotient():
    c = dual_numbers()  # p = 2, N = 2
    ring = c.ring
    one = PAdicMatrix(ring, [[1]], 1, 1)
    zero = PAdicMatrix(ring, [[0]], 1, 1)
    two = PAdicMatrix(ring, [[2]], 1, 1)
    M = Bimodule(ring, c, 1, (one, zero), (one, zero))
    N = Bimodule(ring, c, 1, (one, two), (one, two))
    with pytest.raises(NonFreeQuotientError):
        tensor_over_coeff(M, N)


def test_iterated_tensor_composition_maps():
    c = dual_numbers()
    M = c.as_bimodule()
    t = iterated_tensor([M, M, M])
    assert t.bimodule.rank == 2
    assert t.factor_ranks == (2, 2, 2)
    n = t.proj_full.cols
    assert n == 8
    assert t.proj_full @ t.sect_full == PAdicMatrix.identity(c.ring, 2)


def test_trivial_module_has_zero_positive_weight_action():
    ds = builtin_height1(2, 2, 3)
    triv = ds.module("triv")
    assert triv.action == {}
    m = triv.weight_action(2, ds.algebra.rank(2))
    assert m.is_zero()


def test_module_lookup_error():
    ds = builtin_height1(2, 2, 3)
    with pytest.raises(DatasetError) as exc:
        ds.module("nonexistent")
    assert "sphere" in str(exc.value)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_json_roundtrip_preserves_fingerprint(tmp_path):
    ds = builtin_height1(3, 2, 4)
    path = tmp_path / "ds.json"
    save_dataset(ds, path)
    ds2 = load_dataset(path)
    assert canonical_json(ds2) == canonical_json(ds)
    assert ds2.p == 3 and ds2.N == 2
    assert set(ds2.modules) == {"triv", "sphere"}
    assert ds2.subgroup_package is not None


DATASETS = {
    "builtin_p3_N2_k4": lambda: builtin_height1(3, 2, 4),
    "synthetic_p5_N2_k4_s1": lambda: synthetic_height1_dataset(5, 2, 4, 1),
    "sym2_p3_N2_k5": sym2_dataset,
}


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_saved_file_is_the_fingerprinted_canonical_json(name, tmp_path):
    """A saved file is the canonical JSON and a newline, so its SHA-256
    without the newline is the dataset fingerprint."""
    ds = DATASETS[name]()
    path = tmp_path / "ds.json"
    save_dataset(ds, path)
    text = path.read_text(encoding="utf-8")
    assert text == canonical_json(ds) + "\n"
    assert hashlib.sha256(text[:-1].encode("utf-8")).hexdigest() == \
        fingerprint(ds)


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_indented_file_loads_as_the_canonical_one(name, tmp_path):
    """A file in the indented layout earlier versions wrote loads to the
    same dataset, with the same fingerprint, as the canonical file."""
    ds = DATASETS[name]()
    old, new = tmp_path / "indented.json", tmp_path / "canonical.json"
    with open(old, "w", encoding="utf-8") as fh:
        json.dump(dataset_to_json(ds), fh, indent=1, sort_keys=True)
        fh.write("\n")
    save_dataset(ds, new)
    assert old.read_text() != new.read_text()
    from_old, from_new = load_dataset(old), load_dataset(new)
    assert from_old == from_new
    assert fingerprint(from_old) == fingerprint(from_new) == fingerprint(ds)


def test_canonical_json_is_deterministic():
    a = canonical_json(builtin_height1(2, 3, 4))
    b = canonical_json(builtin_height1(2, 3, 4))
    assert a == b


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json\n  at all}")
    with pytest.raises(DatasetError) as exc:
        load_dataset(path)
    assert "line" in str(exc.value)


def walk(doc, path):
    """The value a load error's JSON path names in ``doc``: ``.name`` reads a
    key, ``[i]`` a list index, ``[k=1]`` or ``[k1=1,k2=1]`` the list entry
    with those fields and ``['sphere']`` the entry of that name."""
    node = doc
    for key, index, match in re.findall(r"\.?(\w+)|\[(\d+)\]|\[([^]]+)\]", path):
        if key:
            node = node[key]
        elif index:
            node = node[int(index)]
        elif match.startswith("'"):
            [node] = [e for e in node if e["name"] == ast.literal_eval(match)]
        else:
            want = {f: int(v) for f, v in (kv.split("=") for kv in match.split(","))}
            [node] = [e for e in node if all(e[f] == v for f, v in want.items())]
    return node


SPHERE = ("modules", 1, "action", 0)       # modules[1] is "sphere"
ORDER = ("subgroup_package", "orders", 0)


@pytest.mark.parametrize("site", [
    ("coefficient_algebra", "mult_constants", 0, 0, 0),
    ("coefficient_algebra", "unit", 0),
    ("coefficient_algebra", "maximal_ideal", 0, 0),
    ("algebra", "components", 1, "left_action", 0, 0, 0),
    ("algebra", "components", 1, "right_action", 0, 0, 0),
    ("algebra", "mult", 0, "matrix", 0, 0),
    SPHERE + ("matrix", 0, 0),
    SPHERE + ("k",),
    ORDER + ("algebra", "mult_constants", 0, 0, 0),
    ORDER + ("algebra", "unit", 0),
    ORDER + ("algebra", "left_action", 0, 0, 0),
    ORDER + ("algebra", "right_action", 0, 0, 0),
    ORDER + ("t", 0, 0),
    ("subgroup_package", "u1", 0, "matrix", 0, 0),
    ("subgroup_package", "shift", 0, "matrix", 0, 0),
    ("subgroup_package", "pairing", 1, "matrix", 0, 0),
], ids=lambda site: ".".join(map(str, site)))
def test_non_integer_leaf_error_names_its_json_path(site):
    """A float at any matrix entry, structure constant or keyed entry's
    ``k`` fails the load, and the path the error names, read as keys (and
    as the field it names), reaches that very leaf."""
    doc = dataset_to_json(builtin_height1(3, 2, 3))
    *outer, last = site
    parent = doc
    for key in outer:
        parent = parent[key]
    leaf = parent[last] = 1.5
    with pytest.raises(DatasetError) as exc:
        dataset_from_json(doc)
    path, rest = str(exc.value).split(": ", 1)
    node = walk(doc, path)
    if rest.startswith("field "):
        node = node[ast.literal_eval(rest.split(":")[0][len("field "):])]
    assert node is leaf, str(exc.value)


def test_missing_field_is_reported_with_path():
    doc = dataset_to_json(builtin_height1(2, 2, 3))
    del doc["coefficient_algebra"]["unit"]
    with pytest.raises(DatasetError) as exc:
        dataset_from_json(doc)
    assert "coefficient_algebra" in str(exc.value)
    assert "unit" in str(exc.value)


def test_unknown_format_rejected():
    doc = dataset_to_json(builtin_height1(2, 2, 3))
    doc["format"] = "koszulab-0"
    with pytest.raises(DatasetError) as exc:
        dataset_from_json(doc)
    assert "format" in str(exc.value)


def test_wrong_matrix_shape_reported_with_location():
    doc = dataset_to_json(builtin_height1(2, 2, 3))
    doc["algebra"]["mult"][0]["matrix"] = [[1, 2]]
    with pytest.raises(DatasetError) as exc:
        dataset_from_json(doc)
    assert "mult" in str(exc.value)


def test_mult_table_completeness_enforced():
    doc = dataset_to_json(builtin_height1(2, 2, 3))
    doc["algebra"]["mult"] = doc["algebra"]["mult"][1:]
    with pytest.raises(DatasetError):
        dataset_from_json(doc)


def test_module_weight_out_of_range():
    doc = dataset_to_json(builtin_height1(2, 2, 3))
    doc["modules"][0]["action"] = [{"k": 99, "matrix": [[1]]}]
    with pytest.raises(DatasetError) as exc:
        dataset_from_json(doc)
    assert "99" in str(exc.value)


def test_invalid_dataset_fails_validation_on_load():
    doc = dataset_to_json(builtin_height1(3, 2, 4))
    for ent in doc["algebra"]["mult"]:
        if (ent["k"], ent["l"]) == (1, 2):
            ent["matrix"] = [[2]]
    with pytest.raises(DatasetError) as exc:
        dataset_from_json(doc)
    assert "FAIL" in str(exc.value)
    # but loading without validation succeeds
    ds = dataset_from_json(doc, validate=False)
    assert not ds.validate().passed
