"""The d o d certificate.  On a dataset that passed validation, the bar,
module-bar and subgroup builders mark their complexes checked from the
identities the validation checked, and the partition builder always marks
its complex, by the simplicial identities: none of them forms a product.
On anything else (a failed validation, or a KoszulData never told the
verdict) the builders check d o d with products and keep every witness.
An oracle sweep runs verify_complex on an unmarked copy of every complex
the builders mark."""
import json

import pytest

from koszulab.algebra import builtin_height1, dataset_to_json
from koszulab.bar import KoszulData, bar_complex_with_module
from koszulab.cli import EXIT_MATH, run
from koszulab.complexes import make_complex, verify_complex
from koszulab.isogeny import build_mic
from koszulab.padic import BaseRing
from koszulab.partition import partition_complex
from koszulab.synthetic import synthetic_height1_dataset

from test_assemble import dual_number_dataset
from test_call_counts import record_calls
from test_golden import sym2_dataset

PRODUCTS = ("padic.PAdicMatrix.__matmul__", "padic.PAdicMatrix.kron_apply")
FACTORIES = {"builtin_p3_N2_k5": lambda: builtin_height1(3, 2, 5),
             "sym2_k4": lambda: sym2_dataset(4),
             "dual_numbers": dual_number_dataset}


def built(ds, data, *verdict):
    """(builder, complex) for every complex the three composition builders
    make on ``ds``: the bar complex of every weight, each module's bar
    complex and the subgroup complex of every order, which gets
    ``verdict`` (none, as a caller that never validated gives it)."""
    A, pkg = ds.algebra, ds.subgroup_package
    out = [("bar", data.bar(k).complex) for k in range(A.max_weight + 1)]
    out += [("module bar", bar_complex_with_module(data, M, A.max_weight).complex)
            for M in ds.modules.values()]
    out += [("subgroup", build_mic(pkg, k, *verdict).complex)
            for k in range(pkg.max_order + 1)]
    return out


def unmarked(C):
    """A copy of ``C`` that is not marked checked."""
    return make_complex(C.ring, C.orientation, C.min_degree, C.ranks,
                        C.differentials)


@pytest.mark.parametrize("name", FACTORIES)
def test_validated_builders_mark_checked_with_no_product(name, monkeypatch):
    """With the verdict, no complex of the three builders is checked with
    products, and each comes out marked.  Over a coefficient algebra of
    rank 1 composition_complex then forms no product at all.  Over the
    dual numbers the subgroup complexes keep their check, one per order:
    validation checks u1 coassociativity only in the quotient and not that
    u1 is E0-linear."""
    ds = FACTORIES[name]()
    assert ds.validate().passed
    calls = record_calls(monkeypatch)
    made = built(ds, KoszulData(ds.algebra, True), True)
    assert all(C.checked for _, C in made)
    checks = [id(args[0]) for name_, args, _ in calls
              if name_ == "complexes.verify_complex"]
    if ds.algebra.coeff.rank == 1:
        assert checks == []
        assert not [c for c in calls if c[0] in PRODUCTS
                    and "bar.composition_complex" in c[2]]
    else:
        assert checks == [id(C) for builder, C in made if builder == "subgroup"]


@pytest.mark.parametrize("told", [False, None], ids=["told-false", "never-told"])
@pytest.mark.parametrize("name", FACTORIES)
def test_unvalidated_builders_check_with_products(name, told, monkeypatch):
    """Told that validation failed, or never told, every composition
    complex is checked by verify_complex inside composition_complex, with
    one product per consecutive pair of differentials, and the passing
    check marks it."""
    ds = FACTORIES[name]()
    A = ds.algebra
    verdict = () if told is None else (told,)
    data = KoszulData(A, *verdict)
    calls = record_calls(monkeypatch)
    made = built(ds, data, *verdict)
    assert all(C.checked for _, C in made)
    built_ = [c for c in calls if c[0] == "bar.composition_complex"]
    checks = [args[0] for name_, args, stack in calls
              if name_ == "complexes.verify_complex"
              and stack[-1:] == ("bar.composition_complex",)]
    assert len(checks) == len(built_) == len(made)
    assert [id(C) for C in checks] == [id(C) for _, C in made]
    pairs = [c for c in calls if c[0] == "padic.PAdicMatrix.__matmul__"
             and c[2][-1:] == ("complexes.verify_complex",)]
    assert len(pairs) == sum(max(len(C.differentials) - 1, 0) for C in checks)


def broken(edit):
    """The built-in p=3 N=2 kmax 4 JSON with ``edit`` applied to it."""
    doc = dataset_to_json(builtin_height1(3, 2, 4))
    edit(doc)
    return doc


def set_matrix(entries, keys, matrix):
    for ent in entries:
        if tuple(ent[k] for k in keys[0]) == keys[1]:
            ent["matrix"] = matrix


@pytest.mark.parametrize("edit, argv, validation, witness", [
    pytest.param(lambda doc: set_matrix(doc["algebra"]["mult"], (("k", "l"), (1, 2)),
                                        [[2]]),
                 ["verify", "--suite", "koszul"], "mult associativity",
                 "bar differential fails d o d = 0 at degree 1 (invalid dataset)",
                 id="mult-associativity"),
    pytest.param(lambda doc: set_matrix(doc["subgroup_package"]["u1"],
                                        (("k1", "k2"), (1, 2)), [[2]]),
                 ["mic", "--k", "3"], "u1 coassociativity",
                 "refinement maps fail d o d = 0 between degrees 1 and 3; "
                 "source compositions [(3,)] (coassociativity violation in "
                 "the package)", id="u1-coassociativity"),
])
def test_failed_validation_keeps_the_product_check_and_its_witness(
        tmp_path, edit, argv, validation, witness):
    """Through the CLI, a dataset that fails validation is built with the
    product check, and the check's witness ends the command (exit 3)."""
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken(edit)))
    report, code = run([argv[0], str(path), *argv[1:], "--json"])
    assert code == EXIT_MATH
    checks = {c.name: c for c in report.checks}
    assert checks["dataset-validation"].status == "fail"
    assert any(w.startswith(validation)
               for w in checks["dataset-validation"].payload["witnesses"])
    assert checks["computation"].payload == {"witness": witness}


SWEEP = {f"builtin_p{p}_N{N}_k6": (lambda p=p, N=N: builtin_height1(p, N, 6))
         for p in (2, 3, 5) for N in (1, 2, 3)}
SWEEP.update({f"synthetic_p{p}_N{N}_k5_s{s}":
              (lambda p=p, N=N, s=s: synthetic_height1_dataset(p, N, 5, s))
              for p, N in ((2, 3), (3, 2), (3, 3), (5, 2)) for s in range(5)})
SWEEP.update({f"sym2_k{k}": (lambda k=k: sym2_dataset(k)) for k in (2, 3, 4, 5)})
SWEEP["dual_numbers"] = dual_number_dataset


@pytest.mark.parametrize("name", SWEEP)
def test_every_marked_composition_complex_passes_the_product_check(name):
    """The oracle: each complex a builder marks from the identities passes
    verify_complex as an unmarked copy."""
    ds = SWEEP[name]()
    assert ds.validate().passed
    made = built(ds, KoszulData(ds.algebra, True), True)
    assert made and all(C.checked for _, C in made)
    for builder, C in made:
        assert verify_complex(unmarked(C)) == (True, None), (builder, C.ranks)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_every_partition_complex_passes_the_product_check(n):
    """The partition builder marks its complex; an unmarked copy passes
    verify_complex over Z/4 and Z/9."""
    for p in (2, 3):
        C = partition_complex(n, BaseRing(p, 2)).complex
        assert C.checked
        assert verify_complex(unmarked(C)) == (True, None)
