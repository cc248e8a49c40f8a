"""The d o d certificate.  On a dataset that passed validation, the bar,
module-bar and subgroup builders mark their complexes checked from the
identities the validation checked, and the partition builder always marks
its complex, by the simplicial identities: none of them forms a product.
On anything else (a KoszulData never told the verdict, or a subgroup
complex over a coefficient algebra of rank > 1) the builders leave their
complexes unmarked, and homology checks d o d with products when it reads
them, so a broken structure map surfaces there as a ComplexError.
An oracle sweep runs verify_complex on an unmarked copy of every complex
the builders mark."""
import pytest

from koszulab import complexes
from koszulab.algebra import builtin_height1, dataset_from_json, dataset_to_json
from koszulab.bar import KoszulData, bar_complex_with_module, verify_koszulness
from koszulab.complexes import ComplexError, homology, make_complex, verify_complex
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
    products, and over a coefficient algebra of rank 1 composition_complex
    forms no product at all.  Every complex comes out marked but the
    subgroup complexes over the dual numbers: validation checks u1
    coassociativity only in the quotient and not that u1 is E0-linear, so
    those are left for homology to check, one verify_complex each."""
    ds = FACTORIES[name]()
    assert ds.validate().passed
    calls = record_calls(monkeypatch)
    made = built(ds, KoszulData(ds.algebra, True), True)
    rank_1 = ds.algebra.coeff.rank == 1
    assert [C.checked for _, C in made] == \
        [rank_1 or builder != "subgroup" for builder, _ in made]
    assert not [c for c in calls if c[0] == "complexes.verify_complex"]
    if rank_1:
        assert not [c for c in calls if c[0] in PRODUCTS
                    and "bar.composition_complex" in c[2]]
    calls.clear()
    for _, C in made:
        complexes.homology(C)      # the wrapped homology
    checks = [args[0] for name_, args, stack in calls
              if name_ == "complexes.verify_complex"
              and stack[-1:] == ("complexes.homology",)]
    assert [id(C) for C in checks] == \
        [id(C) for builder, C in made if not rank_1 and builder == "subgroup"]
    assert all(C.checked for _, C in made)


@pytest.mark.parametrize("told", [False, None], ids=["told-false", "never-told"])
@pytest.mark.parametrize("name", FACTORIES)
def test_unvalidated_builders_leave_the_check_to_homology(name, told, monkeypatch):
    """Told that validation failed, or never told, every composition
    complex comes out unmarked, with no d o d product formed while it is
    built.  homology then checks each by verify_complex, with one product
    per consecutive pair of differentials, and the passing check marks it."""
    ds = FACTORIES[name]()
    A = ds.algebra
    verdict = () if told is None else (told,)
    data = KoszulData(A, *verdict)
    calls = record_calls(monkeypatch)
    made = built(ds, data, *verdict)
    assert not any(C.checked for _, C in made)
    assert len([c for c in calls if c[0] == "bar.composition_complex"]) == len(made)
    assert not [c for c in calls if c[0] == "complexes.verify_complex"]
    calls.clear()
    for _, C in made:
        complexes.homology(C)      # the wrapped homology
    assert all(C.checked for _, C in made)
    checks = [args[0] for name_, args, stack in calls
              if name_ == "complexes.verify_complex"
              and stack[-1:] == ("complexes.homology",)]
    assert [id(C) for C in checks] == [id(C) for _, C in made]
    pairs = [c for c in calls if c[0] == "padic.PAdicMatrix.__matmul__"
             and c[2][-1:] == ("complexes.verify_complex",)]
    assert len(pairs) == sum(max(len(C.differentials) - 1, 0) for C in checks)


def test_broken_mult_surfaces_as_a_complex_error_from_homology():
    """A weight-(1,2) product of 2 breaks mult associativity.  A KoszulData
    never told the verdict leaves the weight-3 bar complex unmarked, and
    homology names its first failing degree, as does verify_koszulness,
    which reads it; the lower weights stay complexes."""
    doc = dataset_to_json(builtin_height1(3, 2, 4))
    for ent in doc["algebra"]["mult"]:
        if (ent["k"], ent["l"]) == (1, 2):
            ent["matrix"] = [[2]]
    ds = dataset_from_json(doc, validate=False)
    assert any(c == "mult associativity" for c, _ in ds.validate().failures)
    data = KoszulData(ds.algebra)
    for k in range(3):
        homology(data.bar(k).complex)
    assert not data.bar(3).complex.checked
    with pytest.raises(ComplexError, match="not a complex: d o d != 0 at degree 1"):
        homology(data.bar(3).complex)
    with pytest.raises(ComplexError, match="not a complex: d o d != 0 at degree 1"):
        verify_koszulness(data)


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
    verify_complex as an unmarked copy, and so does each it leaves
    unmarked (the subgroup complexes over a coefficient algebra of rank > 1)."""
    ds = SWEEP[name]()
    assert ds.validate().passed
    made = built(ds, KoszulData(ds.algebra, True), True)
    assert made and any(C.checked for _, C in made)
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
