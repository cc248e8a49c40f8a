"""Call counts of single CLI runs: `verify --suite all` builds every bar
complex and every Koszul complex once, homology does not check d o d again
on a complex its builder marked, on validated data only the Koszul
complexes are checked with products, tensor quotients are built once per
composition, pairings are inverted once per run, their Kronecker products
formed once per composition, and the duality solves no system, assembly
forms no matrix product over a coefficient algebra of rank 1 and two per
differential over one of rank 2, each d o d check forms one per pair, and
`mic` builds its subgroup complex once.
Functions are wrapped in every koszulab module that holds them, as the
benchmark's tracer does."""
import sys

from koszulab import complexes
from koszulab.algebra import builtin_height1, save_dataset
from koszulab.bar import KoszulData, bar_complex_with_module
from koszulab.cli import EXIT_PASS, run
from koszulab.complexes import HOMOLOGICAL, homology, make_complex
from koszulab.isogeny import build_mic
from koszulab.padic import (BaseRing, PAdicMatrix, inverse_mod, kernel_basis,
                            smith_normal_form, solve)
from koszulab.partition import partition_complex

from test_assemble import dual_number_dataset
from test_module_skeleton import with_doubles

WRAPPED = (("bar", "bar_complex"), ("bar", "koszul_complex"),
           ("bar", "composition_complex"), ("bar", "_induced_bimodule"),
           ("complexes", "homology"), ("complexes", "verify_complex"),
           ("padic", "solve"),
           ("isogeny", "build_mic"), ("isogeny", "dualize_bar_to_mic"),
           ("algebra", "tensor_over_coeff"), ("algebra", "iterated_tensor"),
           ("algebra", "tensor_step"),
           ("algebra", "load_dataset"), ("padic", "inverse_mod"))
WRAPPED_METHODS = (("bar", "AmbientTable", "level"),
                   ("padic", "PAdicMatrix", "__matmul__"),
                   ("padic", "PAdicMatrix", "kron_apply"),
                   ("padic", "PAdicMatrix", "kron"),
                   ("algebra", "Dataset", "validate"))


def record_calls(monkeypatch):
    """Wrap each function in WRAPPED and each method in WRAPPED_METHODS;
    return the list the wrappers append (name, args, names of the wrapped
    calls enclosing this one) to."""
    calls, stack = [], []

    def wrap(name, original):
        def wrapper(*args, **kwargs):
            calls.append((name, args, tuple(stack)))
            stack.append(name)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
        return wrapper

    namespaces = [m for n, m in sys.modules.items()
                  if n == "koszulab" or n.startswith("koszulab.")]
    for module, fname in WRAPPED:
        original = getattr(sys.modules[f"koszulab.{module}"], fname)
        wrapper = wrap(f"{module}.{fname}", original)
        for ns in namespaces:
            if getattr(ns, fname, None) is original:
                monkeypatch.setattr(ns, fname, wrapper)
    for module, cls_name, method in WRAPPED_METHODS:
        cls = getattr(sys.modules[f"koszulab.{module}"], cls_name)
        monkeypatch.setattr(cls, method,
                            wrap(f"{module}.{cls_name}.{method}", getattr(cls, method)))
    return calls


def saved_builtin(tmp_path):
    ds = builtin_height1(3, 2, 5)
    path = tmp_path / "h1.json"
    save_dataset(ds, path)
    return ds, path


def test_verify_builds_each_complex_once(tmp_path, monkeypatch):
    ds, path = saved_builtin(tmp_path)
    calls = record_calls(monkeypatch)
    report, code = run(["verify", str(path), "--suite", "all", "--json"])
    assert code == EXIT_PASS and report.passed
    weights = [args[1] for name, args, _ in calls if name == "bar.bar_complex"]
    assert sorted(weights) == list(range(6))
    modules = [args[1].name for name, args, _ in calls
               if name == "bar.koszul_complex"]
    assert sorted(modules) == sorted(ds.modules)
    assert any(name == "complexes.homology" for name, _, _ in calls)
    assert not [c for c in calls if c[0] == "complexes.verify_complex"
                and "complexes.homology" in c[2]]


def test_homology_checks_d_o_d_only_where_no_builder_did(tmp_path, monkeypatch):
    """On validated data every complex whose homology `verify --suite all`
    takes is marked checked before homology reads it, and homology checks
    none of them again.  The bar, module bar and subgroup complexes are
    marked by their builders from the identities, so the only
    verify_complex calls are the Koszul complexes' checks, one per module,
    each inside `koszul_complex`.  `ext` takes the homology of the dual of
    a checked Koszul complex, also without a check.  The partition complex
    is marked by its builder, so `partition` runs no verify_complex."""
    ds, path = saved_builtin(tmp_path)
    calls = record_calls(monkeypatch)
    report, code = run(["verify", str(path), "--suite", "all", "--json"])
    assert code == EXIT_PASS and report.passed
    checks = [stack for name, _, stack in calls
              if name == "complexes.verify_complex"]
    assert [stack[-1] for stack in checks] == ["bar.koszul_complex"] * len(ds.modules)
    taken = [args[0] for name, args, _ in calls if name == "complexes.homology"]
    assert taken and all(C.checked for C in taken)

    calls.clear()
    report, code = run(["ext", str(path), "--module", "sphere", "--json"])
    assert code == EXIT_PASS
    assert any(name == "complexes.homology" for name, _, _ in calls)
    assert not [c for c in calls if c[0] == "complexes.verify_complex"
                and "complexes.homology" in c[2]]

    calls.clear()
    report, code = run(["partition", "--n", "4", "--p", "2", "--json"])
    assert code == EXIT_PASS
    [(_, (C,), _)] = [c for c in calls if c[0] == "complexes.homology"]
    assert C.checked
    assert not [c for c in calls if c[0] == "complexes.verify_complex"]


def test_verify_builds_each_tensor_and_inverse_once(tmp_path, monkeypatch):
    """Built-in p=3 N=2 kmax 5: 343 tensor quotients and 15 pairing inverses
    when every composition and every k builds its own, 183 when each module
    builds its own module bar and Koszul complex parts and loading and
    validation their own flag modules, at most 94 (63 after the recursion
    on the first part) when one table per family builds one per
    composition, 9 now.  Over a coefficient algebra of rank 1 the bar,
    subgroup and module bar blocks, package validation and the Koszul
    complexes build none; what is left is the table's top tensors
    (1, ..., 1) of weights 2..5, whose actions C[k] restricts, and the flag
    modules (1, ..., 1) of 2..6 slots that loading reads the shift maps'
    shapes from.  C[k] gets its coefficient actions once per weight.  The
    duality forms each block from the pairing inverses and solves no
    linear system; over rank 1 its only products are the 2(k - 1) of the
    intertwining check."""
    ds, path = saved_builtin(tmp_path)
    calls = record_calls(monkeypatch)
    report, code = run(["verify", str(path), "--suite", "all", "--json"])
    assert code == EXIT_PASS and report.passed
    assert len([c for c in calls if c[0] == "algebra.tensor_over_coeff"]) <= 9
    products, k = {}, None
    for name, args, stack in calls:
        if name == "isogeny.dualize_bar_to_mic":
            k = args[2]
            products[k] = 0
        elif (name == "padic.PAdicMatrix.__matmul__"
              and stack[-1:] == ("isogeny.dualize_bar_to_mic",)):
            products[k] += 1
    kmax = ds.algebra.max_weight
    assert products == {k: 2 * max(k - 1, 0) for k in range(kmax + 1)}
    assert len([c for c in calls if c[0] == "padic.inverse_mod"
                and "isogeny.dualize_bar_to_mic" in c[2]]) == 5
    assert any(name == "isogeny.dualize_bar_to_mic" for name, _, _ in calls)
    assert not [c for c in calls if c[0] == "padic.solve"
                and "isogeny.dualize_bar_to_mic" in c[2]]
    induced = [args[1].weight for name, args, _ in calls
               if name == "bar._induced_bimodule"]
    assert sorted(induced) == list(range(1, ds.algebra.max_weight + 1))
    assert any(name == "algebra.load_dataset" for name, _, _ in calls)
    assert any(name == "algebra.Dataset.validate" for name, _, _ in calls)
    assert not [c for c in calls if c[0] == "algebra.iterated_tensor"]


def test_c_k_gets_its_coefficient_actions_once_per_weight(tmp_path, monkeypatch):
    """Four modules over two bimodules (sphere and triv of rank 1, their
    doubles of rank 2): C[k]'s coefficient actions are built once per
    weight for the whole command, not once per bimodule."""
    ds = with_doubles(builtin_height1(3, 2, 5))
    assert len(ds.modules) == 4
    path = tmp_path / "doubled.json"
    save_dataset(ds, path)
    calls = record_calls(monkeypatch)
    report, code = run(["verify", str(path), "--suite", "all", "--json"])
    assert code == EXIT_PASS and report.passed
    assert [args[1].weight for name, args, _ in calls
            if name == "bar._induced_bimodule"] == [1, 2, 3, 4, 5]


def test_mic_builds_its_subgroup_complex_once(tmp_path, monkeypatch):
    _, path = saved_builtin(tmp_path)
    calls = record_calls(monkeypatch)
    report, code = run(["mic", str(path), "--k", "3", "--json"])
    assert code == EXIT_PASS and report.passed
    assert [args[1] for name, args, _ in calls
            if name == "isogeny.build_mic"] == [3]


def test_assembly_forms_no_product_and_verify_one_per_pair(tmp_path, monkeypatch):
    """The ambient differentials are copies of the lower levels' nonzeros
    plus the faces on the first part, with no matrix product.  On validated
    data over a coefficient algebra of rank 1 `composition_complex` takes
    them as the differentials, marks the complex from the identities and
    forms no product at all; what d o d products `verify --suite all` still
    forms are the Koszul complexes' checks, one per consecutive pair of
    differentials.  Over the dual numbers (rank 2), with a KoszulData never
    told the verdict, it reads each differential in quotient coordinates
    with two products (its blocks' tensor steps are counted apart), checks
    no complex and marks none; homology then checks each, one product per
    pair."""
    _, path = saved_builtin(tmp_path)
    calls = record_calls(monkeypatch)
    report, code = run(["verify", str(path), "--suite", "all", "--json"])
    assert code == EXIT_PASS and report.passed
    assert any(name == "bar.AmbientTable.level" for name, _, _ in calls)
    assert any(name == "bar.composition_complex" for name, _, _ in calls)
    products = ("padic.PAdicMatrix.__matmul__", "padic.PAdicMatrix.kron_apply")
    assert not [c for c in calls if c[0] in products
                and "bar.AmbientTable.level" in c[2]]
    assert not [c for c in calls if c[0] in products
                and "bar.composition_complex" in c[2]]
    checks = [args[0] for name, args, _ in calls if name == "complexes.verify_complex"]
    assert checks
    made = [c for c in calls if c[0] == "padic.PAdicMatrix.__matmul__"
            and c[2][-1:] == ("complexes.verify_complex",)]
    assert len(made) == sum(max(len(C.differentials) - 1, 0) for C in checks)

    ds = dual_number_dataset()
    A, pkg = ds.algebra, ds.subgroup_package
    calls.clear()
    data = KoszulData(A)
    cxs = [C for k in range(A.max_weight + 1)
           for C in (data.bar(k).complex, build_mic(pkg, k).complex)]
    cxs += [bar_complex_with_module(data, M, A.max_weight).complex
            for M in ds.modules.values()]
    built = [args for name, args, _ in calls if name == "bar.composition_complex"]
    differentials = sum(len(args[3]) - 1 for args in built)
    assert differentials == (A.max_weight * (A.max_weight + 1) // 2
                             + A.max_weight * (A.max_weight - 1) // 2
                             + A.max_weight * len(ds.modules))
    assert not [c for c in calls if c[0] in products
                and "bar.AmbientTable.level" in c[2]]
    made = [c for c in calls if c[0] == "padic.PAdicMatrix.__matmul__"
            and c[2][-1:] == ("bar.composition_complex",)]
    assert len(made) == 2 * differentials
    assert not [c for c in calls if c[0] == "complexes.verify_complex"]
    assert not any(C.checked for C in cxs) and len(cxs) == len(built)
    calls.clear()
    for C in cxs:
        complexes.homology(C)      # the wrapped homology
    checks = [args[0] for name, args, stack in calls
              if name == "complexes.verify_complex"
              and stack[-1:] == ("complexes.homology",)]
    assert [id(C) for C in checks] == [id(C) for C in cxs]
    pairs = [c for c in calls if c[0] == "padic.PAdicMatrix.__matmul__"
             and c[2][-1:] == ("complexes.verify_complex",)]
    assert len(pairs) == sum(max(len(C.differentials) - 1, 0) for C in checks)


def test_duality_forms_one_kron_per_composition(tmp_path, monkeypatch):
    """The duality's blocks over rank 1 are the Kronecker products of the
    pairing inverses, shared by prefix on the package: over one `verify
    --suite all` each composition of two or more parts costs one
    Kronecker product, 26 for the compositions of 2..5 (49 when each
    composition of s parts formed its own s - 1)."""
    ds, path = saved_builtin(tmp_path)
    calls = record_calls(monkeypatch)
    report, code = run(["verify", str(path), "--suite", "all", "--json"])
    assert code == EXIT_PASS and report.passed
    krons = [c for c in calls if c[0] == "padic.PAdicMatrix.kron"
             and "isogeny.dualize_bar_to_mic" in c[2]]
    kmax = ds.algebra.max_weight
    assert len(krons) == sum(2 ** (k - 1) - 1 for k in range(2, kmax + 1)) == 26


def test_elimination_builds_no_dense_scratch(monkeypatch):
    """Smith forms, kernels, solutions, inverses and the homology of a
    complex with torsion eliminate on the matrices' own row dicts: none of
    them builds a matrix from dense rows or reads one as dense lists."""
    ring = BaseRing(3, 2)
    A = PAdicMatrix(ring, [[3, 1, 0, 6], [0, 3, 6, 0], [3, 4, 6, 6]], 3, 4)
    X = PAdicMatrix(ring, [[1, 2], [0, 3], [4, 0], [5, 1]], 4, 2)
    U = PAdicMatrix(ring, [[2, 1, 0], [3, 1, 1], [0, 6, 1]], 3, 3)
    # Z/9 <-3- Z/9 <-(3 0)- Z/9 (+) Z/9 <-(0 1)- Z/9: Z/3 in degrees 0 and 2
    C = make_complex(ring, HOMOLOGICAL, 0, (1, 1, 2, 1),
                     (PAdicMatrix(ring, [[3]], 1, 1),
                      PAdicMatrix(ring, [[3, 0]], 1, 2),
                      PAdicMatrix(ring, [[0], [1]], 2, 1)))
    AX = A @ X
    dense = []

    def forbid(name):
        original = getattr(PAdicMatrix, name)

        def wrapper(*args, **kwargs):
            dense.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(PAdicMatrix, name, wrapper)

    forbid("__init__")
    forbid("tolist")
    smith_normal_form(A)
    kernel_basis(A)
    assert A @ solve(A, AX) == AX
    inverse_mod(U)
    assert homology(C).torsion == ((1,), (), (1,), ())
    assert dense == []


def test_homology_reads_residuals_without_reducing_entries(monkeypatch):
    """homology wraps each residual from its reduced columns, whose
    entries are residues already: on Z/4 -2-> Z/4 -2-> Z/4 and on the
    partition complex at n = 5 it calls no constructor that reduces
    entries (`from_sparse_rows`, the dense `__init__`) and reads no matrix
    as dense lists (`tolist`)."""
    ring = BaseRing(2, 2)
    two = PAdicMatrix(ring, [[2]], 1, 1)
    torsion = make_complex(ring, HOMOLOGICAL, 0, [1, 1, 1], [two, two])
    partition = partition_complex(5, ring).complex
    made = []

    def record(name):
        original = getattr(PAdicMatrix, name)

        def wrapper(*args, **kwargs):
            made.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(PAdicMatrix, name, staticmethod(wrapper)
                            if name == "from_sparse_rows" else wrapper)

    for name in ("from_sparse_rows", "__init__", "tolist"):
        record(name)
    assert homology(torsion).torsion == ((1,), (), (1,))
    prof = homology(partition)
    assert prof.nonzero_degrees() == [4] and prof.free_rank(4) == 24
    assert made == []
