"""Chain complexes and exact homology, checked against brute-force
enumeration of kernels and images over Z/4, Z/8 and Z/9, and against
complexes of known homology over Z/4, Z/8, Z/9 and Z/27."""
import inspect
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from koszulab.algebra import builtin_height1
from koszulab.bar import KoszulData, bar_complex_with_module
from koszulab.padic import BaseRing, PAdicMatrix, ShapeError
from koszulab import complexes
from koszulab.complexes import (COHOMOLOGICAL, HOMOLOGICAL, ChainComplex,
                                ComplexError, HomologyProfile,
                                _homology_degree, dualize_complex, homology,
                                make_complex, verify_complex)
from koszulab.partition import partition_complex

from complex_helpers import boundary_maps, euler_characteristic

RING22 = BaseRing(2, 2)
# the brute-force oracles also run over these, with ranks at most 3 to keep
# the enumeration small
WIDE_RINGS = [BaseRing(2, 3), BaseRing(3, 2)]
WIDE_IDS = ["Z/8", "Z/9"]


def random_three_term_complex(rng, ring, max_rank=4):
    """Random homological complex 0 <- C0 <- C1 <- C2 over Z/p^N (valid by
    construction, usually not liftable to an integer complex)."""
    n0 = rng.randrange(0, max_rank + 1)
    n1 = rng.randrange(1, max_rank + 1)
    n2 = rng.randrange(0, max_rank + 1)
    d1 = PAdicMatrix(ring, [[rng.randrange(ring.modulus) for _ in range(n2)]
                            for _ in range(n1)], n1, n2)
    # rows annihilating every column of d1, by enumeration
    good = [r for r in itertools.product(range(ring.modulus), repeat=n1)
            if all(sum(r[i] * d1.entries[i][j] for i in range(n1))
                   % ring.modulus == 0 for j in range(n2))]
    d0 = PAdicMatrix(ring, [list(rng.choice(good)) for _ in range(n0)], n0, n1)
    return make_complex(ring, HOMOLOGICAL, 0, [n0, n1, n2], [d0, d1])


def enumerate_group(ring, mats_cols):
    """All Z/p^N-combinations of the given column vectors, as a set."""
    if not mats_cols:
        return {()}
    n = len(mats_cols[0])
    out = set()
    for coeffs in itertools.product(range(ring.modulus), repeat=len(mats_cols)):
        out.add(tuple(sum(c * col[i] for c, col in zip(coeffs, mats_cols))
                      % ring.modulus for i in range(n)))
    return out


def brute_homology_degree(ring, rank, d_out, d_in):
    """(group order, order of the p-torsion subgroup) of ker/im by enumeration."""
    kernel = []
    for vec in itertools.product(range(ring.modulus), repeat=rank):
        if d_out is None or all(
                sum(d_out.entries[i][j] * vec[j] for j in range(rank))
                % ring.modulus == 0 for i in range(d_out.rows)):
            kernel.append(vec)
    cols = []
    if d_in is not None:
        for j in range(d_in.cols):
            cols.append([d_in.entries[i][j] for i in range(rank)])
    image = enumerate_group(ring, cols) if cols else {(0,) * rank}
    if rank == 0:
        return 1, 1
    order = len(kernel) // len(image)
    ptors = sum(1 for x in kernel
                if tuple(ring.p * v % ring.modulus for v in x) in image)
    return order, ptors // len(image)


def profile_order(prof, ring, degree):
    order = ring.modulus ** prof.free_rank(degree)
    ptors = ring.p ** prof.free_rank(degree)
    for t in prof.torsion_at(degree):
        order *= ring.p ** t
        ptors *= ring.p
    return order, ptors


def check_homology_against_brute_force(ring, max_rank, seed):
    rng = random.Random(seed)
    C = random_three_term_complex(rng, ring, max_rank)
    prof = homology(C)
    for d in C.degrees:
        d_out, d_in = boundary_maps(C, d)
        want = brute_homology_degree(ring, C.rank(d), d_out, d_in)
        assert profile_order(prof, ring, d) == want, f"degree {d}"


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_homology_matches_brute_force_enumeration(seed):
    check_homology_against_brute_force(RING22, 4, seed)


@pytest.mark.parametrize("ring", WIDE_RINGS, ids=WIDE_IDS)
@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_homology_matches_brute_force_enumeration_wide(ring, seed):
    check_homology_against_brute_force(ring, 3, seed)


ORACLE_RINGS = [BaseRing(2, 2), BaseRing(2, 3), BaseRing(3, 2), BaseRing(3, 3)]
ORACLE_IDS = ["Z/4", "Z/8", "Z/9", "Z/27"]


def random_unimodular(rng, ring, n):
    """(U, U^-1) as row lists, U a random product of unit scalings and
    elementary row operations over Z/p^N."""
    m = ring.modulus
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    Ui = [row[:] for row in U]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:            # U <- diag(u at i) U, U^-1 <- U^-1 diag(1/u at i)
            u = rng.choice([x for x in range(1, m) if x % ring.p])
            U[i] = [x * u % m for x in U[i]]
            v = pow(u, -1, m)
            for row in Ui:
                row[i] = row[i] * v % m
        else:                 # U <- (I + c e_ij) U, U^-1 <- U^-1 (I - c e_ij)
            c = rng.randrange(m)
            U[i] = [(x + c * y) % m for x, y in zip(U[i], U[j])]
            for row in Ui:
                row[j] = (row[j] - c * row[i]) % m
    return U, Ui


def random_exact_complex(rng, ring, orientation):
    """A complex with known homology: a direct sum of free cells and pieces
    Z/p^N --p^a--> Z/p^N (H = Z/p^a at both ends for 0 < a < N, acyclic
    for a = 0, free at both ends for a = N), under a random unimodular
    change of basis in every degree.  Returns it and its expected
    (free ranks, torsion) per degree."""
    p, N, m = ring.p, ring.N, ring.modulus
    length = rng.randrange(1, 6)
    cells = [[] for _ in range(length)]      # per position: ids of its cells
    edges = []                               # (position, lower id, upper id, p^a)
    free = [0] * length
    tors = [[] for _ in range(length)]
    for _ in range(rng.randrange(0, 9)):
        pos = rng.randrange(length)
        if pos == length - 1 or rng.random() < 0.3:
            cells[pos].append(object())
            free[pos] += 1
            continue
        a = rng.randrange(N + 1)
        lo, hi = object(), object()
        cells[pos].append(lo)
        cells[pos + 1].append(hi)
        edges.append((pos, lo, hi, p ** a % m))
        for end in (pos, pos + 1):
            if a == N:
                free[end] += 1
            elif a:
                tors[end].append(a)
    for c in cells:
        rng.shuffle(c)
    index = [{c: i for i, c in enumerate(cs)} for cs in cells]
    ranks = [len(c) for c in cells]
    homological = orientation == HOMOLOGICAL
    bases = [random_unimodular(rng, ring, r) for r in ranks]
    diffs = []
    for j in range(length - 1):
        src, tgt = (j + 1, j) if homological else (j, j + 1)
        D = [[0] * ranks[src] for _ in range(ranks[tgt])]
        for pos, lo, hi, x in edges:
            if pos == j:
                s, t = (hi, lo) if homological else (lo, hi)
                D[index[tgt][t]][index[src][s]] = x
        U = PAdicMatrix(ring, bases[tgt][0], ranks[tgt], ranks[tgt])
        Vi = PAdicMatrix(ring, bases[src][1], ranks[src], ranks[src])
        diffs.append(U @ PAdicMatrix(ring, D, ranks[tgt], ranks[src]) @ Vi)
    C = make_complex(ring, orientation, rng.randrange(-2, 3), ranks, diffs)
    return C, tuple(free), tuple(tuple(sorted(t)) for t in tors)


def assert_matches_unreduced(C, prof):
    for d in C.degrees:
        d_out, d_in = boundary_maps(C, d)
        assert _homology_degree(C.ring, C.rank(d), d_out, d_in, d) == \
            (prof.free_rank(d), prof.torsion_at(d)), f"degree {d}"


@pytest.mark.parametrize("orientation", [HOMOLOGICAL, COHOMOLOGICAL])
@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=ORACLE_IDS)
@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_reduced_homology_matches_known_and_unreduced(ring, orientation, seed):
    rng = random.Random(seed)
    C, free, tors = random_exact_complex(rng, ring, orientation)
    prof = homology(C)
    assert (prof.free_ranks, prof.torsion) == (free, tors)
    assert_matches_unreduced(C, prof)
    # one perturbed entry: homology refuses exactly what verify_complex does
    sized = [j for j, d in enumerate(C.differentials) if d.rows and d.cols]
    if not sized:
        return
    j = rng.choice(sized)
    d = C.differentials[j]
    rows = d.tolist()
    rows[rng.randrange(d.rows)][rng.randrange(d.cols)] += rng.randrange(1, ring.modulus)
    diffs = list(C.differentials)
    diffs[j] = PAdicMatrix(ring, rows, d.rows, d.cols)
    bad = make_complex(ring, orientation, C.min_degree, C.ranks, diffs)
    ok, deg = verify_complex(bad)
    if ok:
        assert_matches_unreduced(bad, homology(bad))
    else:
        with pytest.raises(ComplexError) as exc:
            homology(bad)
        assert str(exc.value) == f"not a complex: d o d != 0 at degree {deg}"


def test_known_homology_mod_4():
    # 0 <- Z/4 <-x2- Z/4 <-x2- Z/4: in the middle degree kernel and image
    # both equal 2Z/4Z, so only the ends carry a Z/2
    two = PAdicMatrix(RING22, [[2]], 1, 1)
    C = make_complex(RING22, HOMOLOGICAL, 0, [1, 1, 1], [two, two])
    prof = homology(C)
    assert prof.free_ranks == (0, 0, 0)
    assert prof.torsion == ((1,), (), (1,))


def test_identity_complex_is_acyclic():
    eye = PAdicMatrix.identity(RING22, 3)
    C = make_complex(RING22, HOMOLOGICAL, 0, [3, 3], [eye])
    assert homology(C).is_zero()


def test_zero_differential_gives_free_ranks():
    z = PAdicMatrix.zeros(RING22, 2, 3)
    C = make_complex(RING22, HOMOLOGICAL, 0, [2, 3], [z])
    prof = homology(C)
    assert prof.free_ranks == (2, 3)
    assert all(not t for t in prof.torsion)


def test_verify_complex_reports_failing_degree():
    eye = PAdicMatrix.identity(RING22, 1)
    C = make_complex(RING22, HOMOLOGICAL, 0, [1, 1, 1], [eye, eye])
    ok, deg = verify_complex(C)
    assert not ok and deg == 0
    with pytest.raises(ComplexError):
        homology(C)


def test_not_a_complex_message_names_first_failing_degree():
    # homological, degrees 2..6: d(4->3) @ d(5->4) and d(5->4) @ d(6->5)
    # are nonzero; the lower degree of the first failing pair is reported
    zero = PAdicMatrix.zeros(RING22, 1, 1)
    eye = PAdicMatrix.identity(RING22, 1)
    two = PAdicMatrix(RING22, [[2]], 1, 1)
    C = make_complex(RING22, HOMOLOGICAL, 2, [1] * 5, [zero, eye, eye, two])
    with pytest.raises(ComplexError) as exc:
        homology(C)
    assert str(exc.value) == "not a complex: d o d != 0 at degree 3"
    # cohomological, degrees 1..5: d(2->3) @ d(1->2) = 2 * 2 vanishes mod 4,
    # d(3->4) @ d(2->3) = 1 * 2 and d(4->5) @ d(3->4) = 2 * 1 do not
    C = make_complex(RING22, COHOMOLOGICAL, 1, [1] * 5, [two, two, eye, two])
    with pytest.raises(ComplexError) as exc:
        homology(C)
    assert str(exc.value) == "not a complex: d o d != 0 at degree 2"


def test_image_outside_the_kernel_is_rejected_per_degree():
    # the per-degree step checks on its own that im(d_in) lies in ker(d_out)
    two = PAdicMatrix(RING22, [[2]], 1, 1)
    eye = PAdicMatrix.identity(RING22, 1)
    with pytest.raises(ComplexError):
        _homology_degree(RING22, 1, eye, eye)
    with pytest.raises(ComplexError):
        _homology_degree(RING22, 1, two, eye)
    assert _homology_degree(RING22, 1, two, two) == (0, ())


def test_shape_mismatch_names_degree_pair():
    z = PAdicMatrix.zeros(RING22, 2, 2)
    with pytest.raises(ShapeError) as exc:
        make_complex(RING22, HOMOLOGICAL, 5, [2, 3], [z])
    assert "5" in str(exc.value) and "6" in str(exc.value)


def test_orientation_validation():
    with pytest.raises(ValueError):
        make_complex(RING22, "sideways", 0, [1], [])


def check_double_dual(ring, seed):
    rng = random.Random(seed)
    C = random_three_term_complex(rng, ring, max_rank=3)
    D = dualize_complex(C)
    assert D.orientation == COHOMOLOGICAL
    assert dualize_complex(D) == C
    # dualization over Z/p^N is exact, so the profiles agree degreewise
    pc, pd = homology(C), homology(D)
    assert pc.free_ranks == pd.free_ranks
    assert pc.torsion == pd.torsion


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_double_dual_is_identity_and_dual_profile_matches(seed):
    check_double_dual(RING22, seed)


@pytest.mark.parametrize("ring", WIDE_RINGS, ids=WIDE_IDS)
@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_double_dual_is_identity_and_dual_profile_matches_wide(ring, seed):
    check_double_dual(ring, seed)


def test_euler_characteristic_matches_alternating_free_ranks():
    rng = random.Random(5)
    for _ in range(10):
        C = random_three_term_complex(rng, RING22, max_rank=3)
        prof = homology(C)
        chi_complex = euler_characteristic(C)
        # over Z/p^N torsion contributes valuation, so compare p-lengths
        length = 0
        for d in C.degrees:
            s = (-1) ** d
            length += s * (RING22.N * prof.free_rank(d)
                           + sum(prof.torsion_at(d)))
        assert length == RING22.N * chi_complex


def test_concentrated_in_means_zero_elsewhere_and_free_there():
    prof = HomologyProfile(RING22, 1, (0, 2, 0), ((), (), ()))
    assert prof.concentrated_in(2)
    assert not prof.concentrated_in(1) and not prof.concentrated_in(5)
    assert not prof._replace(torsion=((), (1,), ())).concentrated_in(2)
    assert not prof._replace(torsion=((1,), (), ())).concentrated_in(2)
    assert HomologyProfile(RING22, 0, (0, 0), ((), ())).concentrated_in(7)


def test_empty_complex():
    C = make_complex(RING22, HOMOLOGICAL, 3, [], [])
    assert homology(C).is_zero()


def test_homology_leaves_its_input_unchanged():
    """homology reduces copies of the stored nonzeros: afterwards every
    differential has the same entries and the same hash, and a second call
    gives the same profile.  The complexes are the partition complex at
    n = 4 and a bar, a module bar and a Koszul complex taken from one
    KoszulData (the module bar rows start as copies of shared merge rows),
    with the dual of the last."""
    ds = builtin_height1(3, 2, 5)
    data = KoszulData(ds.algebra)
    koszul = data.koszul_complex(ds.module("sphere")).complex
    complexes = [partition_complex(4, RING22).complex, data.bar(4).complex,
                 bar_complex_with_module(data, ds.module("triv"), 5).complex,
                 koszul, dualize_complex(koszul)]
    for C in complexes:
        before = [(d.tolist(), hash(d)) for d in C.differentials]
        first = homology(C)
        assert [(d.tolist(), hash(d)) for d in C.differentials] == before
        assert homology(C) == first


def test_only_a_passing_check_marks_a_complex(monkeypatch):
    """A complex starts unchecked; a failing verify_complex leaves it so and
    homology refuses it through that same check, each time it is asked; a
    passing one marks it and its dual, and then homology runs no d o d check
    of its own.  On an unmarked complex homology runs verify_complex once,
    and the pass marks the complex.  The mark is no constructor argument,
    takes no part in equality or hashing, and homology has no option for
    it."""
    checks = []
    original = complexes.verify_complex
    monkeypatch.setattr(complexes, "verify_complex",
                        lambda C: checks.append(C) or original(C))
    eye = PAdicMatrix.identity(RING22, 1)
    two = PAdicMatrix(RING22, [[2]], 1, 1)
    bad = make_complex(RING22, HOMOLOGICAL, 0, [1, 1, 1], [eye, eye])
    assert verify_complex(bad) == (False, 0) and not bad.checked
    for _ in range(2):
        with pytest.raises(ComplexError, match="d o d != 0 at degree 0$"):
            homology(bad)
    assert len(checks) == 2 and all(c is bad for c in checks)
    assert not bad.checked

    checks.clear()
    C = make_complex(RING22, HOMOLOGICAL, 0, [1, 1, 1], [two, two])
    fresh = make_complex(RING22, HOMOLOGICAL, 0, [1, 1, 1], [two, two])
    assert not C.checked and not dualize_complex(C).checked
    assert verify_complex(C) == (True, None) and C.checked
    assert C == fresh and hash(C) == hash(fresh) and not fresh.checked
    assert dualize_complex(C).checked

    profile = homology(C)
    assert homology(dualize_complex(C)).free_ranks == profile.free_ranks
    assert not checks
    assert homology(fresh) == profile
    assert len(checks) == 1 and checks[0] is fresh and fresh.checked
    assert homology(fresh) == profile
    assert len(checks) == 1

    with pytest.raises(TypeError):
        ChainComplex(RING22, HOMOLOGICAL, 0, (1, 1), (eye,), True)
    assert list(inspect.signature(homology).parameters) == ["C"]


@pytest.mark.parametrize("p, want", [(3, ((), ())), (2, ((1,), (1,)))])
def test_sweep_cancels_a_unit_made_by_fill_in(p, want):
    """d = [[1,1,0],[1,0,1],[0,1,1]], det -2, over Z/p^2.  The sweep cancels
    f[0, 0] (rows 0 and 1 tie on two nonzeros), which fills column 1 in
    with -1 in row 1; cancelling that entry leaves f[2, 2] = 2, a unit over
    Z/9, where the complex is acyclic, and over Z/4 the residual Z/2 in
    each degree."""
    ring = BaseRing(p, 2)
    d = PAdicMatrix(ring, [[1, 1, 0], [1, 0, 1], [0, 1, 1]], 3, 3)
    C = make_complex(ring, HOMOLOGICAL, 0, [3, 3], [d])
    prof = homology(C)
    assert prof.free_ranks == (0, 0) and prof.torsion == want
    assert_matches_unreduced(C, prof)


def test_a_cell_cancelled_in_one_map_is_no_pivot_in_the_next():
    """Z/4 <-(1 1)- Z/4^2 <-(1 3)^T- Z/4, degrees 0..2, and its dual: both
    acyclic.  The first map cancels its cell 0 of degree 1, where the next
    map also has a unit; pivoting on that cell a second time would read
    H1 as free of rank 1."""
    d0 = PAdicMatrix(RING22, [[1, 1]], 1, 2)
    d1 = PAdicMatrix(RING22, [[1], [3]], 2, 1)
    C = make_complex(RING22, HOMOLOGICAL, 0, [1, 2, 1], [d0, d1])
    for D in (C, dualize_complex(C)):
        prof = homology(D)
        assert prof.is_zero(), prof
        assert_matches_unreduced(D, prof)
