"""Exact linear algebra over Z/p^N: Smith forms, kernels, solving."""
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from koszulab.bar import KoszulData
from koszulab.complexes import COHOMOLOGICAL, HOMOLOGICAL
from koszulab.padic import (BaseRing, PAdicMatrix, InconsistentSystemError,
                            ShapeError, _is_prime, integer_smith, inverse_mod,
                            kernel_basis, smith_normal_form, solve)

from test_complexes import random_exact_complex
from test_golden import sym2_dataset


def rings():
    return [BaseRing(2, 1), BaseRing(2, 2), BaseRing(2, 3),
            BaseRing(3, 2), BaseRing(5, 3)]


def random_matrix(rng, ring, rows, cols):
    return PAdicMatrix(ring, [[rng.randrange(ring.modulus) for _ in range(cols)]
                              for _ in range(rows)], rows, cols)


# ---------------------------------------------------------------------------
# Ring basics
# ---------------------------------------------------------------------------

def test_base_ring_rejects_bad_parameters():
    with pytest.raises(ValueError):
        BaseRing(4, 2)
    with pytest.raises(ValueError):
        BaseRing(3, 0)


def test_primality_matches_trial_division_below_10000():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(10 ** 4) if _is_prime(n)] == \
        [n for n in range(10 ** 4) if trial(n)]


def test_primality_rejects_strong_pseudoprimes_and_accepts_large_primes():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the first nine primes
    assert not _is_prime(3215031751)
    assert not _is_prime(3825123056546413051)
    assert _is_prime(2 ** 61 - 1) and _is_prime(2 ** 64 - 59)
    assert not _is_prime((2 ** 31 - 1) * (2 ** 31 - 1))


def test_base_ring_rejects_p_from_2_to_the_64():
    with pytest.raises(ValueError, match="2\\^64"):
        BaseRing(2 ** 64 + 13, 1)
    assert BaseRing(2 ** 61 - 1, 1).modulus == 2 ** 61 - 1


def test_valuation_and_units():
    r = BaseRing(3, 3)
    assert r.valuation(0) == 3
    assert r.valuation(9) == 2
    assert r.valuation(6) == 1
    assert r.is_unit(2) and not r.is_unit(3)
    assert r.inv(2) * 2 % 27 == 1


def test_matrix_is_immutable_and_reduced():
    r = BaseRing(2, 2)
    m = PAdicMatrix(r, [[5, -1]], 1, 2)
    assert m.entries == ((1, 3),)
    with pytest.raises(AttributeError):
        m.rows = 7


def test_shape_errors():
    r = BaseRing(2, 2)
    with pytest.raises(ShapeError):
        PAdicMatrix(r, [[1, 2], [3]], 2, 2)
    a = PAdicMatrix(r, [[1, 2]], 1, 2)
    with pytest.raises(ShapeError):
        a @ a


def test_kron_matches_blockwise_definition():
    r = BaseRing(3, 2)
    a = PAdicMatrix(r, [[1, 2], [0, 3]], 2, 2)
    b = PAdicMatrix(r, [[4, 0], [1, 1]], 2, 2)
    k = a.kron(b)
    for i in range(2):
        for j in range(2):
            for s in range(2):
                for t in range(2):
                    assert k.entries[2 * i + s][2 * j + t] == \
                        a.entries[i][j] * b.entries[s][t] % 9


# ---------------------------------------------------------------------------
# The matrix kernel against naive definitions
# ---------------------------------------------------------------------------

KERNEL_RINGS = (BaseRing(2, 2), BaseRing(3, 2), BaseRing(3, 3))   # Z/4, Z/9, Z/27


@st.composite
def raw_entries(draw, ring, rows, cols):
    """rows x cols integers, unreduced (negative and >= p^N values occur);
    half the time at least 90% of them are zero."""
    m = ring.modulus
    value = st.one_of(st.just(1), st.integers(-2 * m, 2 * m))
    cells = rows * cols
    if draw(st.booleans()):
        flat = draw(st.lists(value, min_size=cells, max_size=cells))
    else:
        flat = [0] * cells
        for pos in draw(st.lists(st.integers(0, max(cells - 1, 0)),
                                 max_size=cells // 10)):
            flat[pos] = draw(value)
    return [flat[i * cols:(i + 1) * cols] for i in range(rows)]


def assert_reduced(M, rows, cols):
    """The storage invariant the kernel's unchecked wrapping relies on: per
    row only nonzero residues, each an int in [1, p^N) at a column in
    range; and the dense view yields ``rows`` tuples of length ``cols``."""
    m = M.ring.modulus
    assert M.shape == (rows, cols)
    assert type(M.nonzeros) is tuple and len(M.nonzeros) == rows
    for r in M.nonzeros:
        assert type(r) is dict
        assert all(type(j) is int and 0 <= j < cols for j in r)
        assert all(type(x) is int and 0 < x < m for x in r.values())
    dense = list(M.entries)
    assert len(M.entries) == len(dense) == rows
    assert all(type(r) is tuple and len(r) == cols for r in dense)


def naive(ring, raw):
    return [[x % ring.modulus for x in r] for r in raw]


dims = st.integers(0, 7)


@given(st.sampled_from(KERNEL_RINGS), dims, dims, dims, st.data())
@settings(max_examples=150, deadline=None)
def test_matmul_and_kron_match_naive_definitions(ring, n, k, l, data):
    m = ring.modulus
    a = data.draw(raw_entries(ring, n, k))
    b = data.draw(raw_entries(ring, k, l))
    A, B = PAdicMatrix(ring, a, n, k), PAdicMatrix(ring, b, k, l)
    assert_reduced(A, n, k)
    P = A @ B
    assert_reduced(P, n, l)
    assert P.tolist() == [[sum(a[i][t] * b[t][j] for t in range(k)) % m
                           for j in range(l)] for i in range(n)]
    K = A.kron(B)
    assert_reduced(K, n * k, k * l)
    assert K.tolist() == [[a[i][j] * b[s][t] % m
                           for j in range(k) for t in range(l)]
                          for i in range(n) for s in range(k)]


@given(st.sampled_from(KERNEL_RINGS), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_kron_apply_is_the_product_with_identity_factors(ring, pre, post, r, c,
                                                          l, data):
    """A size of 0 is a factor of rank 0, such as a module of rank 0."""
    m = PAdicMatrix(ring, data.draw(raw_entries(ring, r, c)), r, c)
    rows = pre * c * post
    S = PAdicMatrix(ring, data.draw(raw_entries(ring, rows, l)), rows, l)
    Y = m.kron_apply(pre, post, S)
    assert_reduced(Y, pre * r * post, l)
    amb = (PAdicMatrix.identity(ring, pre).kron(m)
           .kron(PAdicMatrix.identity(ring, post)))
    assert Y == amb @ S
    with pytest.raises(ShapeError):
        m.kron_apply(pre, post, PAdicMatrix.zeros(ring, rows + 1, l))


@st.composite
def entries_with_empty_lines(draw, ring, rows, cols):
    """``raw_entries`` with a drawn set of whole rows and columns zeroed."""
    raw = draw(raw_entries(ring, rows, cols))
    zero_rows = draw(st.sets(st.integers(0, rows - 1))) if rows else set()
    zero_cols = draw(st.sets(st.integers(0, cols - 1))) if cols else set()
    return [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(r)]
            for i, r in enumerate(raw)]


def naive_kron_apply(ring, pre, post, m, s, cols):
    """(I_pre (x) m (x) I_post) @ s entry by entry, ``m`` and ``s`` as row
    lists: entry ((a, r, c), l) sums m[r][j] * s[(a, j, c)][l] over j."""
    inner = len(m[0]) if m else 0
    return [[sum(m[r][j] * s[(a * inner + j) * post + c][l] for j in range(inner))
             % ring.modulus for l in range(cols)]
            for a in range(pre) for r in range(len(m)) for c in range(post)]


@given(st.sampled_from(KERNEL_RINGS), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 5), st.integers(0, 5), st.integers(0, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_sparse_products_match_naive_definitions(ring, pre, post, r, c, l, data):
    """Factors with empty rows and columns, and often 90% zeros; ``@`` is
    the case pre = post = 1.  A 1x1 identity factor gives the other one."""
    m = data.draw(entries_with_empty_lines(ring, r, c))
    rows = pre * c * post
    s = data.draw(entries_with_empty_lines(ring, rows, l))
    M, S = PAdicMatrix(ring, m, r, c), PAdicMatrix(ring, s, rows, l)
    Y = M.kron_apply(pre, post, S)
    assert_reduced(Y, pre * r * post, l)
    assert Y.tolist() == naive_kron_apply(ring, pre, post, m, s, l)
    T = PAdicMatrix(ring, s[:c], c, l)
    P = M @ T
    assert_reduced(P, r, l)
    assert P.tolist() == naive_kron_apply(ring, 1, 1, m, s[:c], l)
    one = PAdicMatrix(ring, [[1]], 1, 1)
    if c:
        col = PAdicMatrix(ring, [row[:1] for row in m], r, 1)
        assert col.kron_apply(1, 1, one) is col
        assert col @ one == col
    if r == 1:
        assert one @ M is M


@given(st.sampled_from(KERNEL_RINGS), dims, dims, dims, st.data())
@settings(max_examples=150, deadline=None)
def test_reshaping_and_entrywise_ops_match_naive_definitions(ring, n, k, l, data):
    """Each operation, on factors with empty rows and columns and often 90%
    zeros, against the dense reference; the stored rows of every result hold
    only nonzero residues."""
    m = ring.modulus
    a, b = (data.draw(entries_with_empty_lines(ring, n, k)) for _ in range(2))
    c = data.draw(entries_with_empty_lines(ring, n, l))
    e = data.draw(entries_with_empty_lines(ring, l, l))
    A, B, C, E = (PAdicMatrix(ring, a, n, k), PAdicMatrix(ring, b, n, k),
                  PAdicMatrix(ring, c, n, l), PAdicMatrix(ring, e, l, l))
    ra, rb, rc, re = naive(ring, a), naive(ring, b), naive(ring, c), naive(ring, e)
    c0 = data.draw(st.sampled_from([0, 1, -1, m, data.draw(st.integers(-2 * m, 2 * m))]))
    ri = data.draw(st.lists(st.integers(-n, n - 1), max_size=6)) if n else []
    ci = data.draw(st.lists(st.integers(-k, k - 1), max_size=6)) if k else []
    cases = [
        (A.transpose(), [[ra[i][j] for i in range(n)] for j in range(k)]),
        (A.kron(E), [[ra[i][j] * re[s][t] for j in range(k) for t in range(l)]
                     for i in range(n) for s in range(l)]),
        (E.kron(A), [[re[s][t] * ra[i][j] for t in range(l) for j in range(k)]
                     for s in range(l) for i in range(n)]),
        (A.hstack(C), [ra[i] + rc[i] for i in range(n)]),
        (A.select_rows(ri), [ra[i] for i in ri]),
        (A.select_cols(ci), [[ra[i][j] for j in ci] for i in range(n)]),
        (A + B, [[x + y for x, y in zip(r, s)] for r, s in zip(ra, rb)]),
        (A - B, [[x - y for x, y in zip(r, s)] for r, s in zip(ra, rb)]),
        (A - A, [[0] * k for _ in range(n)]),
        (-A, [[-x for x in r] for r in ra]),
        (A.scale(c0), [[c0 * x for x in r] for r in ra]),
        (PAdicMatrix.identity(ring, n), [[int(i == j) for j in range(n)] for i in range(n)]),
        (PAdicMatrix.zeros(ring, n, k), [[0] * k for _ in range(n)]),
    ]
    for M, want in cases:
        want = naive(ring, want)
        assert_reduced(M, len(want), len(want[0]) if want else M.cols)
        assert M.tolist() == want
        assert M.is_zero() == (not any(map(any, want)))
        assert [list(r) for r in M.entries] == want
        assert all(M[i, j] == x for i, r in enumerate(want) for j, x in enumerate(r))


def test_products_of_zero_divisors_store_no_zero():
    """2 * 2 = 0 in Z/4: every entry of these results cancels, and none is
    stored."""
    ring = BaseRing(2, 2)
    two = PAdicMatrix(ring, [[2, 2], [0, 2]], 2, 2)
    for M in (two @ two, two.kron(two), two.kron_apply(2, 1, two.kron(two)),
              two.scale(2), two + two, two - two):
        assert_reduced(M, *M.shape)
        assert M.is_zero() and not any(M.nonzeros)


@given(st.sampled_from(KERNEL_RINGS), dims, dims, st.data())
@settings(max_examples=150, deadline=None)
def test_one_matrix_built_three_ways_is_equal_and_hashes_alike(ring, n, k, data):
    """The dense constructor, sparse rows with explicit zeros, values >= p^N
    and columns listed backwards, and kernel results give equal matrices
    with equal hashes."""
    m = ring.modulus
    raw = data.draw(entries_with_empty_lines(ring, n, k))
    dense = PAdicMatrix(ring, raw, n, k)
    lifted = [{j: raw[i][j] % m + m * ((i + j) % 3 == 0)
               for j in reversed(range(k))} for i in range(n)]
    sparse = PAdicMatrix.from_sparse_rows(ring, n, k, lifted)
    built = [dense, sparse, PAdicMatrix.identity(ring, n) @ sparse,
             sparse.transpose().transpose(),
             PAdicMatrix.identity(ring, n).kron_apply(1, 1, dense)]
    for M in built:
        assert_reduced(M, n, k)
        assert M == dense and M.tolist() == naive(ring, raw)
        assert hash(M) == hash(dense)
        assert M.entries == dense.entries == tuple(map(tuple, naive(ring, raw)))
    assert len({M for M in built}) == 1


@pytest.mark.parametrize("orientation", [HOMOLOGICAL, COHOMOLOGICAL])
@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=["Z/4", "Z/9", "Z/27"])
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_products_that_vanish_are_shared_zero_rows(ring, orientation, seed,
                                                   pre, post):
    """d o d of a complex with known homology, as ``@`` and with identity
    factors around both differentials."""
    C, _, _ = random_exact_complex(random.Random(seed), ring, orientation)
    ds = C.differentials
    for i, j in ((i, i + 1) if orientation == HOMOLOGICAL else (i + 1, i)
                 for i in range(len(ds) - 1)):
        inner, outer = ds[i], ds[j]          # outer is applied first
        P = inner @ outer
        assert_reduced(P, inner.rows, outer.cols)
        assert P.is_zero()
        assert P.tolist() == naive_kron_apply(ring, 1, 1, inner.tolist(),
                                              outer.tolist(), outer.cols)
        wide = (PAdicMatrix.identity(ring, pre).kron(outer)
                .kron(PAdicMatrix.identity(ring, post)))
        Y = inner.kron_apply(pre, post, wide)
        assert_reduced(Y, pre * inner.rows * post, wide.cols)
        assert Y.is_zero()


def test_from_sparse_rows_reduces_and_checks_columns():
    ring = BaseRing(3, 2)
    M = PAdicMatrix.from_sparse_rows(ring, 2, 3, [{0: -1, 2: 10}, {}])
    assert_reduced(M, 2, 3)
    assert M.entries == ((8, 0, 1), (0, 0, 0))
    with pytest.raises(ShapeError):
        PAdicMatrix.from_sparse_rows(ring, 1, 3, [{3: 1}])
    with pytest.raises(ShapeError):
        PAdicMatrix.from_sparse_rows(ring, 2, 3, [{}])


# ---------------------------------------------------------------------------
# Integer Smith form
# ---------------------------------------------------------------------------

def det_unimodular(mat):
    """|det| == 1 via fraction-free Gaussian elimination (small sizes)."""
    import fractions
    n = len(mat)
    m = [[fractions.Fraction(x) for x in row] for row in mat]
    det = fractions.Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return False
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for k in range(c, n):
                m[r][k] -= f * m[c][k]
    return abs(det) == 1


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_integer_smith_certificate(seed):
    rng = random.Random(seed)
    rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
    A = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
    diag, U, V, Vinv = integer_smith([row[:] for row in A], rows, cols)
    # U A V is the diagonal matrix of invariant factors
    UA = [[sum(U[i][k] * A[k][j] for k in range(rows)) for j in range(cols)]
          for i in range(rows)]
    UAV = [[sum(UA[i][k] * V[k][j] for k in range(cols)) for j in range(cols)]
           for i in range(rows)]
    for i in range(rows):
        for j in range(cols):
            want = diag[i] if i == j and i < len(diag) else 0
            assert UAV[i][j] == want
    # divisibility chain, nonnegative
    nz = [d for d in diag if d]
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    assert all(d >= 0 for d in diag)
    # transforms are unimodular and mutually inverse on the column side
    assert det_unimodular(U)
    assert det_unimodular(V)
    VVinv = [[sum(V[i][k] * Vinv[k][j] for k in range(cols))
              for j in range(cols)] for i in range(cols)]
    assert VVinv == [[1 if i == j else 0 for j in range(cols)]
                     for i in range(cols)]


def test_integer_invariant_factors_known():
    def factors(mat):
        return integer_smith(mat, 2, 2, transforms=False)[0]
    assert factors([[2, 0], [0, 3]]) == [1, 6]
    assert factors([[4, 0], [0, 6]]) == [2, 12]
    assert factors([[0, 0], [0, 0]]) == [0, 0]


# ---------------------------------------------------------------------------
# Smith form over Z/p^N
# ---------------------------------------------------------------------------

@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_smith_normal_form_certificate(seed):
    rng = random.Random(seed)
    ring = rng.choice(rings())
    rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
    A = random_matrix(rng, ring, rows, cols)
    snf = smith_normal_form(A)
    D = PAdicMatrix.from_sparse_rows(ring, rows, cols,
                                     [{i: d} for i, d in enumerate(snf.invariants)]
                                     + [{}] * (rows - len(snf.invariants)))
    assert snf.left @ A @ snf.right == D
    # transforms invertible mod p^N
    inverse_mod(snf.left)
    inverse_mod(snf.right)
    # diagonal entries are canonical p-powers with increasing valuation
    vals = []
    for i in range(min(rows, cols)):
        d = D.entries[i][i]
        v = ring.valuation(d)
        assert d == (0 if v >= ring.N else pow(ring.p, v, ring.modulus))
        vals.append(v)
    assert vals == sorted(vals)
    # the valuations agree with the integer Smith form of the centered lift
    m = ring.modulus
    lift = [[x - m if x > m // 2 else x for x in row] for row in A.entries]
    diag = integer_smith(lift, rows, cols, transforms=False)[0]
    assert vals == [ring.valuation(d) for d in diag]   # min(v_p(d), N)


def brute_kernel(ring, A):
    n = A.cols
    out = set()
    for vec in itertools.product(range(ring.modulus), repeat=n):
        col = PAdicMatrix(ring, [[x] for x in vec], n, 1)
        if (A @ col).is_zero():
            out.add(vec)
    return out


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_kernel_basis_spans_exact_kernel(seed):
    rng = random.Random(seed)
    ring = BaseRing(2, 2)
    rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
    A = random_matrix(rng, ring, rows, cols)
    K = kernel_basis(A)
    assert (A @ K).is_zero()
    spanned = set()
    for coeffs in itertools.product(range(ring.modulus), repeat=K.cols):
        vec = tuple(sum(K.entries[i][j] * coeffs[j] for j in range(K.cols))
                    % ring.modulus for i in range(cols))
        spanned.add(vec)
    assert spanned == brute_kernel(ring, A)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_solve_finds_solutions_of_consistent_systems(seed):
    rng = random.Random(seed)
    ring = rng.choice(rings())
    rows, cols, k = rng.randrange(1, 5), rng.randrange(1, 5), rng.randrange(1, 3)
    A = random_matrix(rng, ring, rows, cols)
    X = random_matrix(rng, ring, cols, k)
    B = A @ X
    Y = solve(A, B)
    assert A @ Y == B


def test_solve_reports_inconsistency():
    ring = BaseRing(2, 2)
    A = PAdicMatrix(ring, [[2]], 1, 1)
    with pytest.raises(InconsistentSystemError):
        solve(A, PAdicMatrix(ring, [[1]], 1, 1))


def test_solve_zero_column_matrix():
    ring = BaseRing(3, 2)
    A = PAdicMatrix(ring, [[], []], 2, 0)
    B = PAdicMatrix.zeros(ring, 2, 1)
    assert solve(A, B).shape == (0, 1)
    with pytest.raises(InconsistentSystemError):
        solve(A, PAdicMatrix(ring, [[1], [0]], 2, 1))


def test_inverse_mod_roundtrip():
    ring = BaseRing(5, 2)
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(1, 4)
        while True:
            A = random_matrix(rng, ring, n, n)
            try:
                Ainv = inverse_mod(A)
                break
            except Exception:
                continue
        assert A @ Ainv == PAdicMatrix.identity(ring, n)
        assert Ainv @ A == PAdicMatrix.identity(ring, n)


# ---------------------------------------------------------------------------
# Pinned outputs: the transforms, kernels, solutions and inverses are not
# unique, and the reports built from them quote them, so any rewrite of the
# elimination must give these exact matrices.
# ---------------------------------------------------------------------------

PINNED_RINGS = [BaseRing(2, 1), BaseRing(2, 2), BaseRing(2, 3), BaseRing(3, 1),
                BaseRing(3, 2), BaseRing(5, 2), BaseRing(3, 3)]


def mixed_valuation_matrix(rng, ring, rows, cols):
    """Entries zero about a third of the time, else a unit times p^v with
    v uniform in 0..N-1; every third matrix is a product through a smaller
    inner dimension, so it is rank-deficient."""
    def entry():
        if rng.random() < 0.35:
            return 0
        u = rng.randrange(1, ring.modulus)
        while u % ring.p == 0:
            u = rng.randrange(1, ring.modulus)
        return u * ring.p ** rng.randrange(ring.N)

    def dense(r, c):
        return PAdicMatrix(ring, [[entry() for _ in range(c)] for _ in range(r)], r, c)
    if rng.randrange(3) == 0:
        inner = rng.randrange(1, min(rows, cols) + 1)
        return dense(rows, inner) @ dense(inner, cols)
    return dense(rows, cols)


def unimodular_matrix(rng, ring, n):
    """A lower unitriangular times an upper triangular matrix with unit
    diagonal, with its rows in a random order."""
    m = ring.modulus
    units = [u for u in range(1, m) if u % ring.p]
    lower = [[1 if i == j else (rng.randrange(m) if j < i else 0)
              for j in range(n)] for i in range(n)]
    upper = [[rng.choice(units) if i == j else (rng.randrange(m) if j > i else 0)
              for j in range(n)] for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    A = PAdicMatrix(ring, lower, n, n) @ PAdicMatrix(ring, upper, n, n)
    return A.select_rows(order)


PINNED_ELIMINATION = "4bcd6fbe7f63de28b95c61168a9c9230dcc603f7ff142aca27aad13a7a2c3e44"
PINNED_SYM2_INCLUSIONS = "969ed4770d53c64858d9913816111a4417d2ed53e8c82080d9203c914260f4d2"


def digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def test_elimination_outputs_are_pinned():
    rng = random.Random(20240)
    out = []
    for ring in PINNED_RINGS:
        for _ in range(40):
            rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
            A = mixed_valuation_matrix(rng, ring, rows, cols)
            snf = smith_normal_form(A)
            X = mixed_valuation_matrix(rng, ring, cols, rng.randrange(1, 4))
            out.append((ring.p, ring.N, A.tolist(), snf.invariants,
                        snf.left.tolist(), snf.right.tolist(),
                        kernel_basis(A).tolist(), solve(A, A @ X).tolist()))
        for n in range(1, 8):
            out.append(inverse_mod(unimodular_matrix(rng, ring, n)).tolist())
    assert digest(out) == PINNED_ELIMINATION


def test_sym2_c_inclusions_are_pinned():
    data = KoszulData(sym2_dataset().algebra)
    out = [data.koszul_module(k).inclusion.tolist() for k in range(6)]
    assert digest(out) == PINNED_SYM2_INCLUSIONS

