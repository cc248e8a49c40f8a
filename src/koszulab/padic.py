"""Exact matrices over the truncated ring Z/p^N and Smith normal form.

All arithmetic is integer arithmetic on residues mod p^N; nothing here ever
touches a float.  A matrix stores only its nonzero entries, one dict per
row (see :class:`PAdicMatrix`).

Cost model.  The complexes built here are almost empty (bar face maps are
I (x) m (x) I, partition boundaries have at most a few entries per column),
so every operation costs per stored nonzero and per row, never per cell.
Products follow Gustavson's row-by-row sparse product (ACM TOMS 4, 1978):
row i of ``A @ B`` sums a * y over the nonzeros a = A[i, k] and the
nonzeros y of row k of B, and is reduced once; a row with no term is one
shared empty row and a row whose one term is an entry 1 is the row of B
itself.  ``m.kron_apply(pre, post, S)`` applies a face
(I_pre (x) m (x) I_post) @ S by the same rule without forming the Kronecker
product or the identities, and ``A @ B`` is its case pre = post = 1.
``kron`` shifts the other factor's row for an entry 1 and scales it once
per distinct entry otherwise.  A 1x1 identity factor of ``@`` or ``kron``,
or a 1x1 identity S of ``kron_apply``, returns the other factor.  Results
the kernel builds are already reduced and are wrapped without a second pass
mod p^N; only the constructors reduce and check what callers pass in.  The
partition builder wraps its differentials the same way, since it writes
each entry itself as the residue 1 or p^N - 1.

Dense rows are built only on demand: ``entries`` builds each row tuple when
it is read and ``tolist`` builds lists; nothing in the package computes on
them.  Every Smith form, inverse, kernel and solution comes from one
kernel, `_eliminate`, which works on the matrix's own row dicts and builds
both transforms as dict rows.  In Z/p^N every nonzero entry is a unit
times p^v, so an entry of least valuation divides every other entry:
elimination with that pivot needs no gcd steps and its entries never leave
[0, p^N).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence


class ExactLinalgError(Exception):
    pass


class ShapeError(ExactLinalgError):
    pass


class InconsistentSystemError(ExactLinalgError):
    pass


#: Miller-Rabin with the first 12 primes as bases is exact below 3.18 * 10^23
#: (Sorenson and Webster, 2017), so for every p below 2^64, the bound
#: BaseRing enforces.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_P_LIMIT = 2 ** 64
#: p^N < 2^_MODULUS_BITS, checked as N * bitlength(p) <= it.  The built-in
#: kmax-3 `verify --suite all` takes 0.04 s there (p = 2, 3), 0.7-1.6 s at
#: 16384 and 14-46 s at 65536: `_eliminate` keeps p^0..p^N.
_MODULUS_BITS = 4096


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test for p < 2^64."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class BaseRing:
    """The ring Z/p^N for a prime p and truncation exponent N >= 1."""

    p: int
    N: int

    def __post_init__(self):
        if self.p >= _P_LIMIT:
            raise ValueError(f"p = {self.p} is not below 2^64")
        if not _is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.N < 1:
            raise ValueError(f"N = {self.N} must be >= 1")
        if self.N * self.p.bit_length() > _MODULUS_BITS:
            raise ValueError(f"p^N = {self.p}^{self.N} is wider than "
                             f"{_MODULUS_BITS} bits")

    @cached_property
    def modulus(self) -> int:
        return self.p ** self.N

    def reduce(self, x: int) -> int:
        return x % self.modulus

    def valuation(self, x: int) -> int:
        """p-adic valuation of the residue class; the zero class has valuation N."""
        x = self.reduce(x)
        if x == 0:
            return self.N
        v = 0
        while x % self.p == 0:
            x //= self.p
            v += 1
        return v

    def is_unit(self, x: int) -> bool:
        return self.reduce(x) % self.p != 0

    def inv(self, x: int) -> int:
        if not self.is_unit(x):
            raise ExactLinalgError(f"{x} is not a unit mod {self.p}^{self.N}")
        return pow(x, -1, self.modulus)


_ONE = ({0: 1},)   # the rows of a 1x1 identity
_EMPTY = {}        # one empty row that zero rows share; never changed


class _DenseRows:
    """A read-only view of a matrix's rows as dense tuples, each built when
    it is read; it supports indexing, ``len``, iteration and ``==``."""

    __slots__ = ("_rows", "_cols")

    def __init__(self, rows: tuple, cols: int):
        self._rows, self._cols = rows, cols

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, i):
        row = [0] * self._cols
        for j, v in self._rows[i].items():
            row[j] = v
        return tuple(row)

    def __iter__(self):
        buf = [0] * self._cols
        for row in self._rows:
            for j, v in row.items():
                buf[j] = v
            yield tuple(buf)
            for j in row:
                buf[j] = 0

    def __eq__(self, other):
        return tuple(self) == other


class PAdicMatrix:
    """Exact matrix over Z/p^N, stored as its nonzero entries.

    ``nonzeros`` has one dict per row, column -> residue in [1, p^N).
    Kernel results share row dicts with their operands, so the dicts are
    read-only: copy one before changing it.  ``entries`` is a view of the
    dense rows.  The constructors reduce and check what they are given;
    kernel results, and the partition differentials, are wrapped by
    :func:`_wrap` as they are.
    """

    __slots__ = ("ring", "rows", "cols", "nonzeros")

    def __init__(self, ring: BaseRing, entries: Sequence[Sequence[int]],
                 rows: int | None = None, cols: int | None = None):
        """The matrix with the given dense rows, reduced mod p^N."""
        if rows is None:
            rows = len(entries)
        if cols is None:
            cols = len(entries[0]) if rows else 0
        m = ring.modulus
        data = []
        for r in entries:
            if len(r) != cols:
                raise ShapeError("ragged rows")
            data.append({j: v for j, x in enumerate(r) if (v := x % m)})
        if len(data) != rows:
            raise ShapeError("row count mismatch")
        _set_ring(self, ring)
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_nonzeros(self, tuple(data))

    def __setattr__(self, *a):
        raise AttributeError("PAdicMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(ring: BaseRing, n: int) -> "PAdicMatrix":
        return _wrap(ring, tuple([{i: 1} for i in range(n)]), n, n)

    @staticmethod
    def zeros(ring: BaseRing, rows: int, cols: int) -> "PAdicMatrix":
        return _wrap(ring, (_EMPTY,) * rows, rows, cols)

    @staticmethod
    def from_sparse_rows(ring: BaseRing, rows: int, cols: int,
                         nonzeros: Sequence[dict]) -> "PAdicMatrix":
        """The matrix whose row i has entry v at column j for each item j: v
        of ``nonzeros[i]``.  Each row is kept as a new dict of its entries
        reduced mod p^N, zeros dropped, so the cost is one reduction per
        listed entry; the dicts given are not kept or changed."""
        if len(nonzeros) != rows:
            raise ShapeError("row count mismatch")
        if any(nonzeros):
            lo = min(map(min, filter(None, nonzeros)))
            hi = max(map(max, filter(None, nonzeros)))
            if lo < 0 or hi >= cols:
                raise ShapeError(f"column {lo if lo < 0 else hi} outside 0..{cols - 1}")
        m = ring.modulus
        return _wrap(ring, tuple([{j: r for j, v in nz.items() if (r := v % m)} if nz
                                  else _EMPTY for nz in nonzeros]), rows, cols)

    # -- basics ------------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def entries(self) -> _DenseRows:
        """The rows as dense tuples, each built when it is read."""
        return _DenseRows(self.nonzeros, self.cols)

    def __eq__(self, other):
        return (isinstance(other, PAdicMatrix) and self.ring == other.ring
                and self.shape == other.shape and self.nonzeros == other.nonzeros)

    def __hash__(self):
        # from the nonzeros as sets, so the order of a row dict's keys,
        # which depends on how the row was built, does not count
        return hash((self.ring, self.shape,
                     tuple(frozenset(r.items()) for r in self.nonzeros)))

    def __repr__(self):
        return f"PAdicMatrix({self.rows}x{self.cols} mod {self.ring.p}^{self.ring.N})"

    def is_zero(self) -> bool:
        return not any(self.nonzeros)

    def _column(self, j: int) -> int:
        if not -self.cols <= j < self.cols:
            raise IndexError(f"column {j} outside 0..{self.cols - 1}")
        return j % self.cols

    def __getitem__(self, ij):
        i, j = ij
        return self.nonzeros[i].get(self._column(j), 0)

    def tolist(self):
        out = []
        for r in self.nonzeros:
            row = [0] * self.cols
            for j, v in r.items():
                row[j] = v
            out.append(row)
        return out

    # -- arithmetic --------------------------------------------------------
    #
    # Every method below builds its result from residues it reduced itself
    # (or took from reduced operands) and wraps it with `_wrap`.

    def __add__(self, other: "PAdicMatrix") -> "PAdicMatrix":
        if self.shape != other.shape:
            raise ShapeError(f"add {self.shape} vs {other.shape}")
        m = self.ring.modulus
        return _wrap(self.ring, tuple(_sub(a, -1, b, m) if a and b else a or b
                                      for a, b in zip(self.nonzeros, other.nonzeros)),
                     self.rows, self.cols)

    def __sub__(self, other: "PAdicMatrix") -> "PAdicMatrix":
        return self + (-other)

    def __neg__(self) -> "PAdicMatrix":
        return self.scale(-1)

    def scale(self, c: int) -> "PAdicMatrix":
        m = self.ring.modulus
        c %= m
        if c == 1:
            return self
        return _wrap(self.ring, tuple({j: w for j, v in r.items() if (w := c * v % m)}
                                      for r in self.nonzeros), self.rows, self.cols)

    def __matmul__(self, other: "PAdicMatrix") -> "PAdicMatrix":
        """The product, as ``kron_apply`` with no identity factors, so its
        cost is per nonzero of both factors.  A 1x1 identity factor returns
        the other factor."""
        if self.cols != other.rows:
            raise ShapeError(f"matmul {self.shape} vs {other.shape}")
        if self.cols == 1 and self.nonzeros == _ONE:
            return other
        return self.kron_apply(1, 1, other)

    def transpose(self) -> "PAdicMatrix":
        out = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.nonzeros):
            for j, v in r.items():
                out[j][i] = v
        return _wrap(self.ring, tuple(out), self.cols, self.rows)

    def kron(self, other: "PAdicMatrix") -> "PAdicMatrix":
        """Kronecker product; basis index (i, k) -> i * other.rows + k.

        Block (i, j) is stored only for a nonzero entry self[i, j]: the row
        of ``other`` shifted for an entry 1, and that row scaled, once per
        distinct entry, for any other.  A 1x1 identity factor returns the
        other factor."""
        if other.cols == 1 and other.nonzeros == _ONE:
            return self
        if self.cols == 1 and self.nonzeros == _ONE:
            return other
        m, width = self.ring.modulus, other.cols
        scaled = [{1: b} for b in other.nonzeros]   # per row of other: x -> x * row
        out = []
        for r in self.nonzeros:
            terms = [(j * width, x) for j, x in r.items()]
            for b, blocks in zip(other.nonzeros, scaled):
                if not b:
                    out.append(_EMPTY)
                    continue
                row = {}
                for off, x in terms:
                    blk = blocks.get(x)
                    if blk is None:
                        blk = blocks[x] = {l: w for l, y in b.items() if (w := x * y % m)}
                    for l, w in blk.items():
                        row[off + l] = w
                out.append(row or _EMPTY)
        return _wrap(self.ring, tuple(out), self.rows * other.rows, self.cols * other.cols)

    def kron_apply(self, pre: int, post: int, S: "PAdicMatrix") -> "PAdicMatrix":
        """(I_pre (x) self (x) I_post) @ S without forming the Kronecker
        product: row (a, r, c) of the result sums x * (row (a, j, c) of S)
        over the nonzero entries x = self[r, j].

        The cost is per nonzero of both factors.  An output row with no term
        is one shared empty row and a term x = 1 alone is the row of S
        itself; any other row sums x * y over the nonzeros y of its rows of
        S and is reduced once.  A 1x1 identity S returns ``self``."""
        width = self.cols * post
        if S.rows != pre * width:
            raise ShapeError(f"kron_apply {pre} (x) {self.shape} (x) {post} "
                             f"vs {S.shape}")
        if S.cols == 1 and S.nonzeros == _ONE:
            return self
        m = self.ring.modulus
        B = S.nonzeros
        out = []
        for a in range(pre):
            for r in self.nonzeros:
                for c in range(a * width, a * width + post):
                    if not r:
                        out.append(_EMPTY)
                        continue
                    if len(r) == 1 and 1 in r.values():
                        out.append(B[c + next(iter(r)) * post])
                        continue
                    acc = {}
                    for j, x in r.items():
                        for k, y in B[c + j * post].items():
                            acc[k] = acc.get(k, 0) + x * y
                    out.append({k: w for k, v in acc.items() if (w := v % m)} or _EMPTY)
        return _wrap(self.ring, tuple(out), pre * self.rows * post, S.cols)

    def hstack(self, other: "PAdicMatrix") -> "PAdicMatrix":
        if self.rows != other.rows:
            raise ShapeError("hstack row mismatch")
        c = self.cols
        return _wrap(self.ring, tuple({**a, **{j + c: v for j, v in b.items()}} if b else a
                                      for a, b in zip(self.nonzeros, other.nonzeros)),
                     self.rows, c + other.cols)

    def select_rows(self, idx: Iterable[int]) -> "PAdicMatrix":
        rows = tuple(self.nonzeros[i] for i in idx)
        return _wrap(self.ring, rows, len(rows), self.cols)

    def select_cols(self, idx: Iterable[int]) -> "PAdicMatrix":
        idx = [self._column(j) for j in idx]
        at = {}            # column of self -> its positions in the result
        for n, j in enumerate(idx):
            at.setdefault(j, []).append(n)
        return _wrap(self.ring, tuple({n: v for j, v in r.items() for n in at.get(j, ())}
                                      for r in self.nonzeros), self.rows, len(idx))


# The slots' own setters, which bypass the class's __setattr__.
_set_ring, _set_rows, _set_cols, _set_nonzeros = (
    PAdicMatrix.__dict__[name].__set__ for name in PAdicMatrix.__slots__)
_new = object.__new__


def _wrap(ring: BaseRing, nonzeros: tuple, rows: int, cols: int) -> PAdicMatrix:
    """Wrap ``nonzeros``, ``rows`` dicts of column (below ``cols``) -> residue
    in [1, p^N), as a matrix without copying, reducing or checking them.
    The kernel calls this on results it built itself, and
    `partition.partition_complex` on rows of residues it wrote itself."""
    self = _new(PAdicMatrix)
    _set_ring(self, ring)
    _set_rows(self, rows)
    _set_cols(self, cols)
    _set_nonzeros(self, nonzeros)
    return self


def _sub(row: dict, q: int, top: dict, mod: int) -> dict:
    """A new dict: ``row - q * top`` mod ``mod``, zeros dropped."""
    out = dict(row)
    for j, y in top.items():
        if w := (out.get(j, 0) - q * y) % mod:
            out[j] = w
        else:
            out.pop(j, None)
    return out


# ---------------------------------------------------------------------------
# Integer Smith normal form.  Nothing in the package calls it: the tests use
# it as an independent reference for the valuations of Smith forms mod p^N.
# ---------------------------------------------------------------------------

def _find_pivot(A, m, n, t):
    best = None
    for i in range(t, m):
        row = A[i]
        for j in range(t, n):
            a = row[j]
            if a:
                a = abs(a)
                if best is None or a < best[0]:
                    best = (a, i, j)
                    if a == 1:
                        return i, j
    return None if best is None else (best[1], best[2])


def integer_smith(mat: Sequence[Sequence[int]], m: int, n: int,
                  transforms: bool = True):
    """Smith normal form over Z.

    Returns (diag, U, V, Vinv) with U*mat*V diagonal = diag (length min(m, n),
    nonnegative, divisibility chain).  U, V unimodular; Vinv = V^{-1}.
    With transforms=False the three transform slots are None (much faster).
    """
    A = [list(r) for r in mat]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if transforms else None
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if transforms else None
    Vi = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if transforms else None

    def row_op(i, k, q):  # row i -= q * row k
        Ai, Ak = A[i], A[k]
        for j in range(n):
            Ai[j] -= q * Ak[j]
        if transforms:
            Ui, Uk = U[i], U[k]
            for j in range(m):
                Ui[j] -= q * Uk[j]

    def col_op(j, l, q):  # col j -= q * col l
        for r in A:
            r[j] -= q * r[l]
        if transforms:
            for r in V:
                r[j] -= q * r[l]
            Vl, Vj = Vi[l], Vi[j]
            for c in range(n):
                Vl[c] += q * Vj[c]

    def row_swap(i, k):
        A[i], A[k] = A[k], A[i]
        if transforms:
            U[i], U[k] = U[k], U[i]

    def col_swap(j, l):
        for r in A:
            r[j], r[l] = r[l], r[j]
        if transforms:
            for r in V:
                r[j], r[l] = r[l], r[j]
            Vi[j], Vi[l] = Vi[l], Vi[j]

    def row_neg(i):
        A[i] = [-x for x in A[i]]
        if transforms:
            U[i] = [-x for x in U[i]]

    t = 0
    limit = min(m, n)
    while t < limit:
        piv = _find_pivot(A, m, n, t)
        if piv is None:
            break
        i, j = piv
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_op(i, t, q)
                    if A[i][t]:
                        row_swap(t, i)
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_op(j, t, q)
                    if A[t][j]:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide the remaining block
            d = A[t][t]
            bad = None
            for i in range(t + 1, m):
                row = A[i]
                for j in range(t + 1, n):
                    if row[j] % d:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_op(t, bad, -1)  # row t += row bad, then restart clearing
        if A[t][t] < 0:
            row_neg(t)
        t += 1

    diag = [A[i][i] if i < t else 0 for i in range(limit)]
    return diag, U, V, Vi


# ---------------------------------------------------------------------------
# The elimination kernel over Z/p^N
# ---------------------------------------------------------------------------

def _eliminate(A: PAdicMatrix):
    """(valuations, left, right) with left @ A @ right diagonal.

    Step t takes the first entry of least valuation v in row-major order of
    the remaining block as pivot, moves it to (t, t), scales its row so the
    pivot is exactly p^v, and clears its column by row operations and its
    row by column operations.  The pivot divides every remaining entry, so
    every quotient is exact and the remaining block keeps valuations >= v.

    The rows are A's own row dicts, each replaced by a new dict when it
    changes, so A is not touched.  They stay keyed by A's columns: a column
    swap only swaps two entries of ``col`` (position -> column of A) and of
    its inverse ``pos``.  Column operations clear only the pivot row, which
    is not read again, so they are made on R alone: ``cols`` holds R's
    columns, one dict per position.  Both transforms are dict rows, wrapped
    as they are.

    The valuations are those of the pivots, nondecreasing; the diagonal is
    zero past them.
    """
    ring = A.ring
    p, N, mod = ring.p, ring.N, ring.modulus
    pw = [p ** k for k in range(N + 1)]
    m, n = A.rows, A.cols
    rows = list(A.nonzeros)
    left = [{i: 1} for i in range(m)]
    cols = [{j: 1} for j in range(n)]
    col, pos = list(range(n)), list(range(n))
    vals = []
    for t in range(min(m, n)):
        best, v = None, N
        for i in range(t, m):
            c, w = None, v        # this row's first entry of least valuation w < v
            for j, x in rows[i].items():
                if x % pw[w]:
                    c, w = j, ring.valuation(x)
                elif c is not None and pos[j] < pos[c] and x % pw[w + 1]:
                    c = j
            if c is not None:
                best, v = (i, c), w
                if v == 0:
                    break
        if best is None:
            break
        i, c = best
        if i != t:
            rows[t], rows[i] = rows[i], rows[t]
            left[t], left[i] = left[i], left[t]
        j = pos[c]
        if j != t:
            col[t], col[j] = c, col[t]
            pos[c], pos[col[j]] = t, j
            cols[t], cols[j] = cols[j], cols[t]
        pv = pw[v]
        top = rows[t]
        u = pow(top[c] // pv, -1, mod)
        if u != 1:
            top = {k: x * u % mod for k, x in top.items()}
            left[t] = {k: x * u % mod for k, x in left[t].items()}
        for i in range(t + 1, m):
            x = rows[i].get(c)
            if x:
                q = x // pv
                rows[i] = _sub(rows[i], q, top, mod)
                left[i] = _sub(left[i], q, left[t], mod)
        for k, x in top.items():
            if k != c:
                j = pos[k]
                cols[j] = _sub(cols[j], x // pv, cols[t], mod)
        vals.append(v)
    return (vals, _wrap(ring, tuple(left), m, m),
            _wrap(ring, tuple(cols), n, n).transpose())


# ---------------------------------------------------------------------------
# Smith normal form, inverses, kernels and solutions over Z/p^N
# ---------------------------------------------------------------------------

class SmithDecomposition(NamedTuple):
    """left @ matrix @ right == diag(invariants) over Z/p^N.

    Each invariant is a canonical p-power residue: 1, p, ..., p^{N-1}, or 0
    (the class of p^N).  Invariants are sorted by increasing valuation.
    """

    invariants: tuple
    left: PAdicMatrix
    right: PAdicMatrix


def smith_normal_form(A: PAdicMatrix) -> SmithDecomposition:
    """Smith form over Z/p^N by minimum-valuation elimination."""
    vals, left, right = _eliminate(A)
    invariants = [A.ring.p ** v for v in vals]
    invariants += [0] * (min(A.rows, A.cols) - len(vals))
    return SmithDecomposition(tuple(invariants), left, right)


def kernel_basis(A: PAdicMatrix) -> PAdicMatrix:
    """Minimal generating set of {x : A x = 0} as a Z/p^N-module.

    One generator per non-unit invariant factor: p^{N-a} * (right col i) for
    invariant p^a, and right col i for invariant 0 / free trailing columns.
    """
    ring = A.ring
    p, N, mod = ring.p, ring.N, ring.modulus
    vals, _, right = _eliminate(A)
    orders = vals + [N] * (A.cols - len(vals))
    gens = [{r: w for r, x in c.items() if (w := x * p ** (N - a) % mod)}
            for c, a in zip(right.transpose().nonzeros, orders) if a]
    return _wrap(ring, tuple(gens), len(gens), A.cols).transpose()


def inverse_mod(A: PAdicMatrix) -> PAdicMatrix:
    """Inverse of a matrix invertible over Z/p^N: right @ left for the Smith
    transforms, which is defined when every invariant factor is 1."""
    if A.cols != A.rows:
        raise ShapeError("inverse of non-square matrix")
    vals, left, right = _eliminate(A)
    if len(vals) < A.rows or any(vals):
        raise ExactLinalgError("matrix is not invertible mod p^N")
    return right @ left


def solve(A: PAdicMatrix, B: PAdicMatrix) -> PAdicMatrix:
    """A canonical solution X of A @ X = B, or InconsistentSystemError.

    With left @ A @ right = diag(p^a_i), row i of left @ B must be divisible
    by p^a_i (and vanish where the diagonal is 0); X = right @ Y for Y the
    quotients."""
    ring = A.ring
    if A.rows != B.rows:
        raise ShapeError(f"solve {A.shape} vs {B.shape}")
    if A.cols == 0:
        if not B.is_zero():
            raise InconsistentSystemError("zero-column system with nonzero rhs")
        return PAdicMatrix.zeros(ring, 0, B.cols)
    vals, left, right = _eliminate(A)
    C = (left @ B).nonzeros
    for i, row in enumerate(C):
        a = vals[i] if i < len(vals) else ring.N
        for j, c in sorted(row.items()):
            if c % ring.p ** a:
                raise InconsistentSystemError(
                    f"no solution: row {i}, col {j} (valuation {ring.valuation(c)} < {a})")
    Y = [{j: c // ring.p ** a for j, c in row.items()} for row, a in zip(C, vals)]
    Y += [_EMPTY] * (A.cols - len(vals))
    return right @ _wrap(ring, tuple(Y), A.cols, B.cols)
