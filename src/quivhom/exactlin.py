"""Exact dense linear algebra over a prime field F_p.

Everything downstream (Hom spaces, Ext groups, resolutions) reduces to
rank / nullspace / solve over F_p.  Matrices are stored dense, row-major,
as read-only int64 numpy arrays with entries reduced to [0, p).  All
arithmetic is exact; p defaults to 101 and must be an odd prime at most
MAX_PRIME, so that a product of two matrices with inner dimension up to
MAX_DIM, whose entries each sum up to MAX_DIM * (p-1)^2, stays inside
int64.

`Matrix(p, data)` is the checked entry for data from outside: it
requires a 2-d array and reduces it mod p.  The matrices this module
builds itself (sums, products, transposes, blocks and the results of
`rref`, `nullspace`, `solve`, `column_space_basis`) are reduced exactly
once, by the arithmetic that made them, and skip that check.

Most eliminations downstream are tiny (per-vertex blocks of a few rows),
so `rref` splits by size: a matrix with no rows or no columns is already
reduced and is returned as it is, one of at most _SMALL_RREF_CELLS cells
is eliminated on Python ints, where numpy's per-call overhead would
dominate, and a larger one by vectorized numpy row operations.  The
reduced echelon form is unique, so both loops give the same R and the
same pivots.

0 x n and n x 0 matrices are legal and behave as zero maps.
"""

from __future__ import annotations

import numpy as np

DEFAULT_PRIME = 101
MAX_DIM = 2**20  # largest inner dimension of a product kept exact
MAX_PRIME = 2965819  # the largest prime p with MAX_DIM * (p-1)^2 < 2^63
# `rref` eliminates a matrix of at most this many cells on Python ints.
# There numpy's per-call overhead costs more than the arithmetic: on
# dense random matrices the two loops break even near 8 x 8, but the
# sparse ones the package eliminates are faster on Python ints at every
# size up to this cutoff and beyond it
_SMALL_RREF_CELLS = 256


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> int:
    # the bound first: trial division of a huge p would not finish
    if p > MAX_PRIME:
        raise ValueError(f"field order {p} exceeds MAX_PRIME = {MAX_PRIME}: matrix products would overflow int64")
    if not _is_prime(p) or p == 2:
        raise ValueError(f"field order must be an odd prime, got {p}")
    return p


class Matrix:
    """Immutable dense matrix over F_p.

    `data` is always a 2-d int64 array with entries in [0, p).
    """

    __slots__ = ("p", "data")

    def __init__(self, p: int, data):
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"matrix data must be 2-d, got shape {arr.shape}")
        self.p = p
        self.data = arr % p
        self.data.setflags(write=False)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(p: int, rows: int, cols: int) -> "Matrix":
        return _wrap(p, np.zeros((rows, cols), dtype=np.int64))

    @staticmethod
    def identity(p: int, n: int) -> "Matrix":
        return _wrap(p, np.eye(n, dtype=np.int64))

    @staticmethod
    def random(p: int, rows: int, cols: int, rng: np.random.Generator) -> "Matrix":
        return Matrix(p, rng.integers(0, p, size=(rows, cols)))

    # -- shape --------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def is_zero(self) -> bool:
        return not self.data.any()

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        return _wrap(self.p, (self.data + other.data) % self.p)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return _wrap(self.p, (self.data - other.data) % self.p)

    def __neg__(self) -> "Matrix":
        return _wrap(self.p, -self.data % self.p)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape()} @ {other.shape()}")
        return _wrap(self.p, (self.data @ other.data) % self.p)

    def scale(self, c: int) -> "Matrix":
        return _wrap(self.p, self.data * (c % self.p) % self.p)

    def transpose(self) -> "Matrix":
        return _wrap(self.p, self.data.T)

    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.p == other.p
            and self.shape() == other.shape()
            and np.array_equal(self.data, other.data)
        )

    def __hash__(self):
        return hash((self.p, self.data.tobytes(), self.shape()))

    def __repr__(self) -> str:
        return f"Matrix(p={self.p}, {self.data.tolist()})"

    # -- block assembly -----------------------------------------------

    @staticmethod
    def hstack(mats: list["Matrix"]) -> "Matrix":
        if not mats:
            raise ValueError("hstack of empty list")
        return _wrap(mats[0].p, np.hstack([m.data for m in mats]))

    @staticmethod
    def block_diag(p: int, mats: list["Matrix"]) -> "Matrix":
        rows = sum(m.rows for m in mats)
        cols = sum(m.cols for m in mats)
        out = np.zeros((rows, cols), dtype=np.int64)
        r = c = 0
        for m in mats:
            out[r : r + m.rows, c : c + m.cols] = m.data
            r += m.rows
            c += m.cols
        return _wrap(p, out)

    def column(self, j: int) -> "Matrix":
        return _wrap(self.p, self.data[:, j : j + 1])


def _wrap(p: int, arr: np.ndarray) -> Matrix:
    """A Matrix over `arr` with no conversion, copy or reduction.  `arr`
    must be a 2-d int64 array with entries in [0, p) that nothing else
    writes: a fresh array, or a view of a read-only one."""
    m = Matrix.__new__(Matrix)
    m.p = p
    m.data = arr
    arr.setflags(write=False)
    return m


def _inv_mod(x: int, p: int) -> int:
    return pow(int(x) % p, p - 2, p)


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form.

    Returns (R, pivot_cols).  Pivot entries are normalized to 1 and are
    the only nonzero entries in their columns; rank = len(pivot_cols).
    """
    p = m.p
    nrows, ncols = m.data.shape
    if nrows == 0 or ncols == 0:
        return m, []
    pivots: list[int] = []
    r = 0
    if nrows * ncols <= _SMALL_RREF_CELLS:
        rows = m.data.tolist()
        for c in range(ncols):
            for i in range(r, nrows):
                if rows[i][c]:
                    break
            else:
                continue
            rows[r], rows[i] = rows[i], rows[r]
            # the rows from r on are 0 left of column c, so is the pivot
            # row, and each row changes only from column c on
            inv = pow(rows[r][c], p - 2, p)
            tail = [x * inv % p for x in rows[r][c:]]
            rows[r][c:] = tail
            for k, row in enumerate(rows):
                f = row[c]
                if f and k != r:
                    row[c:] = [(x - f * y) % p for x, y in zip(row[c:], tail)]
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return _wrap(p, np.array(rows, dtype=np.int64)), pivots
    a = m.data.copy()
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * _inv_mod(a[r, c], p)) % p
        col = a[:, c].copy()
        col[r] = 0
        # eliminate column c from every other row in one vectorized update
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return _wrap(p, a), pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def nullspace(m: Matrix) -> Matrix:
    """Basis of the right kernel, returned as the columns of a matrix.

    The basis is in reduced-echelon normal form: for each free column f
    there is one basis vector with a 1 in position f and support only on
    pivot positions otherwise.  dim = cols - rank.
    """
    p = m.p
    r, pivots = rref(m)
    if not pivots:
        return Matrix.identity(p, m.cols)
    is_pivot = set(pivots)
    free = [c for c in range(m.cols) if c not in is_pivot]
    basis = np.zeros((m.cols, len(free)), dtype=np.int64)
    if free:
        basis[free, np.arange(len(free))] = 1
        basis[pivots] = -r.data[: len(pivots), free] % p
    return _wrap(p, basis)


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """Some x with a @ x = b, or None if the system is inconsistent.

    b may have several columns; x is solved column-wise in one reduction.
    """
    if a.rows != b.rows:
        raise ValueError(f"solve: row mismatch {a.rows} vs {b.rows}")
    p = a.p
    if a.cols == 0:
        return Matrix.zeros(p, 0, b.cols) if b.is_zero() else None
    aug = Matrix.hstack([a, b])
    r, pivots = rref(aug)
    if any(c >= a.cols for c in pivots):
        return None
    x = np.zeros((a.cols, b.cols), dtype=np.int64)
    x[pivots] = r.data[: len(pivots), a.cols :]
    return _wrap(p, x)


def inverse(m: Matrix) -> Matrix | None:
    """Two-sided inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        return None
    x = solve(m, Matrix.identity(m.p, m.rows))
    if x is None:
        return None
    return x


def extending_columns(a: Matrix, b: Matrix) -> tuple[int, list[int]]:
    """(rank a, the columns k of b that are independent of the columns of
    a and of b's columns before k), from the pivots of one rref of [a | b]."""
    pivots = rref(Matrix.hstack([a, b]))[1]
    return sum(1 for c in pivots if c < a.cols), [c - a.cols for c in pivots if c >= a.cols]


def column_space_basis(m: Matrix) -> Matrix:
    """Basis of the column space of m, in the reduced-echelon normal form
    `nullspace` gives: basis vector k is 1 at its last nonzero entry F[k],
    every basis vector is 0 at the other entries of F, and F ascends.  It
    depends only on the span.  One rref of the transpose with the
    coordinates reversed (the last nonzero entries turn into the pivots),
    read back in reverse."""
    r, pivots = rref(_wrap(m.p, m.data.T[:, ::-1]))
    return _wrap(m.p, r.data[: len(pivots)][::-1, ::-1].T)


def left_nullspace(m: Matrix) -> Matrix:
    """Basis of {y : y m = 0}, as rows of a matrix."""
    return nullspace(m.transpose()).transpose()


def in_column_span(basis: Matrix, v: Matrix) -> bool:
    return solve(basis, v) is not None

