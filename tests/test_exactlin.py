import numpy as np
import pytest

from quivhom import exactlin
from quivhom.exactlin import (
    MAX_PRIME,
    Matrix,
    column_space_basis,
    in_column_span,
    inverse,
    left_nullspace,
    nullspace,
    rank,
    rref,
    solve,
)


def M(p, rows):
    return Matrix(p, np.array(rows, dtype=np.int64).reshape(len(rows), -1))


def test_rref_identity_fixed():
    m = Matrix.identity(5, 2)
    r, piv = rref(m)
    assert r == m
    assert piv == [0, 1]


def test_rref_zero_fixed():
    m = Matrix.zeros(5, 3, 4)
    r, piv = rref(m)
    assert r == m
    assert piv == []


def test_rref_dependent_rows_mod5():
    # hand row reduction: row2 = 2*row1
    m = M(5, [[1, 2], [2, 4]])
    r, piv = rref(m)
    assert r == M(5, [[1, 2], [0, 0]])
    assert piv == [0]


def test_nullspace_identity_empty():
    assert nullspace(Matrix.identity(7, 4)).cols == 0


def test_nullspace_zero_full():
    ns = nullspace(Matrix.zeros(7, 2, 3))
    assert ns.cols == 3
    assert ns == Matrix.identity(7, 3)


def test_nullspace_line_mod3():
    # all 9 vectors over F_3: kernel of [1 1] is {(0,0),(1,2),(2,1)}
    ns = nullspace(M(3, [[1, 1]]))
    assert ns.cols == 1
    expected = M(3, [[1], [2]])
    assert solve(ns, expected) is not None
    assert solve(expected, ns) is not None


def test_solve_identity():
    b = M(5, [[3], [4]])
    assert solve(Matrix.identity(5, 2), b) == b


def test_solve_inconsistent():
    assert solve(Matrix.zeros(5, 2, 2), M(5, [[1], [0]])) is None


def test_solve_scalar_mod5():
    # 2 * 3 = 6 = 1 mod 5
    x = solve(M(5, [[2]]), M(5, [[1]]))
    assert x == M(5, [[3]])


def test_empty_shapes_act_as_zero():
    a = Matrix.zeros(5, 0, 3)
    b = Matrix.zeros(5, 3, 0)
    assert (b @ a).shape() == (3, 3)
    assert (a @ b).shape() == (0, 0)
    assert rank(a) == 0
    assert nullspace(a).cols == 3
    assert solve(b, Matrix.zeros(5, 3, 2)) is not None


def test_rref_idempotent_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = Matrix.random(101, rng.integers(0, 6), rng.integers(0, 6), rng)
        r, _ = rref(m)
        r2, _ = rref(r)
        assert r == r2


def test_rank_nullity_random():
    rng = np.random.default_rng(8)
    for _ in range(50):
        m = Matrix.random(101, rng.integers(0, 7), rng.integers(0, 7), rng)
        assert rank(m) + nullspace(m).cols == m.cols
        ns = nullspace(m)
        if ns.cols:
            assert (m @ ns).is_zero()


def test_solve_verifies_random():
    rng = np.random.default_rng(9)
    hits = 0
    for _ in range(60):
        a = Matrix.random(101, rng.integers(1, 6), rng.integers(1, 6), rng)
        b = Matrix.random(101, a.rows, 2, rng)
        x = solve(a, b)
        if x is not None:
            hits += 1
            assert a @ x == b
    assert hits > 0


def test_solve_hits_constructed_solutions():
    rng = np.random.default_rng(10)
    for _ in range(40):
        a = Matrix.random(101, 5, 3, rng)
        x0 = Matrix.random(101, 3, 2, rng)
        b = a @ x0
        x = solve(a, b)
        assert x is not None
        assert a @ x == b


def test_inverse_random():
    rng = np.random.default_rng(11)
    found = 0
    for _ in range(30):
        m = Matrix.random(101, 4, 4, rng)
        inv = inverse(m)
        if inv is not None:
            found += 1
            assert m @ inv == Matrix.identity(101, 4)
            assert inv @ m == Matrix.identity(101, 4)
    assert found > 20


def test_column_space_and_span():
    # row2 - 2*row1 = [0, 0, 1] over F_5, so rank 2
    m = M(5, [[1, 2, 3], [2, 4, 2]])
    cs = column_space_basis(m)
    assert cs.cols == rank(m) == 2
    for j in range(m.cols):
        assert in_column_span(cs, m.column(j))


def test_left_nullspace():
    m = M(5, [[1, 2], [2, 4], [0, 0]])
    ln = left_nullspace(m)
    assert ln.rows == 2
    assert (ln @ m).is_zero()


def test_prime_validation():
    from quivhom.exactlin import check_prime

    with pytest.raises(ValueError):
        check_prime(4)
    with pytest.raises(ValueError):
        check_prime(2)
    assert check_prime(101) == 101


def test_prime_bound():
    from quivhom.exactlin import MAX_DIM, MAX_PRIME, _is_prime, check_prime

    # the largest prime whose products of MAX_DIM terms stay inside int64
    assert MAX_DIM * (MAX_PRIME - 1) ** 2 < 2**63
    nxt = next(q for q in range(MAX_PRIME + 1, 2 * MAX_PRIME) if _is_prime(q))
    assert MAX_DIM * (nxt - 1) ** 2 >= 2**63
    for p in (3, 5, 101, MAX_PRIME):
        assert check_prime(p) == p
    for p in (nxt, 2**31 - 1):
        with pytest.raises(ValueError, match="MAX_PRIME"):
            check_prime(p)


def test_matmul_exact_at_the_largest_prime():
    from quivhom.exactlin import MAX_DIM, MAX_PRIME

    p, n = MAX_PRIME, MAX_DIM
    a = Matrix(p, np.full((1, n), p - 1))
    b = Matrix(p, np.full((n, 1), p - 1))
    assert (a @ b).data[0, 0] == n * (p - 1) ** 2 % p


# -- the two elimination loops of rref, against a Gauss-Jordan reference ------

PYTHON_LOOP, NUMPY_LOOP = 10**9, 0  # values of the cell cutoff that force each loop


def ref_rref(p, a):
    """Textbook Gauss-Jordan on lists of Python ints: (R as lists, pivots)."""
    a = [[x % p for x in row] for row in a]
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        rows = [i for i in range(r, len(a)) if a[i][c]]
        if not rows:
            continue
        a[r], a[rows[0]] = a[rows[0]], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r:
                a[i] = [(x - a[i][c] * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def ref_nullspace(p, a, ncols):
    r, pivots = ref_rref(p, a)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for row, pc in enumerate(pivots):
            v[pc] = -r[row][f] % p
        basis.append(v)
    return [list(col) for col in zip(*basis)] if basis else [[] for _ in range(ncols)]


def ref_solve(p, a, b):
    """The solution whose free coordinates are 0, or None."""
    n = len(a[0])
    r, pivots = ref_rref(p, [ra + rb for ra, rb in zip(a, b)])
    if any(c >= n for c in pivots):
        return None
    x = [[0] * len(b[0]) for _ in range(n)]
    for row, pc in enumerate(pivots):
        x[pc] = r[row][n:]
    return x


def diff_matrices(p):
    """Matrices on both sides of the cell cutoff: empty, zero, dense,
    sparse, rank-deficient, all p-1, wide and tall."""
    rng = np.random.default_rng(p % 1000)
    mats = [np.zeros((0, 4)), np.zeros((4, 0)), np.zeros((0, 0))]
    for rows, cols in [(1, 1), (2, 3), (3, 2), (4, 4), (8, 8), (16, 16), (16, 17), (3, 40), (40, 3), (20, 20)]:
        k = max(1, min(rows, cols) // 2)
        mats += [
            np.zeros((rows, cols)),
            rng.integers(0, p, size=(rows, cols)),
            rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < 0.15),
            rng.integers(0, p, size=(rows, k)) @ rng.integers(0, 2, size=(k, cols)),
            np.full((rows, cols), p - 1),
        ]
    return [Matrix(p, a) for a in mats]


@pytest.mark.parametrize("p", [3, MAX_PRIME])
def test_rref_loops_agree(monkeypatch, p):
    cells = {m.rows * m.cols for m in diff_matrices(p)}
    assert min(cells) == 0 and max(cells) > exactlin._SMALL_RREF_CELLS
    assert any(0 < c <= exactlin._SMALL_RREF_CELLS for c in cells)
    for m in diff_matrices(p):
        results = []
        for cutoff in (PYTHON_LOOP, NUMPY_LOOP):
            monkeypatch.setattr(exactlin, "_SMALL_RREF_CELLS", cutoff)
            results.append(rref(m))
        (r_py, piv_py), (r_np, piv_np) = results
        assert r_py == r_np and piv_py == piv_np, m
        r_ref, piv_ref = ref_rref(p, m.data.tolist())
        assert r_py.data.tolist() == r_ref and piv_py == piv_ref, m


@pytest.mark.parametrize("cutoff", [PYTHON_LOOP, NUMPY_LOOP], ids=["python", "numpy"])
@pytest.mark.parametrize("p", [3, MAX_PRIME])
def test_exactlin_matches_gauss_jordan(monkeypatch, p, cutoff):
    monkeypatch.setattr(exactlin, "_SMALL_RREF_CELLS", cutoff)
    rng = np.random.default_rng(p % 1000 + 1)
    for m in diff_matrices(p):
        assert nullspace(m).data.tolist() == ref_nullspace(p, m.data.tolist(), m.cols), m
        if m.cols == 0:
            continue
        for b in (m @ Matrix.random(p, m.cols, 2, rng), Matrix.random(p, m.rows, 2, rng)):
            x = solve(m, b)
            if m.rows == 0:
                assert x == Matrix.zeros(p, m.cols, 2)
                continue
            expected = ref_solve(p, m.data.tolist(), b.data.tolist())
            assert (x is None and expected is None) or x.data.tolist() == expected, m
        if m.rows == m.cols:
            n = m.rows
            inv = ref_solve(p, m.data.tolist(), np.eye(n, dtype=np.int64).tolist())
            got = inverse(m)
            assert (got is None and inv is None) or got.data.tolist() == inv, m
    # an invertible matrix on each side of the cutoff
    for n in (3, 20):
        m = Matrix(p, np.triu(rng.integers(1, p, size=(n, n))))
        m = m @ Matrix(p, np.tril(rng.integers(1, p, size=(n, n))))
        got = inverse(m)
        assert got is not None
        assert got.data.tolist() == ref_solve(p, m.data.tolist(), np.eye(n, dtype=np.int64).tolist())


# -- every result of the module is a reduced, read-only 2-d int64 matrix -----


def assert_reduced(m, p):
    assert isinstance(m, Matrix) and m.p == p
    assert m.data.dtype == np.int64 and m.data.ndim == 2
    assert not m.data.flags.writeable
    assert ((m.data >= 0) & (m.data < p)).all()


@pytest.mark.parametrize("cutoff", [PYTHON_LOOP, NUMPY_LOOP], ids=["python", "numpy"])
def test_every_result_is_reduced_and_read_only(monkeypatch, cutoff):
    # entries p - 1 at the largest prime: differences, negations and
    # products pass through negative and large intermediates
    monkeypatch.setattr(exactlin, "_SMALL_RREF_CELLS", cutoff)
    p = MAX_PRIME
    rng = np.random.default_rng(12)
    a = Matrix(p, np.full((3, 4), p - 1))
    b = Matrix(p, np.full((4, 2), p - 1))
    z = Matrix.zeros(p, 3, 4)
    sq = Matrix(p, np.full((3, 3), p - 1) - np.eye(3, dtype=np.int64))  # invertible
    results = [
        a,
        Matrix(p, [[-1, 2 * p + 1]]),
        z,
        Matrix.identity(p, 3),
        Matrix.random(p, 3, 4, rng),
        a + a,
        z - a,
        a - a.scale(2),
        -a,
        a @ b,
        a.scale(-1),
        a.scale(p + 1),
        a.transpose(),
        a.column(2),
        Matrix.hstack([a, z]),
        Matrix.block_diag(p, [a, b]),
        rref(a)[0],
        rref(Matrix.zeros(p, 0, 3))[0],
        nullspace(a),
        nullspace(Matrix.zeros(p, 0, 3)),
        solve(a, a @ b.scale(-1)),
        solve(Matrix.zeros(p, 3, 0), Matrix.zeros(p, 3, 2)),
        inverse(sq),
        inverse(sq.scale(-1)),
        column_space_basis(a),
        column_space_basis(Matrix.zeros(p, 3, 0)),
        left_nullspace(a),
    ]
    for m in results:
        assert_reduced(m, p)
    assert (a @ b).data[0, 0] == 4 * (p - 1) ** 2 % p
    assert inverse(sq) @ sq == Matrix.identity(p, 3)
