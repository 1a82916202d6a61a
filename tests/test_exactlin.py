import numpy as np
import pytest

from quivhom.exactlin import (
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
