import pytest

from quivhom.algebra import (
    BoundQuiverAlgebra,
    NonAdmissibleError,
    Quiver,
    dual_numbers,
    linear_algebra_An,
    one_vertex_algebra,
)
from tests.conftest import gentle_tree_algebra


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver(["0", "0"], [])
    with pytest.raises(ValueError):
        Quiver(["0"], [("a", "0", "1")])
    with pytest.raises(ValueError):
        Quiver(["0", "1"], [("a", "0", "1"), ("a", "1", "0")])


def test_no_arrow_algebra_trivial_paths():
    alg = BoundQuiverAlgebra(Quiver(["x", "y"], []), [])
    assert alg.dim == 2
    assert all(len(p[1]) == 0 for p in alg.path_basis)


def test_gentle_tree_dimension_by_enumeration(A1):
    # oracle: enumerate all composable words up to length 2 by hand;
    # the single length-2 word (b1, a3) is killed, so 4 + 3 + 0 = 7
    words = {(): 4}  # trivial paths
    one = ["a1", "a3", "b1"]
    two = [("b1", "a3")]  # only composable pair
    expected = 4 + len(one) + len(two) - 1
    assert A1.dim == expected == 7


def test_linear_A4_path_count(B1):
    # 4 + 3 + 2 + 1 paths in the linear quiver on 4 vertices
    assert B1.dim == 10


def test_gentle_tree_n2_dimension():
    # trivial 6 + arrows 5 + the single surviving chain (b1, b3)
    alg = gentle_tree_algebra(2)
    assert alg.dim == 12


def test_dual_numbers_doubles_dimension(A1, B1, Lam1, Gam1):
    assert Lam1.dim == 2 * A1.dim == 14
    assert Gam1.dim == 2 * B1.dim == 20


def test_dual_numbers_of_field():
    ke = dual_numbers()
    assert ke.dim == 2
    v = ke.quiver.vertices[0]
    eps = ke.arrow(f"eps_{v}")
    assert ke.mul(eps, eps) == {}


def test_normal_form_commutation(Lam1):
    # eps commutes across arrows: (a1 then eps_0) == (eps_1 then a1)
    lhs = Lam1.nf({("1", ("a1", "eps_0")): 1})
    rhs = Lam1.nf({("1", ("eps_1", "a1")): 1})
    assert lhs == rhs and len(lhs) == 1


def test_relation_kills_composite(A1):
    assert A1.nf({("1", ("b1", "a3")): 1}) == {}


def test_mul_on_basis_associative(A1, Lam1):
    for alg in (A1, Lam1):
        basis = alg.path_basis
        # spot-check associativity on all triples of a small algebra
        for x in basis:
            for y in basis:
                for z in basis:
                    xy_z = alg.mul(alg.mul_basis(x, y), {z: 1})
                    x_yz = alg.mul({x: 1}, alg.mul_basis(y, z))
                    assert xy_z == x_yz


def test_unit_elements(A1):
    one = A1.add(*[A1.e(v) for v in A1.quiver.vertices])
    for pth in A1.path_basis:
        assert A1.mul(one, {pth: 1}) == {pth: 1}
        assert A1.mul({pth: 1}, one) == {pth: 1}


def test_trivial_path_needs_a_vertex():
    alg = linear_algebra_An(3)
    assert alg.e("0") == {("0", ()): 1}
    for name in ("b0", "3"):
        with pytest.raises(ValueError, match="unknown vertex"):
            alg.e(name)


def test_opposite_involution(A1):
    op = A1.opposite()
    assert op.dim == A1.dim
    assert op.opposite().quiver == A1.quiver
    # arrows reversed
    assert op.quiver.source("a1") == "0" and op.quiver.target("a1") == "1"


def test_opposite_relations_reversed(A1):
    op = A1.opposite()
    assert op.nf({("2", ("a3", "b1")): 1}) == {}


def test_non_admissible_detected():
    # a loop with no relations has unbounded powers
    q = Quiver(["0"], [("l", "0", "0")])
    with pytest.raises(NonAdmissibleError):
        BoundQuiverAlgebra(q, [], length_cap=12)


def test_relation_validation():
    q = Quiver(["0", "1"], [("a", "0", "1")])
    with pytest.raises(ValueError):
        BoundQuiverAlgebra(q, [{("0", ("a",)): 1}])  # length-1 relation


def test_one_vertex():
    assert one_vertex_algebra().dim == 1


def test_basis_deterministic_order(A1):
    lens = [len(p[1]) for p in A1.path_basis]
    assert lens == sorted(lens)
