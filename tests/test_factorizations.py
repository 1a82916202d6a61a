"""Maps factored through monomorphisms and epimorphisms in one place.

`modules.lift` (the x with f o x = g, for a mono f) and `modules.descend`
(the x with x o q = g, for an epi q) replace the per-vertex `solve` loops
that homology, good truncation, the induced stable map, the top of the
total cone in `exact_sequence_image`, the Fitting split and `recognize`
each wrote for themselves.  `sub_from_bases` no longer re-reduces bases
that its callers have already made independent.  The old loops and the
old `sub_from_bases` are kept here as references; each factorization is
unique, so the new code must match them entry for entry, and must raise
exactly where they raised.
"""

import itertools

import pytest

from quivhom.complexes import (
    Complex,
    _homology_data,
    identity_chain_map,
    induced_homology_map,
    module_complex,
    projective_resolution,
)
from quivhom.exactlin import Matrix, column_space_basis, nullspace, solve
from quivhom.modules import (
    RepHom,
    Representation,
    cokernel,
    descend,
    hom_space,
    identity_hom,
    image,
    kernel,
    lift,
    projective,
    radical,
    simple,
    sub_from_bases,
)
from tests.test_combinations import corpus_modules

# -- the old loops ---------------------------------------------------------


def old_lift(f, g):
    """The per-vertex solve of f x = g, as each caller wrote it."""
    mats = {}
    for v in f.source.algebra.quiver.vertices:
        x = solve(f.mats[v], g.mats[v])
        if x is None:
            raise ValueError("does not factor through the kernel")
        mats[v] = x
    return mats


def old_descend(q, g):
    """The per-vertex solve of x q = g, through the transposes."""
    mats = {}
    for v in q.source.algebra.quiver.vertices:
        x = solve(q.mats[v].transpose(), g.mats[v].transpose())
        if x is None:
            raise ValueError("not defined on the cokernel")
        mats[v] = x.transpose()
    return mats


def old_sub_from_bases(m, bases):
    """sub_from_bases with its own column_space_basis of every basis."""
    alg = m.algebra
    cleaned = {}
    for v in alg.quiver.vertices:
        b = bases.get(v, Matrix.zeros(alg.p, m.dims[v], 0))
        cleaned[v] = column_space_basis(b)
    dims = {v: cleaned[v].cols for v in alg.quiver.vertices}
    mats = {}
    for n, s, t in alg.quiver.arrows:
        x = solve(cleaned[t], m.mats[n] @ cleaned[s])
        if x is None:
            raise ValueError(f"bases not stable under arrow {n}")
        mats[n] = x
    sub = Representation(alg, dims, mats, check=False)
    return sub, RepHom(sub, m, cleaned, check=False)


def old_induced_homology_map(f, i):
    """H^i(f) through a section of the homology projection."""
    hx, _, zix, px = _homology_data(f.source, i)
    _, _, ziy, py = _homology_data(f.target, i)
    p = f.source.algebra.p
    mats = {}
    for v in f.source.algebra.quiver.vertices:
        zmap = solve(ziy.mats[v], f.map(i).mats[v] @ zix.mats[v])
        sect = solve(px.mats[v], Matrix.identity(p, hx.dims[v]))
        mats[v] = py.mats[v] @ zmap @ sect
    return mats


# -- comparisons -------------------------------------------------------------


def outcome(fn, *args):
    """The vertex matrices fn returns, or None when it raises ValueError."""
    try:
        got = fn(*args)
    except ValueError:
        return None
    return got.mats if isinstance(got, RepHom) else got


def check_lift(f, g, tally):
    got = outcome(lift, f, g)
    assert got == outcome(old_lift, f, g)
    tally[got is None] += 1


def check_descend(q, g, tally):
    got = outcome(descend, q, g)
    assert got == outcome(old_descend, q, g)
    tally[got is None] += 1


def check_sub(m, bases):
    sub, incl = sub_from_bases(m, bases)
    old_sub, old_incl = old_sub_from_bases(m, bases)
    assert sub.dims == old_sub.dims and sub.mats == old_sub.mats
    assert incl.mats == old_incl.mats and incl.target is m


def factor_inputs(n, p, count=30):
    """Per algebra group of corpus modules, about `count` Hom-basis maps
    h : a -> b, spread evenly over all of them, each with the Hom-basis
    maps into a and out of b from every module of the group."""
    for group in corpus_modules(n, p):
        homs = {(i, j): hom_space(a, b) for (i, a), (j, b) in itertools.product(enumerate(group), repeat=2)}
        maps = [(i, j, h) for (i, j), basis in homs.items() for h in basis]
        for i, j, h in maps[:: max(1, len(maps) // count)]:
            into_a = [u for k in range(len(group)) for u in homs[(k, i)]]
            out_of_b = [w for k in range(len(group)) for w in homs[(j, k)]]
            yield group, h, into_a, out_of_b


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [3, 101])
def test_lift_and_descend_are_the_old_loops(n, p):
    lifts, descents = [0, 0], [0, 0]
    for _, h, into_a, out_of_b in factor_inputs(n, p):
        _, kincl = kernel(h)
        im, iincl = image(h)
        _, q = cokernel(h)
        corestriction = RepHom(h.source, im, old_lift(iincl, h), check=False)
        # u : X -> a factors through ker h exactly when h u = 0
        for u in into_a:
            check_lift(kincl, u, lifts)
        check_lift(kincl, kincl, lifts)
        check_lift(iincl, h, lifts)
        # w : b -> Y descends to coker h exactly when w h = 0
        for w in out_of_b:
            check_descend(q, w, descents)
            check_descend(corestriction, w.compose(h), descents)
        check_descend(q, q, descents)
    assert min(lifts) and min(descents), "both factoring and non-factoring maps are seen"


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [3, 101])
def test_homology_factorizations_are_the_old_loops(n, p):
    """The complex a -h-> b -y q-> c, with q the cokernel projection of h
    and y a Hom-basis map out of coker h, at each of its degrees."""
    lifts, descents = [0, 0], [0, 0]
    homology = 0
    for group, h, _, _ in factor_inputs(n, p, count=10):
        cok, q = cokernel(h)
        ys = [y for c in group for y in hom_space(cok, c)]
        for y in ys[:: max(1, len(ys) // 3)]:
            cx = Complex(h.source.algebra, {0: h.source, 1: h.target, 2: y.target}, {0: h, 1: y.compose(q)})
            ident = identity_chain_map(cx)
            for i in range(cx.lo, cx.hi + 1):
                hmod, z, zincl, projh = _homology_data(cx, i)
                homology += hmod.total_dim()
                check_lift(zincl, cx.diff(i - 1), lifts)
                check_lift(zincl, ident.map(i), lifts)
                check_descend(projh, projh, descents)
                for w in hom_space(z, y.target):
                    check_descend(projh, w, descents)
                assert induced_homology_map(ident, i)[2] == old_induced_homology_map(ident, i)
    assert homology and min(lifts) and min(descents)


@pytest.mark.parametrize("n", [1, 2])
def test_induced_homology_map_of_resolutions_is_the_section_formula(n):
    """H^i of the comparison map of a projective resolution, which is a
    quasi-isomorphism onto the stalk complex of each corpus module."""
    seen = 0
    for group in corpus_modules(n):
        for m in group:
            _, f = projective_resolution(module_complex(m), -3)
            for i in range(-2, 1):
                assert induced_homology_map(f, i)[2] == old_induced_homology_map(f, i)
                seen += 1
    assert seen


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [3, 101])
def test_sub_from_bases_is_the_old_one(n, p):
    """Kernel (nullspace) and image (column_space_basis) bases of every
    Hom-basis map, and the radical bases of every module."""
    for group, h, _, _ in factor_inputs(n, p):
        verts = h.source.algebra.quiver.vertices
        check_sub(h.source, {v: nullspace(h.mats[v]) for v in verts})
        check_sub(h.target, {v: column_space_basis(h.mats[v]) for v in verts})
    for group in corpus_modules(n, p):
        for m in group:
            check_sub(m, radical(m)[1].mats)


def test_lift_and_descend_raise_off_their_image(A1):
    # P_v -> S_v is an epi with kernel rad P_v; the identity of P_v is
    # nonzero on that kernel, and does not factor through its inclusion
    for v in A1.quiver.vertices:
        pv = projective(A1, v)
        top = hom_space(pv, simple(A1, v))[0]
        _, kincl = kernel(top)
        if kincl.source.is_zero():
            continue
        with pytest.raises(ValueError):
            descend(top, identity_hom(pv))
        with pytest.raises(ValueError):
            lift(kincl, identity_hom(pv))
        assert descend(top, top).mats == identity_hom(simple(A1, v)).mats
