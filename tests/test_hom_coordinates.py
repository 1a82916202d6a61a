"""Hom spaces and their coordinates are read off, not solved for.

The references kept here are the code paths they replaced: the
Kronecker-product constraint system and its nullspace for every
hom_space, one solve per composite for coordinates in a Hom basis, and
the greedy rank loops that picked homotopy classes and a complement of
the radical of End.
"""

import numpy as np
import pytest

from quivhom.algebra import dual_numbers, linear_algebra_An
from quivhom.complexes import HomEngine, HomKResult, hom_k_dim, module_complex
from quivhom.corpus import corpus, interval_module
from quivhom.exactlin import MAX_PRIME, Matrix, extending_columns, nullspace, rank, solve
from quivhom.homological import _end_radical, _end_structure, _strict_maps, decompose
from quivhom.modules import (
    ProjSummands,
    RepHom,
    Representation,
    _flat_offsets,
    _hom_system,
    direct_sum,
    emat_compose,
    flatten_blocks,
    hom_frame,
    hom_space,
    projective,
    simple,
)
from tests.conftest import random_module, random_three_term_complex, random_two_term_complex


def reference_system(m, n):
    """The constraint system of Hom(m, n) built from np.kron blocks."""
    alg = m.algebra
    p = alg.p
    verts = alg.quiver.vertices
    sizes = {v: n.dims[v] * m.dims[v] for v in verts}
    offs, off = {}, 0
    for v in verts:
        offs[v] = off
        off += sizes[v]
    rows = []
    for a, s, t in alg.quiver.arrows:
        r = n.dims[t] * m.dims[s]
        if r == 0:
            continue
        block = np.zeros((r, off), dtype=np.int64)
        if sizes[s]:
            block[:, offs[s] : offs[s] + sizes[s]] = np.kron(n.mats[a].data, np.eye(m.dims[s], dtype=np.int64))
        if sizes[t]:
            block[:, offs[t] : offs[t] + sizes[t]] = (
                block[:, offs[t] : offs[t] + sizes[t]]
                - np.kron(np.eye(n.dims[t], dtype=np.int64), m.mats[a].data.T)
            ) % p
        rows.append(block)
    return (Matrix(p, np.vstack(rows)) if rows else None), offs, off


def reference_hom_space(m, n):
    """Flat basis vectors of Hom(m, n): the nullspace of the Kronecker system."""
    sysmat, _, total = reference_system(m, n)
    if total == 0:
        return []
    ns = nullspace(sysmat) if sysmat is not None else Matrix.identity(m.p, total)
    return [ns.data[:, k] for k in range(ns.cols)]


def reference_coordinates(basis, vec, p):
    """Coordinates of one flat vector in a Hom basis, by a solve."""
    if not basis:
        return np.zeros(0, dtype=np.int64) if not vec.any() else None
    x = solve(Matrix(p, np.stack([b.flat() for b in basis], axis=1)), Matrix(p, vec.reshape(-1, 1)))
    return None if x is None else x.data[:, 0]


def pair_basis(eng, i, j):
    """The Hom basis of a degree pair, as the maps of hom_space."""
    return hom_space(eng.c.term(i), eng.d.term(j))


def reference_boundary(eng, m):
    """D_m with one solve per basis vector and target block."""
    src, tgt = eng.layout(m), eng.layout(m + 1)
    tgt_off = {i: off for i, off, _ in tgt}
    out = np.zeros((eng.space_dim(m + 1), eng.space_dim(m)), dtype=np.int64)
    sign = 1 if m % 2 == 0 else -1
    for i, off, _ in src:
        for k, b in enumerate(pair_basis(eng, i, i + m)):
            for j, comp, pair in (
                (i, eng.d.diff(i + m).compose(b), (i, i + m + 1)),
                (i - 1, b.compose(eng.c.diff(i - 1)).scale(-sign), (i - 1, i + m)),
            ):
                if j in tgt_off:
                    x = reference_coordinates(pair_basis(eng, *pair), comp.flat(), eng.p)
                    assert x is not None
                    out[tgt_off[j] : tgt_off[j] + len(x), off + k] += x
    return Matrix(eng.p, out)


def reference_extending_columns(a, b):
    """The greedy loop: keep a column of b when it raises the rank."""
    chosen, probe = [], a
    for k in range(b.cols):
        cand = Matrix.hstack([probe, b.column(k)])
        if rank(cand) > rank(probe):
            chosen.append(k)
            probe = cand
    return rank(a), chosen


def reference_end_structure(basis):
    """Structure constants of End by one solve per pair of basis maps."""
    p = basis[0].source.p
    n = len(basis)
    sc = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            x = reference_coordinates(basis, basis[i].compose(basis[j]).flat(), p)
            assert x is not None
            sc[i, j] = x
    return sc


def reference_emat_compose(alg, a, b):
    rows, mid = len(a), len(b)
    cols = len(b[0]) if b else 0
    out = [[{} for _ in range(cols)] for _ in range(rows)]
    for l in range(rows):
        for j in range(cols):
            acc = {}
            for k in range(mid):
                if b[k][j] and a[l][k]:
                    acc = alg.add(acc, alg.mul(b[k][j], a[l][k]))
            out[l][j] = acc
    return out


def algebras():
    out = []
    for p in (3, MAX_PRIME):
        for n in (1, 2):
            c = corpus(n, p)
            out += [(f"A{n}", c.A), (f"B{n}", c.B), (f"Lam{n}", c.Lam), (f"Gam{n}", c.Gam)]
        out.append(("keps", dual_numbers(p)))
    return [pytest.param(alg, id=f"{name}-p{alg.p}") for name, alg in out]


def vertex_tuples(alg, rng, draws=3):
    verts = tuple(alg.quiver.vertices)
    tuples = [(), verts] + [(v,) for v in verts]
    for _ in range(draws):
        size = int(rng.integers(2, 2 * len(verts) + 2))
        tuples.append(tuple(verts[int(i)] for i in rng.integers(0, len(verts), size)))
    return tuples


def targets(alg, rng, randoms=3):
    verts = alg.quiver.vertices
    return [projective(alg, v) for v in verts] + [simple(alg, v) for v in verts] + [
        random_module(alg, rng) for _ in range(randoms)
    ]


def assert_same_basis(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.flat(), w)


@pytest.mark.parametrize("alg", algebras())
def test_hom_out_of_projective_sums_is_the_kronecker_basis(alg):
    rng = np.random.default_rng(7)
    ys = targets(alg, rng)
    for vs in vertex_tuples(alg, rng):
        x = ProjSummands(alg, vs).rep()
        assert x._cache["proj_sum"] == vs
        for y in ys:
            assert_same_basis(hom_space(x, y), reference_hom_space(x, y))


@pytest.mark.parametrize("alg", algebras())
def test_broadcast_system_is_the_kronecker_system(alg):
    rng = np.random.default_rng(11)
    mods = targets(alg, rng) + [ProjSummands(alg, alg.quiver.vertices).rep()]
    for x in mods:
        for y in mods:
            offs, total = _flat_offsets(x, y)
            want, want_offs, want_total = reference_system(x, y)
            assert (offs, total) == (want_offs, want_total)
            got = _hom_system(x, y, offs, total)
            assert (got is None and want is None) or got == want
            if "proj_sum" not in x._cache:
                assert_same_basis(hom_space(x, y), reference_hom_space(x, y))


@pytest.mark.parametrize("alg", algebras())
def test_coordinates_are_read_off_the_free_entries(alg):
    rng = np.random.default_rng(5)
    mods = targets(alg, rng, randoms=2)
    for x in mods:
        for y in mods:
            frame = hom_frame(x, y)
            basis = hom_space(x, y)
            # the echelon invariant: identity on the free coordinates
            assert np.array_equal(frame.flats[frame.free], np.eye(len(basis), dtype=np.int64))
            combos = rng.integers(0, alg.p, size=(len(basis), 3))
            vecs = frame.flats @ combos % alg.p
            assert np.array_equal(frame.coordinates(vecs), combos)
            assert np.array_equal(flatten_blocks(alg, frame.blocks()), frame.flats)


def test_coordinates_reject_a_non_module_map(A1):
    rng = np.random.default_rng(1)
    mods = targets(A1, rng)
    x, y = next((x, y) for x in mods for y in mods if len(hom_space(x, y)) < _flat_offsets(x, y)[1])
    basis = hom_space(x, y)
    frame = hom_frame(x, y)
    total = _flat_offsets(x, y)[1]
    # a unit vector outside the span: a family of vertex maps that is no module map
    units = np.eye(total, dtype=np.int64)
    outside = next(c for c in range(total) if reference_coordinates(basis, units[c], A1.p) is None)
    with pytest.raises(ValueError, match="composite escaped the hom space"):
        frame.coordinates(units[:, [outside]])


@pytest.mark.parametrize("p", [3, MAX_PRIME])
def test_extending_columns_is_the_greedy_loop(p):
    rng = np.random.default_rng(p)
    for _ in range(40):
        rows = int(rng.integers(0, 6))
        a = Matrix(p, rng.integers(0, 3, size=(rows, int(rng.integers(0, 4)))))
        b = Matrix(p, rng.integers(0, 3, size=(rows, int(rng.integers(0, 6)))))
        if rows and b.cols > 1:
            b = Matrix.hstack([b, b.column(0)])  # a dependent column
        assert extending_columns(a, b) == reference_extending_columns(a, b)


def complexes_over(alg, seed):
    rng = np.random.default_rng(seed)
    out = []
    for lo in (0, 1):
        out.append(random_two_term_complex(alg, rng, lo))
        out.append(random_three_term_complex(alg, rng, lo))
    return out


@pytest.mark.parametrize("which", ["A1", "Lam1", "keps"])
def test_hom_engine_matches_per_vector_solves_and_greedy_classes(which, A1, Lam1, keps):
    alg = {"A1": A1, "Lam1": Lam1, "keps": keps}[which]
    cxs = complexes_over(alg, seed=3)
    for c in cxs:
        for d in cxs:
            eng = HomEngine(c, d)
            window = range(d.lo - c.hi - 1, d.hi - c.lo + 2)
            for m in window:
                assert eng.boundary(m) == reference_boundary(eng, m)
                assert eng.boundary(m) is eng.boundary(m)
            for n in window:
                classes = HomKResult(eng, n)
                cycles = nullspace(eng.boundary(n))
                bnd_rank, ks = reference_extending_columns(eng.boundary(n - 1), cycles)
                assert classes.dim == cycles.cols - bnd_rank == hom_k_dim(c, d, n)
                assert classes.vectors.T.tolist() == [cycles.data[:, k].tolist() for k in ks]


def interval_sum(n, p):
    alg = linear_algebra_An(n, p)
    m, _, _ = direct_sum([interval_module(alg, i, l) for i in range(n) for l in range(1, n - i + 1)])
    return m


def end_structure(m):
    """Structure constants of End(m), as Z^0 of the stalk complex of m."""
    c = module_complex(m)
    return _end_structure(*_strict_maps(c, c))


@pytest.mark.parametrize("which", ["A1", "Lam1", "keps", "A3"])
def test_end_structure_matches_per_pair_solves(which, A1, Lam1, keps):
    if which == "A3":
        mods = [interval_sum(3, 101)]
    else:
        alg = {"A1": A1, "Lam1": Lam1, "keps": keps}[which]
        rng = np.random.default_rng(13)
        mods = [random_module(alg, rng, summands=3) for _ in range(4)] + [projective(alg, v) for v in alg.quiver.vertices]
    for m in (m for m in mods if not m.is_zero()):
        basis = hom_space(m, m)
        sc = end_structure(m)
        assert np.array_equal(sc, reference_end_structure(basis))


def reference_trace_form_radical(p, sc):
    """The radical from the trace form built with n^2 products L_i L_j."""
    n = sc.shape[0]
    L = [Matrix(p, sc[i].T.copy()) for i in range(n)]
    T = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            T[i, j] = int(np.trace((L[i] @ L[j]).data)) % p
    return nullspace(Matrix(p, T))


@pytest.mark.parametrize("p", [3, 101, MAX_PRIME])
def test_trace_form_radical_is_the_pairwise_product_loop(p):
    c = corpus(1, p)
    mods = list(c.M.values()) + list(c.S_P.values())
    mods += [direct_sum([a, a, b])[0] for a, b in zip(mods[::2], mods[1::2]) if a.algebra is b.algebra]
    checked = set()
    for m in mods:
        basis = hom_space(m, m)
        if len(basis) < p:
            sc = end_structure(m)
            assert _end_radical(p, sc) == reference_trace_form_radical(p, sc)
            checked.add(len(basis))
    rng = np.random.default_rng(p % 1000)
    for n in range(1, min(p, 9)):
        sc = rng.integers(0, p, size=(n, n, n))
        assert _end_radical(p, sc) == reference_trace_form_radical(p, sc)
    assert max(checked) > 1


def test_end_structure_of_a_set_not_closed_under_composition_raises():
    alg = linear_algebra_An(1, 101)
    m = Representation(alg, {"0": 2}, {})
    swap = RepHom(m, m, {"0": Matrix(101, [[0, 1], [1, 0]])})  # swap o swap = 1 is not a multiple of swap
    c = module_complex(m)
    eng = HomEngine(c, c)
    cycles = eng.frame(0, 0).coordinates(swap.flat()[:, None])  # span(swap) holds strict maps, but no algebra
    with pytest.raises(ValueError, match="composite escaped the strict endomorphisms"):
        _end_structure(eng, cycles)


def test_decompose_interval_sum():
    pieces = decompose(interval_sum(4, 101))
    assert sorted((r.total_dim(), k) for r, k in pieces) == sorted((l, 1) for i in range(4) for l in range(1, 5 - i))


@pytest.mark.parametrize("which", ["A1", "Lam1", "keps"])
def test_emat_compose_equals_the_sum_of_products(which, A1, Lam1, keps):
    alg = {"A1": A1, "Lam1": Lam1, "keps": keps}[which]
    rng = np.random.default_rng(17)
    verts = alg.quiver.vertices

    def random_emat(src, tgt):
        # entry [k][j] in e_{src_j} A e_{tgt_k}: paths from tgt_k to src_j
        return [
            [
                {
                    pth: int(rng.integers(1, alg.p))
                    for pth in alg.basis_by_source[t]
                    if alg.path_target(pth) == s and rng.integers(0, 2)
                }
                for s in src
            ]
            for t in tgt
        ]

    for _ in range(20):
        x, y, z = ([verts[int(i)] for i in rng.integers(0, len(verts), int(rng.integers(1, 4)))] for _ in range(3))
        b, a = random_emat(x, y), random_emat(y, z)
        assert emat_compose(alg, a, b) == reference_emat_compose(alg, a, b)
