"""Every sum of indecomposable projectives is one shared entry per
(algebra, vertex tuple): projective, regular and zero modules and every
ProjSummands read it.  The per-summand block-diagonal build it replaced
is kept here as the reference, and so is the `mul_basis` loop over the
whole sum with its relation check, which sums of more than one P_v no
longer run.
"""

import numpy as np
import pytest

from quivhom.algebra import dual_numbers, path_arrows
from quivhom.corpus import corpus
from quivhom.exactlin import Matrix
from quivhom.gorenstein import is_gorenstein_projective
from quivhom.modules import (
    ProjSummands,
    Representation,
    direct_sum_module,
    hom_frame,
    projective,
    regular_module,
    simple,
    zero_rep,
)
from quivhom.stable import stable_image


def reference_projective(alg, v):
    """P_v's arrow matrices and its basis paths grouped by target vertex."""
    by_target = {w: [] for w in alg.quiver.vertices}
    for pth in alg.basis_by_source[v]:
        by_target[alg.path_target(pth)].append(pth)
    mats = {}
    for n, s, t in alg.quiver.arrows:
        m = np.zeros((len(by_target[t]), len(by_target[s])), dtype=np.int64)
        for j, pth in enumerate(by_target[s]):
            for mono, c in alg.mul_basis((s, (n,)), pth).items():
                m[by_target[t].index(mono), j] = c
        mats[n] = Matrix(alg.p, m)
    return mats, by_target


def reference_sum(alg, vertices):
    """(mats, layout, generator coordinates) of the block-diagonal sum."""
    parts = [reference_projective(alg, v) for v in vertices]
    mats = {n: Matrix.block_diag(alg.p, [pm[n] for pm, _ in parts]) for n, _, _ in alg.quiver.arrows}
    layout = {w: [] for w in alg.quiver.vertices}
    for j, (_, by_target) in enumerate(parts):
        for w, paths in by_target.items():
            layout[w].extend((j, pth) for pth in paths)
    gens = [
        next(i for i, (k, pth) in enumerate(layout[v]) if k == j and not path_arrows(pth))
        for j, v in enumerate(vertices)
    ]
    return mats, layout, gens


def reference_mul_basis_sum(alg, vertices):
    """The arrow matrices of the sum, each column read off `mul_basis`."""
    layout = {w: [] for w in alg.quiver.vertices}
    for j, v in enumerate(vertices):
        for pth in alg.basis_by_source[v]:
            layout[alg.path_target(pth)].append((j, pth))
    index = {jp: i for lay in layout.values() for i, jp in enumerate(lay)}
    mats = {}
    for n, s, t in alg.quiver.arrows:
        m = np.zeros((len(layout[t]), len(layout[s])), dtype=np.int64)
        for col, (j, pth) in enumerate(layout[s]):
            for mono, c in alg.mul_basis((s, (n,)), pth).items():
                m[index[(j, mono)], col] = c
        mats[n] = Matrix(alg.p, m)
    return mats


def algebras():
    out = []
    for p in (3, 101):
        for n in (1, 2):
            c = corpus(n, p)
            out += [(f"A{n}", c.A), (f"B{n}", c.B), (f"Lam{n}", c.Lam), (f"Gam{n}", c.Gam)]
        out.append(("keps", dual_numbers(p)))
    return [pytest.param(alg, id=f"{name}-p{alg.p}") for name, alg in out]


def vertex_tuples(alg, seed=0, draws=4):
    verts = tuple(alg.quiver.vertices)
    rng = np.random.default_rng(seed)
    tuples = [(), verts] + [(v,) for v in verts]
    for _ in range(draws):
        size = int(rng.integers(2, 2 * len(verts) + 2))
        tuples.append(tuple(verts[int(i)] for i in rng.integers(0, len(verts), size)))
    return tuples


@pytest.mark.parametrize("alg", algebras())
def test_shared_sums_match_the_block_diagonal_build(alg):
    for vs in vertex_tuples(alg):
        ps = ProjSummands(alg, vs)
        rep = ps.rep()
        mats, layout, gens = reference_sum(alg, vs)
        assert rep.dims == {w: len(layout[w]) for w in alg.quiver.vertices}, vs
        assert all(rep.mats[n] == mats[n] for n in mats), vs
        assert {w: list(lay) for w, lay in ps.layout().items()} == layout, vs
        assert [ps.generator_index(j) for j in range(len(vs))] == gens, vs
        assert ProjSummands(alg, list(vs)).rep() is rep
        assert ProjSummands(alg, vs).layout() is ps.layout()


@pytest.mark.parametrize("alg", algebras())
def test_named_modules_read_the_shared_entries(alg):
    verts = tuple(alg.quiver.vertices)
    assert zero_rep(alg) is ProjSummands(alg, ()).rep()
    assert zero_rep(alg).is_zero()
    assert regular_module(alg) is ProjSummands(alg, verts).rep()
    assert regular_module(alg).total_dim() == alg.dim
    for v in verts:
        assert projective(alg, v) is ProjSummands(alg, (v,)).rep()


def test_shared_layouts_are_read_only():
    alg = corpus(1).A
    layout = ProjSummands(alg, ("1", "1")).layout()
    with pytest.raises(TypeError):
        layout["1"] = ()
    with pytest.raises(AttributeError):
        layout["1"].clear()
    assert len(layout["1"]) == 2 * len(reference_projective(alg, "1")[1]["1"])


@pytest.mark.parametrize("build", [simple, projective, lambda alg, v: ProjSummands(alg, ("0", v)).rep()])
def test_unknown_vertex_is_a_value_error(build):
    alg = corpus(1).A
    with pytest.raises(ValueError, match="unknown vertex 99"):
        build(alg, "99")
    assert ("_proj_sum", ("0", "99")) not in alg._cache


def proj_sums(alg):
    """The shared sums `_proj_sum` keeps on alg, by vertex tuple."""
    return {key[1]: entry for key, entry in alg._cache.items() if isinstance(key, tuple) and key[0] == "_proj_sum"}


def test_every_sum_the_corpus_builds_passes_the_relation_check():
    """Sums of more than one P_v are built unchecked, as block diagonals;
    after the GP verdicts and stable images of the corpus at n <= 3, every
    cached sum over A, B, Lambda, Gamma and their opposites still passes
    the full check and equals the `mul_basis` build."""
    seen = 0
    for n in (1, 2, 3):
        c = corpus(n)
        for key in sorted(c.M):
            x = c.M[key]
            assert is_gorenstein_projective(x, 8).is_gp
            assert is_gorenstein_projective(stable_image(c.F, x)[0], 8).is_gp
        for alg in (c.A, c.B, c.Lam, c.Gam):
            for side in (alg, alg.opposite()):
                for vs, entry in proj_sums(side).items():
                    rep = entry.rep
                    Representation(side, rep.dims, rep.mats)
                    assert rep.mats == reference_mul_basis_sum(side, vs), vs
                    seen += len(vs) > 1
    assert seen > 100


def test_every_dual_the_corpus_builds_passes_the_relation_check():
    """Duals are built unchecked: the transposed arrow matrices satisfy the
    reversed relations by construction.  After the GP verdicts of the
    corpus at n <= 3, every cached dual of a shared sum over A, B, Lambda,
    Gamma and their opposites still passes the full check."""
    seen = 0
    for n in (1, 2, 3):
        c = corpus(n)
        for key in sorted(c.M):
            assert is_gorenstein_projective(c.M[key], 8).is_gp
        for alg in (c.A, c.B, c.Lam, c.Gam):
            for side in (alg, alg.opposite()):
                for entry in proj_sums(side).values():
                    d = entry.rep._cache.get("dual")
                    if d is not None:
                        assert d.algebra is side.opposite()
                        Representation(d.algebra, d.dims, d.mats)
                        seen += 1
    assert seen > 20


def reference_direct_sum_module(reps):
    """The block-diagonal sum, as `direct_sum_module` builds it for any parts."""
    alg = reps[0].algebra
    dims = {v: sum(r.dims[v] for r in reps) for v in alg.quiver.vertices}
    mats = {n: Matrix.block_diag(alg.p, [r.mats[n] for r in reps]) for n, _, _ in alg.quiver.arrows}
    return Representation(alg, dims, mats, check=False)


def tagged_part_lists(alg, seed=1, draws=4):
    """Lists of shared sums: the empty sum alone, every test tuple at once
    (repeated vertices and the empty sum among them), and random draws."""
    tuples = vertex_tuples(alg, seed)
    rng = np.random.default_rng(seed)
    out = [[zero_rep(alg)], [ProjSummands(alg, vs).rep() for vs in tuples]]
    for _ in range(draws):
        picks = rng.integers(0, len(tuples), int(rng.integers(1, 4)))
        out.append([ProjSummands(alg, tuples[int(i)]).rep() for i in picks])
    return out


def untagged_copy(m):
    return Representation(m.algebra, dict(m.dims), dict(m.mats), check=False)


@pytest.mark.parametrize("alg", algebras())
def test_a_sum_of_shared_sums_is_the_shared_entry(alg):
    """It is the entry of the concatenated vertex tuple, with the block
    diagonal's dims and arrow matrices; one untagged part gives a fresh,
    untagged block diagonal."""
    for parts in tagged_part_lists(alg):
        got = direct_sum_module(parts)
        assert got is ProjSummands(alg, sum((r._cache["proj_sum"] for r in parts), ())).rep()
        ref = reference_direct_sum_module(parts)
        assert got.dims == ref.dims
        assert all(got.mats[n] == ref.mats[n] for n in ref.mats)
        mixed = parts + [untagged_copy(parts[-1])]
        got = direct_sum_module(mixed)
        assert "proj_sum" not in got._cache and got is not direct_sum_module(mixed)
        ref = reference_direct_sum_module(mixed)
        assert got.dims == ref.dims
        assert all(got.mats[n] == ref.mats[n] for n in ref.mats)


def test_hom_out_of_a_shared_sum_does_not_depend_on_the_path():
    """Hom out of a sum of shared sums is read off its generators
    (Yoneda); out of an untagged copy it is a nullspace.  Both give the
    same normal form, flat for flat, so cones whose terms became shared
    sums keep their Hom bases."""
    c = corpus(1)
    gam = c.Gam
    verts = tuple(gam.quiver.vertices)
    targets = [c.M[key] for key in sorted(c.M)] + [simple(gam, verts[0]), projective(gam, verts[-1])]
    for parts in tagged_part_lists(gam, draws=3)[1:]:
        shared = direct_sum_module(parts)
        for n in targets:
            yoneda, null = hom_frame(shared, n), hom_frame(untagged_copy(shared), n)
            assert yoneda.flats.shape == null.flats.shape
            assert np.array_equal(yoneda.flats, null.flats)
