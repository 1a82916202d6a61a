"""One Krull-Schmidt layer for modules and complexes of projectives.

A module is split and compared as its stalk complex, whose strict chain
endomorphisms Z^0 are End(m) with the identity for cycle coordinates, so
`decompose` must draw the same maps and return the same pieces as the
module loop it replaced.  The splitting of complexes of projectives and
the grouping of tilting summands run through the same splitter and the
same isomorphism search.  The replaced code is kept here as the
reference: the module loop with its Fitting split, locality test and
isomorphism search, the complex loop with its Fitting split, and the
endomorphism presentation that grouped summands by quasi-isomorphism
draws.  Grouping up to isomorphism is `homological.group_isomorphic`
alone; the three loops it replaced (in `decompose`, in the presentation
and in the string enumeration) are kept here too, and must give the same
classes, representative for representative.
"""

import itertools

import numpy as np
import pytest

from quivhom import functors, homological, projcplx, strings
from quivhom.algebra import Quiver, dual_numbers, linear_algebra_An
from quivhom.complexes import Complex, HomEngine, hom_k, is_quasi_iso, module_complex
from quivhom.corpus import Corpus, corpus, interval_module
from quivhom.exactlin import Matrix, extending_columns, inverse, nullspace, rank
from quivhom.functors import TiltingCandidate, _count_paths, endomorphism_presentation
from quivhom.homological import DecompositionError, _end_radical, _is_local_end, _power, _split_idempotent, decompose, find_strict_iso, group_isomorphic
from quivhom.modules import ProjSummands, Representation, direct_sum, flatten_blocks, hom_frame, identity_hom, image, kernel, lift, zero_hom, zero_rep
from quivhom.projcplx import ProjComplex, _add_block, minimize, recognize
from quivhom.stable import stable_image
from tests.conftest import proj_direct_sum, random_module, split_proj_complex
from tests.test_functors import proj_stalk

# -- the replaced module loop ------------------------------------------------------


def old_end_structure(frame):
    n = frame.dim
    comp = {v: (b[:, None] @ b[None, :]).reshape(n * n, *b.shape[1:]) for v, b in frame.blocks().items()}
    coords = frame.coordinates(flatten_blocks(frame.source.algebra, comp))
    return coords.T.reshape(n, n, n)


def old_is_local_end(m, frame):
    n = frame.dim
    if n == 1:
        return True
    p = m.p
    sc = old_end_structure(frame)
    radbasis = _end_radical(p, sc)
    r = radbasis.cols
    if n - r == 1:
        return True
    _, comp = extending_columns(radbasis, Matrix.identity(p, n))
    full = Matrix.hstack([radbasis, Matrix(p, np.eye(n, dtype=np.int64)[:, comp])])
    to_comp = inverse(full).data[r:]
    q = len(comp)
    qsc = sc[np.ix_(comp, comp)] @ to_comp.T % p
    if not np.array_equal(qsc, qsc.transpose(1, 0, 2)):
        return False

    def qmul(a, b):
        t = (a @ qsc.reshape(q, q * q) % p).reshape(-1, q, q)
        return (b[:, None, :] @ t)[:, 0, :] % p

    one = to_comp @ frame.coordinates(identity_hom(m).flat()[:, None]) % p
    eye = np.eye(q, dtype=np.int64)
    frob = _power(eye, p, qmul, np.repeat(one.T, q, axis=0))
    return nullspace(Matrix(p, (frob - eye).T)).cols == 1


def old_fitting_split(m, e):
    n = m.total_dim()
    k, kincl = kernel(e)
    if k.total_dim() == 0 or k.total_dim() == n:
        return None
    i, iincl = image(e)
    if k.total_dim() + i.total_dim() != n:
        return None
    return (k, kincl), (i, iincl)


def old_find_iso(a, b, rng, budget=60):
    if a.dims != b.dims:
        return None
    if a.is_zero():
        return zero_hom(a, b)
    frame = hom_frame(a, b)
    if not frame.dim:
        return None
    rng = np.random.default_rng(rng)
    for _ in range(budget):
        f = frame.combination(rng.integers(0, a.p, size=frame.dim))
        if f.is_iso():
            return f
    return next((f for f in frame.basis() if f.is_iso()), None)


def old_decompose(m, seed=0, budget=60):
    rng = np.random.default_rng(seed)
    pieces, stack = [], [m]
    while stack:
        cur = stack.pop()
        if cur.total_dim() == 0:
            continue
        frame = hom_frame(cur, cur)
        if old_is_local_end(cur, frame):
            pieces.append(cur)
            continue
        for _ in range(budget):
            e = _split_idempotent([frame.combination(rng.integers(0, cur.p, size=frame.dim))], rng)
            split = e and old_fitting_split(cur, e[0])
            if split:
                break
        else:
            raise DecompositionError("could not certify a split")
        (k, _), (i, _) = split
        stack.append(k)
        stack.append(i)
    return old_grouping(pieces, seed)


# -- the replaced grouping loops ---------------------------------------------------


def old_grouping(pieces, seed):
    """The loop `decompose` grouped its pieces with."""
    grouped = []
    for piece in sorted(pieces, key=lambda r: (r.total_dim(), list(r.dims.values()))):
        for idx, (rep, mult) in enumerate(grouped):
            if rep.total_dim() == piece.total_dim() and old_find_iso(rep, piece, seed) is not None:
                grouped[idx] = (rep, mult + 1)
                break
        else:
            grouped.append((piece, 1))
    return grouped


def decompose_checked(m, seed, monkeypatch):
    """decompose(m, seed), after checking that it groups the pieces of its
    split as `old_grouping` does, representative for representative."""
    pieces = homological.split_complex(module_complex(m), seed)
    with monkeypatch.context() as mp:
        mp.setattr(homological, "split_complex", lambda c, s: list(pieces))
        got = decompose(m, seed)
    want = old_grouping([c.terms[0] for c in pieces], seed)
    assert [(id(r), k) for r, k in got] == [(id(r), k) for r, k in want]
    return got


def old_presentation_classes(minimal, seed=0):
    """The loop `endomorphism_presentation` grouped the minimal summands with."""
    cxs, sigs, mult = [], [], []
    for mc in minimal:
        sig = recognize(mc).signature()
        for idx, rc in enumerate(cxs):
            if sigs[idx] == sig and find_strict_iso(rc, mc, seed) is not None:
                mult[idx] += 1
                break
        else:
            cxs.append(mc)
            sigs.append(sig)
            mult.append(1)
    return list(zip(cxs, mult))


def old_string_modules(alg, seed=0):
    """The loop `enumerate_string_modules` kept one module per class with."""
    found = []
    for verts, word in strings._walks(alg, strings._monomial_quadratic_relations(alg)):
        rev = (tuple(reversed(verts)), tuple((a, -d) for a, d in reversed(word)))
        if rev < (verts, word):
            continue
        m = strings.string_module(alg, verts, word)
        if m is None or not _is_local_end(m):
            continue
        if not any(m.total_dim() == g.total_dim() and m.dims == g.dims and old_find_iso(m, g, seed) is not None for g in found):
            found.append(m)
    return found


# -- the replaced complex loop and grouping -----------------------------------------


def old_complex_fitting(c, e):
    alg = c.algebra
    pieces, dim = [], 0
    for which in (kernel, image):
        carriers = {}
        for i in c.terms:
            sub, incl = which(e[i])
            if sub.total_dim():
                carriers[i] = (sub, incl)
        if not carriers:
            return None
        dim += sum(sub.total_dim() for sub, _ in carriers.values())
        diffs = {i: lift(carriers[i + 1][1], c.diff(i).compose(incl)) for i, (_, incl) in carriers.items() if i + 1 in carriers}
        try:
            pieces.append(recognize(Complex(alg, {i: sub for i, (sub, _) in carriers.items()}, diffs, check=False)))
        except ValueError:
            return None
    if dim != c.total_dim():
        return None
    return [minimize(x)[0] for x in pieces]


def old_split_proj_complex(pc, seed=0):
    rng = np.random.default_rng(seed)
    out, stack = [], [pc]
    while stack:
        cur = stack.pop()
        if not cur.terms:
            continue
        c = cur.to_complex()
        eng = HomEngine(c, c)
        cycles = nullspace(eng.boundary(0))
        if cycles.cols <= 1:
            out.append(cur)
            continue
        degrees = sorted(c.terms)
        for _ in range(40):
            f = eng.map_of(0, cycles.data @ rng.integers(0, c.algebra.p, size=cycles.cols) % c.algebra.p)
            e = _split_idempotent([f.map(i) for i in degrees], rng)
            split = e and old_complex_fitting(c, dict(zip(degrees, e)))
            if split:
                stack.extend(split)
                break
        else:
            out.append(cur)
    return out


def old_homotopy_iso(x, y, seed=0):
    hk = hom_k(x.to_complex(), y.to_complex(), 0)
    if not hk.dim:
        return False
    p = x.algebra.p
    rng = np.random.default_rng(seed)
    for _ in range(20):
        if is_quasi_iso(hk.engine.map_of(0, hk.vectors @ rng.integers(0, p, size=hk.dim) % p)):
            return True
    return False


def old_endomorphism_presentation(t, seed=0):
    p = t.algebra.p
    reps, mult = [], []
    for s in t.summands:
        mn, _, _ = minimize(s)
        for idx, r in enumerate(reps):
            if r.signature() == mn.signature() and old_homotopy_iso(r, mn, seed):
                mult[idx] += 1
                break
        else:
            reps.append(mn)
            mult.append(1)
    r = len(reps)
    cxs = [x.to_complex() for x in reps]
    blocks = [(u, v) for u in range(r) for v in range(r)]
    hk = {(u, v): hom_k(cxs[u], cxs[v], 0) for u, v in blocks}
    offs = np.cumsum([0] + [hk[b].dim for b in blocks]).tolist()
    span = {b: slice(offs[k], offs[k + 1]) for k, b in enumerate(blocks)}
    dim = offs[-1]
    sc = np.zeros((dim, dim, dim), dtype=np.int64)
    for u, v, w in itertools.product(range(r), repeat=3):
        for k1, b1 in enumerate(hk[(u, v)].basis):
            for k2, b2 in enumerate(hk[(v, w)].basis):
                sc[span[(u, v)].start + k1, span[(v, w)].start + k2, span[(u, w)]] = hk[(u, w)].coordinates(b2.compose(b1))
    rad = _end_radical(p, sc).data.T
    rad2 = np.tensordot(np.tensordot(rad, sc, axes=(1, 0)) % p, rad, axes=(1, 1)) % p
    rad2 = rad2.transpose(0, 2, 1).reshape(len(rad) ** 2, dim)
    arrows = []
    for b in blocks:
        for _ in range(rank(Matrix(p, rad[:, span[b]])) - rank(Matrix(p, rad2[:, span[b]]))):
            arrows.append((f"x{len(arrows)}", str(b[1]), str(b[0])))
    quiver = Quiver([str(i) for i in range(r)], arrows)
    return dim, mult, quiver.arrows, max(0, _count_paths(quiver) - dim)


def old_direct_sum_proj(pcs):
    """The element-matrix direct sum that `complexes.direct_sum_complex`
    replaced."""
    alg = pcs[0].algebra
    degs = set()
    for pc in pcs:
        degs |= set(pc.terms)
    terms = {i: ProjSummands(alg, [v for pc in pcs for v in pc.summands(i).vertices]) for i in degs}
    dmats = {}
    for i in degs:
        if i + 1 not in degs:
            continue
        shape = (len(terms[i + 1].vertices), len(terms[i].vertices))
        roff = coff = 0
        for pc in pcs:
            _add_block(alg, dmats, i, shape, (roff, coff), pc.dmats.get(i, ()))
            roff += len(pc.summands(i + 1).vertices)
            coff += len(pc.summands(i).vertices)
    return ProjComplex(alg, terms, dmats, check=False)


# -- inputs ----------------------------------------------------------------------


def entries(pieces):
    """Each piece's dimension vector and arrow matrices, and its multiplicity, in order."""
    return [(dict(r.dims), {a: m.data.tolist() for a, m in r.mats.items()}, k) for r, k in pieces]


def decompose_inputs():
    mods = []
    for n in (1, 2):
        c = corpus(n)
        for key in sorted(c.M):
            mods += [c.M[key], stable_image(c.F, c.M[key])[0]]
    c = corpus(1)
    rng = np.random.default_rng(7)
    for alg in (c.A, c.Lam, c.Gam):
        mods += [random_module(alg, rng, summands=k) for k in (1, 2, 3) for _ in range(2)]
    keys = sorted(c.M)
    for a, b in zip(keys, keys[1:]):
        mods.append(direct_sum([c.M[a], c.M[a], c.M[b]])[0])
    mods.append(direct_sum([c.M[keys[0]]] * 3)[0])
    alg = linear_algebra_An(4, 101)
    mods.append(direct_sum([interval_module(alg, i, l) for i in range(4) for l in range(1, 5 - i)])[0])
    return [m for m in mods if not m.is_zero()]


def split_candidates(n):
    summands = corpus(n).tilting.summands
    return list(summands) + [proj_direct_sum(summands), proj_direct_sum(summands[:2] + summands[:2])]


# -- the differential tests --------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decompose_is_the_old_loop_entry_for_entry(seed):
    mods = decompose_inputs()
    split = 0
    for m in mods:
        want = entries(old_decompose(m, seed))
        fresh = Representation(m.algebra, dict(m.dims), dict(m.mats), check=False)  # no cached result
        assert entries(decompose(fresh, seed)) == want
        split += len(want) > 1 or want[0][2] > 1
    assert split >= 8


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_complex_splitter_gives_the_old_signatures(n, seed):
    pieces = 0
    for pc in split_candidates(n):
        got = sorted(x.signature() for x in split_proj_complex(pc, seed))
        assert got == sorted(x.signature() for x in old_split_proj_complex(pc, seed))
        pieces = max(pieces, len(got))
    assert pieces > 1


@pytest.mark.parametrize("p", [101, 103])
def test_endomorphism_presentation_is_the_old_one(p):
    cands = []
    for n in (1, 2, 3):
        c = Corpus(n, p)
        summands = c.tilting.summands
        cands += [c.tilting, TiltingCandidate(c.tilting.algebra, summands + summands[:2])]
        for alg in (c.A, c.Lam):
            verts = list(alg.quiver.vertices)
            cands.append(TiltingCandidate(alg, [proj_stalk(alg, v) for v in verts + verts[:2] + verts[:1]]))
    repeated = 0
    for cand in cands:
        pres = endomorphism_presentation(cand)
        assert (pres.dim, pres.multiplicities, pres.quiver.arrows, pres.relation_count) == old_endomorphism_presentation(cand)
        repeated += max(pres.multiplicities) > 1
        minimal = [functors._minimal(s.to_complex()) for s in cand.summands]
        got = group_isomorphic(minimal, lambda c: recognize(c).signature())
        assert [(id(c), k) for c, k in got] == [(id(c), k) for c, k in old_presentation_classes(minimal)]
    assert repeated >= 9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_string_modules_are_the_old_loop_matrix_for_matrix(n):
    """The string modules of A and of B, in the old order; those of B are
    its interval modules."""
    c = corpus(n)
    for mods, alg in ((c.indecomposables_A(), c.A), (strings.enumerate_string_modules(c.B), c.B)):
        assert entries([(m, 1) for m in mods]) == entries([(m, 1) for m in old_string_modules(alg)])
    assert len(strings.enumerate_string_modules(c.B)) == len(c.indecomposables_B())


def sum_inputs():
    """The summand lists that the split candidates and the endomorphism
    presentation candidates sum, repeated summands included."""
    lists = []
    for n in (1, 2, 3):
        c = corpus(n)
        summands = c.tilting.summands
        lists += [summands, summands[:2] + summands[:2], summands + summands[:2]]
        for alg in (c.A, c.Lam):
            verts = list(alg.quiver.vertices)
            lists.append([proj_stalk(alg, v) for v in verts + verts[:2] + verts[:1]])
    return lists


def test_direct_sum_complex_is_the_old_element_matrix_sum(monkeypatch):
    """`recognize(direct_sum_complex(...))` has the summands and element
    matrices of the old `direct_sum_proj` (an absent matrix of the old sum
    is zero), is read with no cover, and `TiltingCandidate.total()` has the
    old sum's differentials entry for entry."""

    def no_cover(*args):
        raise AssertionError("recognize ran a cover")

    monkeypatch.setattr(projcplx, "projective_cover", no_cover)
    for pcs in sum_inputs():
        old = old_direct_sum_proj(pcs)
        got = proj_direct_sum(pcs)
        assert got.signature() == old.signature()
        assert [got.terms[i].vertices for i in sorted(got.terms)] == [old.terms[i].vertices for i in sorted(old.terms)]
        for i, d in got.dmats.items():
            assert d == old.dmats.get(i, [[{}] * len(row) for row in d])
        assert set(old.dmats) <= set(got.dmats)
        total, want = TiltingCandidate(pcs[0].algebra, pcs).total(), old.to_complex()
        assert sorted(total.diffs) == sorted(want.diffs)
        for i, d in total.diffs.items():
            assert all(np.array_equal(m.data, want.diffs[i].mats[v].data) for v, m in d.mats.items())


# -- behaviour that changed -----------------------------------------------------------


def test_a_local_projective_stalk_is_kept_with_no_draws(monkeypatch):
    """The projective stalk of k[eps] has Z^0 = k[eps], local of dimension
    2: it is certified and kept with no call of `_split_idempotent`."""
    calls = []

    def counting(maps, rng):
        calls.append(maps)
        return _split_idempotent(maps, rng)

    monkeypatch.setattr(homological, "_split_idempotent", counting)
    monkeypatch.setattr(functors, "_split_idempotent", counting, raising=False)
    keps = dual_numbers()
    pieces = split_proj_complex(proj_stalk(keps, keps.quiver.vertices[0]))
    assert [x.signature() for x in pieces] == [((0, (keps.quiver.vertices[0],)),)]
    assert not calls


def test_the_zero_module_is_not_local():
    assert _is_local_end(zero_rep(linear_algebra_An(2))) is False


def test_a_complex_with_dim_z0_at_least_p_raises_naming_p():
    """Z^0 of y (+) y, y the two-term complex P_1 -> P_0 over A_2 at p = 3,
    is the 2 x 2 matrices over End(y) = k: dim 4 >= 3, where the trace
    form does not find the radical, so the splitter raises instead of
    splitting uncertified."""
    alg = linear_algebra_An(2, 3)
    (a, s, t), = alg.quiver.arrows
    y = ProjComplex(alg, {0: ProjSummands(alg, [t]), 1: ProjSummands(alg, [s])}, {0: [[alg.arrow(a)]]})
    assert len(split_proj_complex(y)) == 1
    with pytest.raises(DecompositionError, match=r"dim End = 4 >= p = 3"):
        split_proj_complex(proj_direct_sum([y, y]))
