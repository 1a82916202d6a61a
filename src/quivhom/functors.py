"""Presentations of non-negative triangle functors and tilting checks.

A functor between the projective-complex categories of two bound quiver
algebras is presented combinatorially: each indecomposable projective
P_v of the source is sent to a bounded complex of target projectives
concentrated in degrees [0, width], and each source arrow a: v -> w is
sent to a chain map image(w) -> image(v) realizing the right
multiplication P_w -> P_v.  The arrow maps must satisfy every relation
of the source algebra strictly (the composite chain maps sum to zero on
the nose, not merely up to homotopy); this makes application to a
complex of projectives a finite substitution with no coherence data.

Applying the data to the minimal projective resolution of a module,
truncated at an explicit window, computes the functor on modules up to
that window; non-negativity is certified on simple modules to a finite
depth, which propagates to all finite-length modules along short exact
sequences.  `eps_extension(f)` lifts data to the dual-numbers extensions
of f's algebras, which each algebra builds once and which record their
loops (Rickard: T (x) k[eps] is tilting over A[eps]).  The
tilting search runs on `complexes.Complex`es of shared projective sums.
"""

from __future__ import annotations

import itertools

import numpy as np

from .algebra import BoundQuiverAlgebra, Element, Path, Quiver, path_arrows, path_source
from .complexes import Complex, cone, direct_sum_complex, hom_k, hom_k_dim, homology_dims, shift
from .exactlin import Matrix, inverse, rank, solve
from .homological import _end_radical, find_strict_iso, group_isomorphic, minimal_resolution, split_complex
from .modules import (
    ElementMatrix,
    ProjSummands,
    RepHom,
    element_matrix_to_hom,
    emat_compose,
    emat_is_zero,
    hom_to_element_matrix,
    simple,
)
from .projcplx import (
    ProjChainMap,
    ProjComplex,
    _add_block,
    _zero_emat,
    identity_proj_chain_map,
    minimize,
    recognize,
)


class FunctorData:
    """Combinatorial presentation of a non-negative triangle functor."""

    def __init__(self, source: BoundQuiverAlgebra, target: BoundQuiverAlgebra, images: dict[str, ProjComplex], arrow_maps: dict[str, ProjChainMap]):
        self.source = source
        self.target = target
        self.images = dict(images)
        self.arrow_maps = dict(arrow_maps)
        self._path_cache: dict[Path, ProjChainMap] = {}
        self._apply_cache: dict = {}
        missing = [f"image of vertex {v}" for v in source.quiver.vertices if v not in self.images]
        missing += [f"map of arrow {n}" for n in source.quiver.arrow_by_name if n not in self.arrow_maps]
        if missing:
            raise ValueError(f"missing {missing[0]}")
        # negative-degree images are legal data but fail is_non_negative
        self.width = max([0] + [self.images[v].hi for v in source.quiver.vertices if self.images[v].terms])
        # the resolution window of the stable pipeline: substituting a
        # resolution truncated here is exact in all degrees >= -1
        self.stable_window = -self.width - 2
        for n, s, t in source.quiver.arrows:
            am = self.arrow_maps[n]
            if am.source is not self.images[t] or am.target is not self.images[s]:
                raise ValueError(f"arrow map {n} has wrong endpoints")
            for i in am.source.terms:
                if not _commutes_at(target, am, i):
                    raise ValueError(f"arrow map {n} is not a chain map at degree {i}")
        for r in source.relations:
            if not all(emat_is_zero(m) for m in self.element_map_emats(r).values()):
                raise ValueError(f"relation {r} not satisfied strictly")

    # -- morphism images ----------------------------------------------

    def path_map(self, pth: Path) -> ProjChainMap:
        """Chain map image(target of path) -> image(source of path)."""
        if pth in self._path_cache:
            return self._path_cache[pth]
        v = path_source(pth)
        arrows = path_arrows(pth)
        if not arrows:
            out = identity_proj_chain_map(self.images[v])
        else:
            out = self.arrow_maps[arrows[-1]]
            for a in reversed(arrows[:-1]):
                out = self.arrow_maps[a].compose(out)
        self._path_cache[pth] = out
        return out

    def element_map_emats(self, e: Element) -> dict[int, ElementMatrix]:
        """Degreewise element matrices of the image of a parallel element."""
        ends = self.source.element_source_target(e)
        if ends is None:
            raise ValueError("element mixes non-parallel paths")
        x, y = ends
        src_img = self.images[y]
        tgt_img = self.images[x]
        comps: dict[int, ElementMatrix] = {}
        for pth, c in e.items():
            for i, mat in self.path_map(pth).comps.items():
                shape = (len(tgt_img.summands(i).vertices), len(src_img.summands(i).vertices))
                _add_block(self.target, comps, i, shape, (0, 0), mat, c)
        return comps

    def __repr__(self):
        return f"FunctorData(width={self.width})"


def _commutes_at(alg: BoundQuiverAlgebra, f: ProjChainMap, i: int) -> bool:
    """f^(i+1) d_X^i = d_Y^i f^i for f : X -> Y, as element matrices."""
    zero = _zero_emat(len(f.target.summands(i + 1).vertices), len(f.source.summands(i).vertices))
    lhs = emat_compose(alg, f.comp(i + 1), f.source.dmats[i]) if i in f.source.dmats else zero
    rhs = emat_compose(alg, f.target.dmats[i], f.comp(i)) if i in f.target.dmats else zero
    return lhs == rhs


def identity_functor(alg: BoundQuiverAlgebra) -> FunctorData:
    return shift_functor(alg, 0)


def shift_functor(alg: BoundQuiverAlgebra, k: int) -> FunctorData:
    """Data placing every projective in degree k with identity arrow
    action; its stable functor is the k-th syzygy."""
    if k < 0:
        raise ValueError("shift amount must be >= 0")
    images = {
        v: ProjComplex(alg, {k: ProjSummands(alg, [v])}, {}, check=False)
        for v in alg.quiver.vertices
    }
    arrow_maps = {}
    for n, s, t in alg.quiver.arrows:
        arrow_maps[n] = ProjChainMap(images[t], images[s], {k: [[alg.arrow(n)]]})
    return FunctorData(alg, alg, images, arrow_maps)


def eps_extension(f: FunctorData) -> FunctorData:
    """The data of f tensored with k[eps]/(eps^2), between the dual-numbers
    extensions of f's algebras (Rickard's derived equivalence of the
    extensions): the images and arrow maps of f, the same vertex tuples and
    element matrices over the extensions, and each source loop at v acting
    on image(v) by the target loop at w on each summand P_w."""
    source, target = f.source.dual_numbers_extension(), f.target.dual_numbers_extension()
    images = {
        v: ProjComplex(target, {i: ProjSummands(target, ps.vertices) for i, ps in img.terms.items()}, img.dmats)
        for v, img in f.images.items()
    }
    arrow_maps = {n: ProjChainMap(images[t], images[s], f.arrow_maps[n].comps) for n, s, t in f.source.quiver.arrows}
    for v, img in images.items():
        eps = {
            i: [[target.arrow(target.loops[w]) if j == k else {} for j in range(len(ps.vertices))] for k, w in enumerate(ps.vertices)]
            for i, ps in img.terms.items()
        }
        arrow_maps[source.loops[v]] = ProjChainMap(img, img, eps)
    return FunctorData(source, target, images, arrow_maps)


# -- application --------------------------------------------------------


def apply_to_projective_complex(f: FunctorData, pc: ProjComplex) -> ProjComplex:
    """Substitute images for summands and totalize.

    The summand j of pc in source degree s contributes its image shifted
    to total degrees s + t: degree t of that image is the block (s, j, t)
    of F(pc)^(s+t), and the blocks of one total degree are laid out in
    the order of (s, j).  The differential is the internal differential
    of each image scaled by (-1)^s plus the substituted differential of
    pc (`_substitute` with shift 1).  The cache entry keeps the block
    offsets next to F(pc), so maps between complexes read the same layout.
    """
    if pc.algebra is not f.source:
        raise ValueError("complex over the wrong algebra")
    # key by id but store the keyed object: ids can be reused after
    # garbage collection, and the stored reference also pins the object
    key = ("apply", id(pc))
    hit = f._apply_cache.get(key)
    if hit is not None and hit[0] is pc:
        return hit[1]
    alg = f.target
    verts: dict[int, list[str]] = {}
    offsets: dict[tuple[int, int, int], int] = {}
    for s in sorted(pc.terms):
        for j, v in enumerate(pc.terms[s].vertices):
            for t, ps in f.images[v].terms.items():
                col = verts.setdefault(s + t, [])
                offsets[(s, j, t)] = len(col)
                col.extend(ps.vertices)
    terms = {n: ProjSummands(alg, vs) for n, vs in verts.items()}
    dmats: dict[int, ElementMatrix] = {}
    for s in sorted(pc.terms):
        sign = 1 if s % 2 == 0 else -1
        for j, v in enumerate(pc.terms[s].vertices):
            for t, d in f.images[v].dmats.items():
                n = s + t
                shape = (len(verts[n + 1]), len(verts[n]))
                _add_block(alg, dmats, n, shape, (offsets[(s, j, t + 1)], offsets[(s, j, t)]), d, sign)
    _substitute(f, pc.dmats, 1, (terms, offsets), (terms, offsets), dmats)
    out = ProjComplex(alg, terms, dict(sorted(dmats.items())))
    f._apply_cache[key] = (pc, out, offsets)
    return out


def _layout(f: FunctorData, pc: ProjComplex) -> tuple[ProjComplex, dict]:
    """F(pc) and its block offsets, looked up through
    apply_to_projective_complex."""
    out = apply_to_projective_complex(f, pc)
    return out, f._apply_cache[("apply", id(pc))][2]


def _substitute(f: FunctorData, comps: dict[int, ElementMatrix], shift: int, cols, rows, out: dict) -> None:
    """Add the image under f of a degreewise map of source complexes.

    comps[s] is a matrix of source-algebra elements from degree s of one
    complex to degree s + shift of another; cols and rows are the
    (terms, offsets) layouts of their images.  Entry (k, j) of comps[s]
    is sent to its image chain map, and degree t of that image lands in
    out[s + t] at the rows of block (s + shift, k, t) and the columns of
    block (s, j, t).  Each entry's image is computed once and spread
    over its degrees.  Shift 1 gives the substituted part of the
    differential of F(pc); shift 0 gives F on a chain map.
    """
    alg = f.target
    col_terms, col_off = cols
    row_terms, row_off = rows
    for s, m in comps.items():
        for k, row in enumerate(m):
            for j, entry in enumerate(row):
                if not entry:
                    continue
                for t, block in f.element_map_emats(entry).items():
                    n = s + t
                    shape = (len(row_terms[n + shift].vertices), len(col_terms[n].vertices))
                    at = (row_off[(s + shift, k, t)], col_off[(s, j, t)])
                    _add_block(alg, out, n, shape, at, block)


def apply_to_proj_chain_map(f: FunctorData, mu: ProjChainMap) -> ProjChainMap:
    """Image of a degreewise map between source projective complexes.

    The same substitution as the differential of F(pc), with shift 0: the
    image of entry (k, j) of mu in degree s maps block (s, j, t) of
    F(source) to block (s, k, t) of F(target).  Substitution is strict,
    so F(nu o mu) = F(nu) o F(mu) and F(id) = id on the nose.
    """
    src, src_off = _layout(f, mu.source)
    tgt, tgt_off = _layout(f, mu.target)
    comps: dict[int, ElementMatrix] = {}
    _substitute(f, mu.comps, 0, (src.terms, src_off), (tgt.terms, tgt_off), comps)
    return ProjChainMap(src, tgt, dict(sorted(comps.items())))


def apply_to_module(f: FunctorData, x, window_lo: int) -> ProjComplex:
    """Image of a module: substitute into its minimal resolution down to
    window_lo.  Quasi-isomorphic to the true image in all degrees
    >= window_lo + width + 1."""
    if window_lo > 0:
        raise ValueError("window_lo must be <= 0")
    if x.is_zero():
        return ProjComplex(f.target, {}, {}, check=False)
    return apply_to_projective_complex(f, minimal_resolution(x, -window_lo).proj_complex(window_lo))


def lift_to_resolutions(phi: RepHom, window_lo: int) -> ProjChainMap:
    """Lift a module map to a chain map of minimal resolutions.

    P_x,k is free on its generators, so lambda_k is fixed by where they go:
    one solve through post (the cover of y, then d_y,k) per vertex v gives
    the images of all the generators at v, read as lambda_k's element
    matrix.  A map that is not a module map lifts generator by generator
    too, so post o lambda_k is checked against the map at every vertex.
    """
    if window_lo > 0:
        raise ValueError("window_lo must be <= 0")
    x, y = phi.source, phi.target
    alg = x.algebra
    resx = minimal_resolution(x, -window_lo)
    resy = minimal_resolution(y, -window_lo)
    comps: dict[int, ElementMatrix] = {}
    prev: RepHom | None = None
    for k in range(0, -window_lo + 1):
        ps_x, ps_y = resx.terms[k], resy.terms[k]
        if not len(ps_x.vertices) or not len(ps_y.vertices):
            break
        if k == 0:
            target = phi.compose(resx.homs[0])
            post = resy.homs[0]
        else:
            target = prev.compose(resx.diff_hom(k))
            post = resy.diff_hom(k)
        emat = [[{} for _ in ps_x.vertices] for _ in ps_y.vertices]
        for v in dict.fromkeys(ps_x.vertices):
            gens = [j for j, u in enumerate(ps_x.vertices) if u == v]
            cols = [ps_x.generator_index(j) for j in gens]
            sol = solve(post.mats[v], Matrix(x.p, target.mats[v].data[:, cols]))
            if sol is None:
                raise ValueError("comparison lift failed")
            for i, (l, pth) in enumerate(ps_y.layout()[v]):
                for c, j in zip(sol.data[i], gens):
                    if c:
                        emat[l][j][pth] = int(c)
        lam = element_matrix_to_hom(alg, emat, ps_x, ps_y)
        if any(post.mats[v] @ lam.mats[v] != target.mats[v] for v in alg.quiver.vertices):
            raise ValueError("comparison lift failed")
        comps[-k] = emat
        prev = lam
    return ProjChainMap(resx.proj_complex(window_lo), resy.proj_complex(window_lo), comps)


def apply_to_map(f: FunctorData, phi: RepHom, window_lo: int) -> ProjChainMap:
    """Image of a module morphism as a map of substituted resolutions."""
    return apply_to_proj_chain_map(f, lift_to_resolutions(phi, window_lo))


def compose(f: FunctorData, g: FunctorData) -> FunctorData:
    """Composite data: first f, then g."""
    if f.target is not g.source:
        raise ValueError("composition mismatch")
    images = {v: apply_to_projective_complex(g, f.images[v]) for v in f.source.quiver.vertices}
    arrow_maps = {}
    for n, s, t in f.source.quiver.arrows:
        am = apply_to_proj_chain_map(g, f.arrow_maps[n])
        arrow_maps[n] = ProjChainMap(images[t], images[s], am.comps)
    return FunctorData(f.source, g.target, images, arrow_maps)


# -- non-negativity ------------------------------------------------------


class NonNegativityReport:
    def __init__(self, ok: bool, depth: int, details: dict):
        self.ok = ok
        self.depth = depth
        self.details = details

    def __bool__(self):
        return self.ok


def is_non_negative(f: FunctorData, depth: int = 8) -> NonNegativityReport:
    """Certify non-negativity: projective images in degrees [0, width]
    (strict relations are checked by `FunctorData`), and vanishing negative
    homology of the image of every simple, checked down to -depth (a depth
    certificate: finite-length induction extends it to all modules)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    details: dict = {}
    ok = True
    for v in f.source.quiver.vertices:
        img = f.images[v]
        if img.terms and img.lo < 0:
            details[("degrees", v)] = img.lo
            ok = False
    if ok:
        for v in f.source.quiver.vertices:
            s = simple(f.source, v)
            img = apply_to_module(f, s, -depth - 2)
            for i, h in homology_dims(img.to_complex()).items():
                if -depth <= i < 0:
                    details[("homology", v, i)] = h
                    ok = False
    return NonNegativityReport(ok, depth, details)


# -- tilting -------------------------------------------------------------


class TiltingCandidate:
    def __init__(self, algebra: BoundQuiverAlgebra, summands: list[ProjComplex]):
        self.algebra = algebra
        self.summands = list(summands)
        if not self.summands:
            raise ValueError("a tilting candidate needs at least one summand")
        for s in self.summands:
            if s.algebra is not algebra:
                raise ValueError("summand over the wrong algebra")

    def total(self) -> Complex:
        """The direct sum of the summands' complexes."""
        return direct_sum_complex([s.to_complex() for s in self.summands])


class TiltingReport:
    def __init__(self, self_orthogonal: bool, generates: str, rounds: int, failures: dict):
        self.self_orthogonal = self_orthogonal
        self.generates = generates  # "yes" | "unknown"
        self.rounds = rounds
        self.failures = failures


def _minimal(c: Complex) -> Complex:
    """The minimal complex of a complex of projectives c, as the Complex of
    its shared sums, which keeps its view: `minimize` of the `recognize`
    view, so `recognize` of the result is a lookup."""
    return minimize(recognize(c))[0].to_complex()


def check_tilting(t: TiltingCandidate, search_depth: int = 4, seed: int = 0) -> TiltingReport:
    """Self-orthogonality is exact; generation is a bounded thick-closure
    search (close under shifts, cones of hom-class maps, and direct
    summands) that reports "yes" or "unknown".  The pool holds minimal
    complexes of shared sums (`_minimal`) shifted to start in degree 0,
    keyed by signature; the cones of classes x -> y[n] and the pieces of
    `homological.split_complex`, which certifies each piece by a local
    Z^0 and raises DecompositionError when it cannot, enter as complexes."""
    if search_depth < 0:
        raise ValueError("search depth must be >= 0")
    c = t.total()
    span = c.hi - c.lo
    dims = {n: hom_k_dim(c, c, n) for n in range(-span, span + 1) if n}
    failures = {n: d for n, d in dims.items() if d}
    goal = {((0, (v,)),) for v in t.algebra.quiver.vertices}
    pool: dict[tuple, Complex] = {}

    def add(x: Complex):
        mc = _minimal(x)
        sig = recognize(mc).signature()
        if not sig:
            return
        # normalize the degree window to start at 0
        lo = sig[0][0]
        sig = tuple((i - lo, vs) for i, vs in sig)
        if sig not in pool:
            pool[sig] = shift(mc, lo)

    for s in t.summands:
        add(s.to_complex())
    reached = lambda: all(g in pool for g in goal)
    rounds = 0
    while not reached() and rounds < search_depth:
        rounds += 1
        items = list(pool.values())
        for x in items:
            for piece in split_complex(x, seed):
                add(piece)
        items = list(pool.values())
        for x in items:
            for y in items:
                span = max(1, x.hi - x.lo + y.hi - y.lo)
                for n in range(-span, span + 1):
                    for b in hom_k(x, y, n).basis:
                        add(cone(b)[0])
            if reached():
                break
    return TiltingReport(not failures, "yes" if reached() else "unknown", rounds, failures)


class EndoPresentation:
    """Quiver-with-relations presentation of the endomorphism algebra of a
    tilting candidate in the homotopy category.

    Multiplication is written in left-to-right order (x * y means "x then
    y" as morphisms), so the endomorphism presentation of the regular
    candidate {P_v[0]} recovers the algebra itself rather than its
    opposite.
    """

    def __init__(self, dim: int, multiplicities: list[int], quiver: Quiver, relation_count: int):
        self.dim = dim
        self.multiplicities = multiplicities
        self.quiver = quiver
        self.relation_count = relation_count


def endomorphism_presentation(t: TiltingCandidate, seed: int = 0) -> EndoPresentation:
    """Gabriel quiver of E = End_K(T) and a relation count.

    The minimized summands are grouped into homotopy-isomorphism classes
    (the vertices) by `homological.group_isomorphic`, keyed by signature:
    minimal complexes of projectives are homotopy equivalent exactly when
    they are strictly isomorphic.  E is built from hom_k bases with its structure
    constants, rad E is the trace-form radical of
    `homological._end_radical`, and rad^2 E is
    spanned by the products of pairs of radical vectors.  Both are
    two-sided ideals, so each is the sum of its blocks e_u(-)e_v, and
    the arrows v -> u number the rank of rad on the coordinates of the
    block (u, v) (the maps S_u -> S_v) minus that of rad^2.  The trace form
    finds the radical only in characteristic p > dim E, so a candidate
    with dim E >= p raises DecompositionError instead of returning a
    wrong quiver.
    """
    alg = t.algebra
    p = alg.p
    # not shifted: End_K(T) depends on the relative degrees of the summands
    minimal = [_minimal(s.to_complex()) for s in t.summands]
    classes = group_isomorphic(minimal, lambda c: recognize(c).signature(), seed)
    cxs, mult = [c for c, _ in classes], [k for _, k in classes]
    r = len(cxs)
    blocks = [(u, v) for u in range(r) for v in range(r)]
    hk = {(u, v): hom_k(cxs[u], cxs[v], 0) for u, v in blocks}
    # E coordinates: the class bases of the blocks, in order
    offs = np.cumsum([0] + [hk[b].dim for b in blocks]).tolist()
    span = {b: slice(offs[k], offs[k + 1]) for k, b in enumerate(blocks)}
    dim = offs[-1]
    # structure constants, left-to-right: (u->v) * (v->w) = composite u->w
    sc = np.zeros((dim, dim, dim), dtype=np.int64)
    for u, v, w in itertools.product(range(r), repeat=3):
        for k1, b1 in enumerate(hk[(u, v)].basis):
            for k2, b2 in enumerate(hk[(v, w)].basis):
                coords = hk[(u, w)].coordinates(b2.compose(b1))
                sc[span[(u, v)].start + k1, span[(v, w)].start + k2, span[(u, w)]] = coords
    # radical vectors as rows; sc[a, b] holds the coordinates of
    # basis_a * basis_b, so the products x * y of radical vectors are two
    # contractions
    rad = _end_radical(p, sc).data.T
    left = np.tensordot(rad, sc, axes=(1, 0)) % p
    rad2 = np.tensordot(left, rad, axes=(1, 1)) % p
    rad2 = rad2.transpose(0, 2, 1).reshape(len(rad) ** 2, dim)
    # the block (u, v) holds maps S_u -> S_v, which give arrows v -> u
    # (maps between projectives run against the quiver arrows); a block
    # has few coordinates, so each rank is an rref of few columns
    arrows = []
    for b in blocks:
        count = rank(Matrix(p, rad[:, span[b]])) - rank(Matrix(p, rad2[:, span[b]]))
        for _ in range(count):
            arrows.append((f"x{len(arrows)}", str(b[1]), str(b[0])))
    quiver = Quiver([str(i) for i in range(r)], arrows)
    # relation count: dimension defect of the path algebra against E
    relation_count = max(0, _count_paths(quiver) - dim)
    return EndoPresentation(dim, mult, quiver, relation_count)


def _count_paths(q: Quiver) -> int:
    """The number of paths of q of length at most 8."""
    total = len(q.vertices)
    frontier = {v: 1 for v in q.vertices}
    for _ in range(8):
        nxt = {v: 0 for v in q.vertices}
        moved = 0
        for v, cnt in frontier.items():
            for a in q.out_arrows[v]:
                nxt[q.target(a)] += cnt
                moved += cnt
        if moved == 0:
            break
        total += sum(nxt.values())
        frontier = nxt
    return total


def strict_chain_automorphism(img: ProjComplex, rng) -> tuple[ProjChainMap, ProjChainMap]:
    """A random strict chain automorphism of a projective complex and its
    inverse, as element-level maps: `homological.find_strict_iso` of the
    complex with itself, inverted degreewise; ValueError when the search
    finds none."""
    alg = img.algebra
    c = img.to_complex()
    f = find_strict_iso(c, c, rng)
    if f is None:
        raise ValueError("no strict chain automorphism found")
    comps, invs = {}, {}
    for i, ps in img.terms.items():
        h = f.map(i)
        h_inv = RepHom(h.target, h.source, {v: inverse(m) for v, m in h.mats.items()}, check=False)
        comps[i] = hom_to_element_matrix(alg, h, ps, ps)
        invs[i] = hom_to_element_matrix(alg, h_inv, ps, ps)
    return ProjChainMap(img, img, comps), ProjChainMap(img, img, invs)


def perturb_functor_data(f: FunctorData, seed: int = 0) -> tuple[FunctorData, dict]:
    """An isomorphic copy of the data: arrow maps conjugated by random
    strict chain automorphisms of the images.  Returns (data, psis) where
    psis[v] witnesses the isomorphism on the image of the projective at v."""
    rng = np.random.default_rng(seed)
    psis = {}
    psis_inv = {}
    for v in f.source.quiver.vertices:
        psi, psi_inv = strict_chain_automorphism(f.images[v], rng)
        psis[v] = psi
        psis_inv[v] = psi_inv
    arrow_maps = {}
    for n, s, t in f.source.quiver.arrows:
        am = psis_inv[s].compose(f.arrow_maps[n]).compose(psis[t])
        arrow_maps[n] = ProjChainMap(f.images[t], f.images[s], am.comps)
    return FunctorData(f.source, f.target, f.images, arrow_maps), psis


def conjugation_comparison(f1: FunctorData, f2: FunctorData, psis: dict, x) -> ProjChainMap:
    """Chain map apply(f2, res_x) -> apply(f1, res_x) assembled from the
    conjugating automorphisms (both data share their images)."""
    window = f1.stable_window
    res = minimal_resolution(x, -window).proj_complex(window)
    c2, off2 = _layout(f2, res)
    c1, off1 = _layout(f1, res)
    comps: dict[int, ElementMatrix] = {}
    for (s, j, t), coff in off2.items():
        n = s + t
        shape = (len(c1.terms[n].vertices), len(c2.terms[n].vertices))
        block = psis[res.terms[s].vertices[j]].comp(t)
        _add_block(f1.target, comps, n, shape, (off1[(s, j, t)], coff), block)
    return ProjChainMap(c2, c1, comps)
