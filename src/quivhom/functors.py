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
sequences.
"""

from __future__ import annotations

import numpy as np

from .algebra import BoundQuiverAlgebra, Element, Path, Quiver, path_arrows, path_source
from .complexes import ChainMap, Complex, HomEngine, ShiftedMap, hom_k
from .exactlin import Matrix, inverse, nullspace, rank, solve
from .homological import minimal_resolution
from .modules import (
    ElementMatrix,
    ProjSummands,
    RepHom,
    element_matrix_to_hom,
    emat_is_zero,
    hom_to_element_matrix,
    identity_hom,
    simple,
)
from .projcplx import (
    ProjChainMap,
    ProjComplex,
    _identity_emat,
    _zero_emat,
    direct_sum_proj,
    identity_proj_chain_map,
    minimize,
)


class FunctorData:
    """Combinatorial presentation of a non-negative triangle functor."""

    def __init__(self, source: BoundQuiverAlgebra, target: BoundQuiverAlgebra, images: dict[str, ProjComplex], arrow_maps: dict[str, ProjChainMap], check: bool = True):
        self.source = source
        self.target = target
        self.images = dict(images)
        self.arrow_maps = dict(arrow_maps)
        self._path_cache: dict[Path, ProjChainMap] = {}
        self._apply_cache: dict = {}
        # negative-degree images are legal data but fail is_non_negative
        width = 0
        for v in source.quiver.vertices:
            img = self.images[v]
            if img.terms:
                width = max(width, img.hi)
        self.width = width
        if check:
            for n, s, t in source.quiver.arrows:
                am = self.arrow_maps[n]
                if am.source is not self.images[t] or am.target is not self.images[s]:
                    raise ValueError(f"arrow map {n} has wrong endpoints")
            for r in source.relations:
                if not self._element_map_is_zero(r):
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
        alg = self.target
        comps: dict[int, ElementMatrix] = {}
        for pth, c in e.items():
            pm = self.path_map(pth)
            for i in pm.comps:
                mat = pm.comps[i]
                if i not in comps:
                    comps[i] = _zero_emat(
                        len(tgt_img.summands(i).vertices), len(src_img.summands(i).vertices)
                    )
                for r in range(len(mat)):
                    for s in range(len(mat[0])):
                        comps[i][r][s] = alg.add(comps[i][r][s], alg.smul(c, mat[r][s]))
        return comps

    def _element_map_is_zero(self, e: Element) -> bool:
        comps = self.element_map_emats(e)
        return all(emat_is_zero(m) for m in comps.values())

    def __repr__(self):
        return f"FunctorData(width={self.width})"


def identity_functor(alg: BoundQuiverAlgebra) -> FunctorData:
    images = {
        v: ProjComplex(alg, {0: ProjSummands(alg, [v])}, {}, check=False)
        for v in alg.quiver.vertices
    }
    arrow_maps = {}
    for n, s, t in alg.quiver.arrows:
        arrow_maps[n] = ProjChainMap(images[t], images[s], {0: [[alg.arrow(n)]]})
    return FunctorData(alg, alg, images, arrow_maps)


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


# -- application --------------------------------------------------------


def apply_to_projective_complex(f: FunctorData, pc: ProjComplex) -> ProjComplex:
    """Substitute images for summands and totalize.

    The summand of pc in source degree s contributes its image shifted to
    total degrees s + t, with internal differential scaled by (-1)^s and
    the substituted differential entries connecting source degrees.
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
    blocks: dict[int, list[tuple[int, int, int]]] = {}
    for s in sorted(pc.terms):
        for j, v in enumerate(pc.terms[s].vertices):
            img = f.images[v]
            for t in img.terms:
                blocks.setdefault(s + t, []).append((s, j, t))
    terms: dict[int, ProjSummands] = {}
    offsets: dict[tuple[int, int, int], int] = {}
    for n in blocks:
        verts: list[str] = []
        for (s, j, t) in blocks[n]:
            offsets[(s, j, t)] = len(verts)
            v = pc.terms[s].vertices[j]
            verts.extend(f.images[v].summands(t).vertices)
        terms[n] = ProjSummands(alg, verts)
    dmats: dict[int, ElementMatrix] = {}
    for n in sorted(blocks):
        if n + 1 not in blocks:
            continue
        rows = len(terms[n + 1].vertices)
        cols = len(terms[n].vertices)
        mat = _zero_emat(rows, cols)
        wrote = False
        for (s, j, t) in blocks[n]:
            v = pc.terms[s].vertices[j]
            img = f.images[v]
            coff = offsets[(s, j, t)]
            ncols = len(img.summands(t).vertices)
            # internal differential, sign (-1)^s
            if (s, j, t + 1) in offsets:
                roff = offsets[(s, j, t + 1)]
                d = img.dmat(t)
                sign = 1 if s % 2 == 0 else -1
                for r in range(len(d)):
                    for cidx in range(ncols):
                        if d[r][cidx]:
                            mat[roff + r][coff + cidx] = alg.add(
                                mat[roff + r][coff + cidx], alg.smul(sign, d[r][cidx])
                            )
                            wrote = True
            # substituted entries of the source differential
            if s in pc.dmats:
                dsrc = pc.dmat(s)
                for k in range(len(pc.terms[s + 1].vertices)):
                    entry = dsrc[k][j]
                    if not entry or (s + 1, k, t) not in offsets:
                        continue
                    comp = f.element_map_emats(entry).get(t)
                    if comp is None:
                        continue
                    roff = offsets[(s + 1, k, t)]
                    for r in range(len(comp)):
                        for cidx in range(ncols):
                            if comp[r][cidx]:
                                mat[roff + r][coff + cidx] = alg.add(
                                    mat[roff + r][coff + cidx], comp[r][cidx]
                                )
                                wrote = True
        if wrote:
            dmats[n] = mat
    out = ProjComplex(alg, terms, dmats)
    out._apply_blocks = blocks
    out._apply_offsets = offsets
    f._apply_cache[key] = (pc, out)
    return out


def apply_to_proj_chain_map(f: FunctorData, mu: ProjChainMap) -> ProjChainMap:
    """Image of a degreewise map between source projective complexes."""
    src = apply_to_projective_complex(f, mu.source)
    tgt = apply_to_projective_complex(f, mu.target)
    alg = f.target

    def block_index(pc: ProjComplex, fpc: ProjComplex):
        idx = {}
        for n in fpc.terms:
            off = 0
            for s in sorted(pc.terms):
                for j, v in enumerate(pc.terms[s].vertices):
                    t = n - s
                    size = len(f.images[v].summands(t).vertices)
                    if size:
                        idx[(n, s, j)] = off
                        off += size
        return idx

    sidx = block_index(mu.source, src)
    tidx = block_index(mu.target, tgt)
    comps: dict[int, ElementMatrix] = {}
    for n in src.terms:
        if n not in tgt.terms:
            continue
        rows = len(tgt.terms[n].vertices)
        cols = len(src.terms[n].vertices)
        mat = _zero_emat(rows, cols)
        wrote = False
        for s in sorted(mu.source.terms):
            if s not in mu.comps:
                continue
            m = mu.comps[s]
            for j in range(len(mu.source.terms[s].vertices)):
                if (n, s, j) not in sidx:
                    continue
                t = n - s
                coff = sidx[(n, s, j)]
                for k in range(len(mu.target.terms[s].vertices)):
                    entry = m[k][j]
                    if not entry or (n, s, k) not in tidx:
                        continue
                    comp = f.element_map_emats(entry).get(t)
                    if comp is None:
                        continue
                    roff = tidx[(n, s, k)]
                    for r in range(len(comp)):
                        for cidx in range(len(comp[0])):
                            if comp[r][cidx]:
                                mat[roff + r][coff + cidx] = alg.add(
                                    mat[roff + r][coff + cidx], comp[r][cidx]
                                )
                                wrote = True
        if wrote:
            comps[n] = mat
    return ProjChainMap(src, tgt, comps)


def apply_to_module(f: FunctorData, x, window_lo: int) -> ProjComplex:
    """Image of a module: substitute into its minimal resolution down to
    window_lo.  Quasi-isomorphic to the true image in all degrees
    >= window_lo + width + 1."""
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
    with strict relations (exact), and vanishing negative homology of the
    image of every simple, checked down to -depth (a depth certificate:
    finite-length induction extends the simple case to all modules)."""
    details: dict = {}
    ok = True
    for v in f.source.quiver.vertices:
        img = f.images[v]
        if img.terms and img.lo < 0:
            details[("degrees", v)] = img.lo
            ok = False
    for r in f.source.relations:
        if not f._element_map_is_zero(r):
            details[("relation", str(r))] = False
            ok = False
    if ok:
        from .complexes import homology

        for v in f.source.quiver.vertices:
            s = simple(f.source, v)
            img = apply_to_module(f, s, -depth - 2)
            c = img.to_complex()
            for i in range(-depth, 0):
                h = homology(c, i)
                if not h.is_zero():
                    details[("homology", v, i)] = h.total_dim()
                    ok = False
    return NonNegativityReport(ok, depth, details)


# -- tilting -------------------------------------------------------------


class TiltingCandidate:
    def __init__(self, algebra: BoundQuiverAlgebra, summands: list[ProjComplex]):
        self.algebra = algebra
        self.summands = list(summands)
        for s in self.summands:
            if s.algebra is not algebra:
                raise ValueError("summand over the wrong algebra")

    def total(self) -> ProjComplex:
        return direct_sum_proj(self.summands)


class TiltingReport:
    def __init__(self, self_orthogonal: bool, generates: str, rounds: int, failures: dict):
        self.self_orthogonal = self_orthogonal
        self.generates = generates  # "yes" | "unknown"
        self.rounds = rounds
        self.failures = failures


def _split_proj_complex(pc: ProjComplex, seed: int = 0, budget: int = 40) -> list[ProjComplex]:
    """Direct summands of a complex of projectives, via Fitting splitting
    of strict chain endomorphisms.  Pieces are re-minimized."""
    from .homological import _min_poly, _splitting_factor

    rng = np.random.default_rng(seed)
    out: list[ProjComplex] = []
    stack = [pc]
    while stack:
        cur = stack.pop()
        if not cur.terms:
            continue
        c = cur.to_complex()
        eng = HomEngine(c, c)
        cycles = nullspace(eng.boundary(0))
        endos = [eng.map_of(0, cycles.data[:, k]) for k in range(cycles.cols)]
        if len(endos) <= 1:
            out.append(cur)
            continue
        split = None
        for _ in range(budget):
            coeffs = rng.integers(0, c.algebra.p, size=len(endos))
            fm = {i: None for i in c.terms}
            for co, b in zip(coeffs, endos):
                for i in c.terms:
                    term = b.comp(i).scale(int(co))
                    fm[i] = term if fm[i] is None else fm[i] + term
            # total matrix over all degrees and vertices
            blocks = []
            for i in sorted(c.terms):
                for v in c.algebra.quiver.vertices:
                    if fm[i].mats[v].rows:
                        blocks.append(fm[i].mats[v].data)
            n = sum(b.shape[0] for b in blocks)
            F = np.zeros((n, n), dtype=np.int64)
            off = 0
            for b in blocks:
                F[off : off + b.shape[0], off : off + b.shape[0]] = b
                off += b.shape[0]
            mp = _min_poly(c.algebra.p, F, rng)
            fac = _splitting_factor(c.algebra.p, mp, rng)
            if fac is None:
                continue
            split = _complex_fitting(cur, c, fm, fac)
            if split is not None:
                break
        if split is None:
            out.append(cur)
            continue
        stack.extend(split)
    return out


def _complex_fitting(pc: ProjComplex, c: Complex, fm: dict, poly) -> list[ProjComplex] | None:
    """Split a projective complex along ker/im of poly(f)^N degreewise."""
    from .modules import image, kernel, projective_cover

    alg = c.algebra
    p = alg.p
    # g = poly(f) degreewise, then a high power
    g = {}
    for i in c.terms:
        acc = None
        power = identity_hom(c.terms[i])
        for co in poly:
            if co % p:
                term = power.scale(co)
                acc = term if acc is None else acc + term
            power = fm[i].compose(power)
        g[i] = acc if acc is not None else identity_hom(c.terms[i]).scale(0)
    n = c.total_dim()
    for _ in range(max(1, n.bit_length())):
        g = {i: g[i].compose(g[i]) for i in g}
    kdim = idim = 0
    pieces = []
    for which in ("ker", "im"):
        terms = {}
        dmats = {}
        carriers = {}
        for i in c.terms:
            sub, incl = (kernel if which == "ker" else image)(g[i])
            if sub.total_dim():
                carriers[i] = (sub, incl)
        for i, (sub, incl) in carriers.items():
            ps, cov = projective_cover(sub)
            if ps.rep().total_dim() != sub.total_dim():
                return None  # split piece not projective termwise: reroll
            iso = cov
            terms[i] = (ps, sub, incl, iso)
        for i in terms:
            if i + 1 not in terms:
                continue
            ps, sub, incl, iso = terms[i]
            pt, subt, inclt, isot = terms[i + 1]
            # induced differential in cover coordinates
            dsub_m = {}
            for v in alg.quiver.vertices:
                x = solve(inclt.mats[v], (c.diff(i).mats[v] @ incl.mats[v]))
                if x is None:
                    return None
                dsub_m[v] = x
            dsub = RepHom(sub, subt, dsub_m, check=False)
            # d in cover coordinates: cov_t^{-1} o dsub o cov
            mats = {}
            for v in alg.quiver.vertices:
                rhs = dsub.mats[v] @ iso.mats[v]
                x = solve(isot.mats[v], rhs)
                if x is None:
                    return None
                mats[v] = x
            dmat_hom = RepHom(ps.rep(), pt.rep(), mats, check=False)
            dmats[i] = hom_to_element_matrix(alg, dmat_hom, ps, pt)
        tcount = sum(t[0].rep().total_dim() for t in terms.values())
        if which == "ker":
            kdim = tcount
        else:
            idim = tcount
        if terms:
            pieces.append(
                ProjComplex(alg, {i: t[0] for i, t in terms.items()}, dmats, check=False)
            )
    if kdim == 0 or idim == 0 or kdim + idim != n:
        return None
    return [minimize(x)[0] for x in pieces]


def check_tilting(t: TiltingCandidate, search_depth: int = 4, seed: int = 0) -> TiltingReport:
    """Self-orthogonality is exact; generation is a bounded thick-closure
    search (close under shifts, cones of hom-class maps, and direct
    summands) that reports "yes" or "unknown"."""
    total = t.total()
    c = total.to_complex()
    failures = {}
    selforth = True
    span = total.hi - total.lo
    for n in range(-span, span + 1):
        if n == 0:
            continue
        d = hom_k(c, c, n).dim
        if d:
            failures[n] = d
            selforth = False
    goal = {((0, (v,)),) for v in t.algebra.quiver.vertices}
    pool: dict[tuple, ProjComplex] = {}

    def add(pc: ProjComplex):
        mn, _, _ = minimize(pc)
        if not mn.terms:
            return
        # normalize the degree window to start at 0
        mn = mn.shift(mn.lo)
        sig = mn.signature()
        if sig not in pool:
            pool[sig] = mn

    for s in t.summands:
        add(s)
    reached = lambda: all(g in pool for g in goal)
    rounds = 0
    while not reached() and rounds < search_depth:
        rounds += 1
        items = list(pool.values())
        for x in items:
            for piece in _split_proj_complex(x, seed=seed):
                add(piece)
        items = list(pool.values())
        for x in items:
            for y in items:
                cx, cy = x.to_complex(), y.to_complex()
                span = max(1, x.hi - x.lo + y.hi - y.lo)
                for n in range(-span, span + 1):
                    hk = hom_k(cx, cy, n)
                    for b in hk.basis:
                        add(_proj_cone(x, y, n, b))
            if reached():
                break
        if reached():
            break
    return TiltingReport(selforth, "yes" if reached() else "unknown", rounds, failures)


def _proj_cone(x: ProjComplex, y: ProjComplex, n: int, b: ShiftedMap) -> ProjComplex:
    """Cone of a chain map x -> y[n], at the element-matrix level."""
    alg = x.algebra
    ysh = y.shift(n)
    sign = 1 if n % 2 == 0 else -1
    # element matrices of b, reinterpreted into the shifted target
    comps = {}
    for i in range(x.lo, x.hi + 1):
        src_ps = x.summands(i)
        tgt_ps = ysh.summands(i)
        if not len(src_ps.vertices) or not len(tgt_ps.vertices):
            continue
        comps[i] = hom_to_element_matrix(alg, b.comp(i), src_ps, tgt_ps)
    terms = {}
    dmats = {}
    for i in range(min(x.lo - 1, ysh.lo), max(x.hi, ysh.hi) + 1):
        verts = list(x.summands(i + 1).vertices) + list(ysh.summands(i).vertices)
        if verts:
            terms[i] = ProjSummands(alg, verts)
    for i in terms:
        if i + 1 not in terms:
            continue
        nx, ny = len(x.summands(i + 1).vertices), len(ysh.summands(i).vertices)
        mx, my = len(x.summands(i + 2).vertices), len(ysh.summands(i + 1).vertices)
        mat = _zero_emat(mx + my, nx + ny)
        dx = x.dmat(i + 1)
        for r in range(mx):
            for cidx in range(nx):
                mat[r][cidx] = alg.smul(-1, dx[r][cidx])
        fmat = comps.get(i + 1)
        if fmat is not None:
            for r in range(my):
                for cidx in range(nx):
                    mat[mx + r][cidx] = alg.smul(sign, fmat[r][cidx])
        dy = ysh.dmat(i)
        for r in range(my):
            for cidx in range(ny):
                mat[mx + r][nx + cidx] = dy[r][cidx]
        dmats[i] = mat
    return ProjComplex(alg, terms, dmats)


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


def endomorphism_presentation(t: TiltingCandidate, seed: int = 0, relation_cap: int = 8) -> EndoPresentation:
    alg = t.algebra
    p = alg.p
    # group summands into iso classes (minimal models are compared)
    reps: list[ProjComplex] = []
    mult: list[int] = []
    for s in t.summands:
        mn, _, _ = minimize(s)
        placed = False
        for idx, r in enumerate(reps):
            if r.signature() == mn.signature() and _proj_complexes_homotopy_iso(r, mn, seed):
                mult[idx] += 1
                placed = True
                break
        if not placed:
            reps.append(mn)
            mult.append(1)
    r = len(reps)
    cxs = [x.to_complex() for x in reps]
    hk = {}
    basis_index = []  # (u, v, k)
    for u in range(r):
        for v in range(r):
            hk[(u, v)] = hom_k(cxs[u], cxs[v], 0)
            for k in range(hk[(u, v)].dim):
                basis_index.append((u, v, k))
    dim = len(basis_index)
    pos = {t3: i for i, t3 in enumerate(basis_index)}

    def as_vector(u, v, coords):
        vec = np.zeros(dim, dtype=np.int64)
        for k, cval in enumerate(coords):
            vec[pos[(u, v, k)]] = cval
        return vec

    # structure constants, left-to-right: (u->v) * (v->w) = composite u->w
    sc = np.zeros((dim, dim, dim), dtype=np.int64)
    for i1, (u, v, k1) in enumerate(basis_index):
        for i2, (v2, w, k2) in enumerate(basis_index):
            if v2 != v:
                continue
            fmap = hk[(u, v)].basis[k1]
            gmap = hk[(v, w)].basis[k2]
            comp_comps = {}
            for d in set(fmap.comps) | set(gmap.comps):
                comp_comps[d] = gmap.comp(d).compose(fmap.comp(d))
            comp = ShiftedMap(cxs[u], cxs[w], 0, comp_comps, check=False)
            coords = hk[(u, w)].coordinates(comp)
            sc[i1, i2] = as_vector(u, w, coords)
    # radical via the trace form of the regular representation
    L = [Matrix(p, sc[i].T.copy()) for i in range(dim)]
    T = np.zeros((dim, dim), dtype=np.int64)
    for i in range(dim):
        for j in range(dim):
            T[i, j] = int(np.trace((L[i] @ L[j]).data)) % p
    radbasis = nullspace(Matrix(p, T))
    # arrows u -> v of the presentation live in the block Hom(S_v, S_u)
    # (maps between projectives run against the quiver arrows)
    rad_block: dict[tuple[int, int], Matrix] = {}
    for u in range(r):
        for v in range(r):
            cols = []
            for k in range(radbasis.cols):
                vec = radbasis.data[:, k]
                blockvec = np.zeros(hk[(u, v)].dim, dtype=np.int64)
                nz = False
                for k2 in range(hk[(u, v)].dim):
                    blockvec[k2] = vec[pos[(u, v, k2)]]
                    nz = nz or blockvec[k2]
                if nz:
                    cols.append(blockvec)
            if cols:
                from .exactlin import column_space_basis

                rad_block[(u, v)] = column_space_basis(
                    Matrix(p, np.stack(cols, axis=1))
                )
    # rad^2 blocks
    arrows = []
    for (u, v), bu in rad_block.items():
        sq_cols = []
        for w in range(r):
            if (u, w) in rad_block and (w, v) in rad_block:
                b1, b2 = rad_block[(u, w)], rad_block[(w, v)]
                for k1 in range(b1.cols):
                    for k2 in range(b2.cols):
                        x1 = as_vector(u, w, b1.data[:, k1])
                        x2 = as_vector(w, v, b2.data[:, k2])
                        prod = np.zeros(dim, dtype=np.int64)
                        for a in range(dim):
                            if x1[a]:
                                # sc[a][b] holds the coordinates of
                                # basis_a * basis_b
                                prod = (prod + x1[a] * (x2 @ sc[a] % p)) % p
                        blockvec = np.array(
                            [prod[pos[(u, v, k)]] for k in range(hk[(u, v)].dim)],
                            dtype=np.int64,
                        )
                        sq_cols.append(blockvec)
        if sq_cols:
            sq = Matrix(p, np.stack(sq_cols, axis=1))
            count = bu.cols - rank(sq)
        else:
            count = bu.cols
        # presentation arrow v -> u for each rad/rad^2 basis element in
        # the block of maps S_u <- S_v ... i.e. Hom(S_u, S_v) gives v -> u
        for k in range(count):
            arrows.append((f"x{len(arrows)}", str(v), str(u)))
    quiver = Quiver([str(i) for i in range(r)], arrows)
    # relation count: dimension defect of the path algebra against E
    path_count = _count_paths(quiver, relation_cap)
    relation_count = max(0, path_count - dim)
    return EndoPresentation(dim, mult, quiver, relation_count)


def _count_paths(q: Quiver, cap: int) -> int:
    total = len(q.vertices)
    frontier = {v: 1 for v in q.vertices}
    for _ in range(cap):
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


def _proj_complexes_homotopy_iso(x: ProjComplex, y: ProjComplex, seed: int = 0) -> bool:
    from .complexes import is_quasi_iso

    cx, cy = x.to_complex(), y.to_complex()
    hk = hom_k(cx, cy, 0)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        comps = None
        for b in hk.basis:
            co = int(rng.integers(0, x.algebra.p))
            if comps is None:
                comps = {i: b.comp(i).scale(co) for i in b.comps}
            else:
                for i in b.comps:
                    comps[i] = comps.get(i, b.comp(i).scale(0)) + b.comp(i).scale(co)
        if comps is None:
            return False
        try:
            cm = ChainMap(cx, cy, comps, check=False)
            if is_quasi_iso(cm):
                return True
        except Exception:
            continue
    return False


def strict_chain_automorphism(img: ProjComplex, rng) -> tuple[ProjChainMap, ProjChainMap]:
    """A random strict chain automorphism of a projective complex and its
    inverse, as element-level maps (identity plus a random strict endo,
    retried until invertible)."""
    alg = img.algebra
    c = img.to_complex()
    eng = HomEngine(c, c)
    cycles = nullspace(eng.boundary(0))
    endos = [eng.map_of(0, cycles.data[:, k]) for k in range(cycles.cols)]
    ident = {i: _identity_emat(alg, img.terms[i]) for i in img.terms}
    for _ in range(20):
        comps = {}
        invs = {}
        ok = True
        cand = {}
        coeffs = [int(rng.integers(0, alg.p)) for _ in endos]
        for i in img.terms:
            acc = None
            for co, b in zip(coeffs, endos):
                t = b.comp(i).scale(co)
                acc = t if acc is None else acc + t
            from .modules import identity_hom as _idh

            h = _idh(img.terms[i].rep()) if acc is None else _idh(img.terms[i].rep()) + acc
            inv_mats = {}
            for v, mthis in h.mats.items():
                ivm = inverse(mthis)
                if ivm is None and mthis.rows:
                    ok = False
                    break
                inv_mats[v] = ivm if ivm is not None else mthis
            if not ok:
                break
            cand[i] = (h, inv_mats)
        if not ok:
            continue
        for i, (h, inv_mats) in cand.items():
            ps = img.terms[i]
            comps[i] = hom_to_element_matrix(alg, h, ps, ps)
            hinv = RepHom(ps.rep(), ps.rep(), inv_mats, check=False)
            invs[i] = hom_to_element_matrix(alg, hinv, ps, ps)
        return ProjChainMap(img, img, comps), ProjChainMap(img, img, invs)
    return identity_proj_chain_map(img), identity_proj_chain_map(img)


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
    window = -f1.width - 2
    res = minimal_resolution(x, -window).proj_complex(window)
    c2 = apply_to_projective_complex(f2, res)
    c1 = apply_to_projective_complex(f1, res)
    alg = f1.target
    comps = {}
    for n in c2.terms:
        if n not in c1.terms:
            continue
        rows = len(c1.terms[n].vertices)
        cols = len(c2.terms[n].vertices)
        mat = _zero_emat(rows, cols)
        for (s, j, t) in c2._apply_blocks.get(n, []):
            v = res.terms[s].vertices[j]
            block = psis[v].comp(t)
            roff = c1._apply_offsets[(s, j, t)]
            coff = c2._apply_offsets[(s, j, t)]
            for r in range(len(block)):
                for cix in range(len(block[0]) if block else 0):
                    mat[roff + r][coff + cix] = block[r][cix]
        comps[n] = mat
    return ProjChainMap(c2, c1, comps)
