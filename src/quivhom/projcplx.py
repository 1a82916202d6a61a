"""Bounded complexes of explicit projective sums, with differentials kept
as matrices of algebra elements.

This exact combinatorial form is what functor data acts on, and it makes
"dropping contractible summands" a finite Gaussian cancellation: an entry
of a differential between two copies of the same P_v whose trivial-path
coefficient is nonzero is a unit of the local ring e_v A e_v, and the
corresponding 2x2 block splits off.  `minimize` performs all such
cancellations and tracks the degreewise projection/inclusion homotopy
equivalence back to the original complex.
"""

from __future__ import annotations

from .algebra import BoundQuiverAlgebra, Element
from .modules import (
    ElementMatrix,
    ProjSummands,
    element_matrix_to_hom,
    emat_compose,
    emat_is_zero,
    hom_to_element_matrix,
    lift,
    projective_cover,
)


def _zero_emat(rows: int, cols: int) -> ElementMatrix:
    return [[{} for _ in range(cols)] for _ in range(rows)]


def _add_block(alg, mats: dict, key, shape: tuple[int, int], at: tuple[int, int], block, scale: int = 1) -> None:
    """Add scale * block into mats[key] with its top-left corner at `at`.
    mats[key] is created, as a zero matrix of the given shape, on the
    first nonzero entry, so a key is present iff something was written."""
    roff, coff = at
    for r, row in enumerate(block):
        for c, e in enumerate(row):
            if not e:
                continue
            mat = mats.get(key)
            if mat is None:
                mat = mats[key] = _zero_emat(*shape)
            out = mat[roff + r]
            out[coff + c] = alg.add(out[coff + c], e if scale == 1 else alg.smul(scale, e))


def _identity_emat(alg, ps: ProjSummands) -> ElementMatrix:
    n = len(ps.vertices)
    out = _zero_emat(n, n)
    for i, v in enumerate(ps.vertices):
        out[i][i] = alg.e(v)
    return out


def element_unit_inverse(alg: BoundQuiverAlgebra, u: Element) -> Element:
    """Inverse of a unit of e_v A e_v: scalar part nonzero, radical part
    nilpotent, inverted by a terminating geometric series."""
    ends = alg.element_source_target(u)
    if ends is None or ends[0] != ends[1]:
        raise ValueError("not an endomorphism element")
    v = ends[0]
    triv = (v, ())
    c = u.get(triv, 0)
    if not c:
        raise ValueError("not a unit: trivial-path coefficient vanishes")
    cinv = pow(c, alg.p - 2, alg.p)
    r = {k: val for k, val in u.items() if k != triv}
    out = alg.e(v)
    term = alg.e(v)
    while True:
        term = alg.smul((-cinv) % alg.p, alg.mul(term, r))
        if not term:
            break
        out = alg.add(out, term)
    return alg.smul(cinv, out)


class ProjComplex:
    """terms[i] is a ProjSummands; dmats[i] : terms[i] -> terms[i+1]
    (an ElementMatrix with rows indexed by terms[i+1])."""

    def __init__(self, algebra: BoundQuiverAlgebra, terms: dict[int, ProjSummands], dmats: dict[int, ElementMatrix], check: bool = True):
        self.algebra = algebra
        self.terms = {i: t for i, t in terms.items() if len(t.vertices)}
        degs = sorted(self.terms)
        self.lo = degs[0] if degs else 0
        self.hi = degs[-1] if degs else -1
        self.dmats = {}
        for i, d in dmats.items():
            if i in self.terms and (i + 1) in self.terms:
                self.dmats[i] = d
        self._complex = None
        if check:
            for i in sorted(self.dmats):
                if i + 1 in self.dmats:
                    comp = emat_compose(self.algebra, self.dmats[i + 1], self.dmats[i])
                    if not emat_is_zero(comp):
                        raise ValueError(f"d^2 != 0 at degree {i}")

    def summands(self, i: int) -> ProjSummands:
        return self.terms.get(i, ProjSummands(self.algebra, ()))

    def dmat(self, i: int) -> ElementMatrix:
        if i in self.dmats:
            return self.dmats[i]
        return _zero_emat(len(self.summands(i + 1).vertices), len(self.summands(i).vertices))

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def shift(self, n: int) -> "ProjComplex":
        sign = 1 if n % 2 == 0 else -1
        terms = {i - n: t for i, t in self.terms.items()}
        dmats = {}
        for i, d in self.dmats.items():
            dmats[i - n] = [[self.algebra.smul(sign, e) for e in row] for row in d]
        return ProjComplex(self.algebra, terms, dmats, check=False)

    def to_complex(self):
        if self._complex is None:
            from .complexes import Complex

            terms = {i: t.rep() for i, t in self.terms.items()}
            diffs = {}
            for i in self.dmats:
                diffs[i] = element_matrix_to_hom(
                    self.algebra, self.dmats[i], self.terms[i], self.terms[i + 1]
                )
            self._complex = Complex(self.algebra, terms, diffs, check=False)
        return self._complex

    def signature(self) -> tuple:
        """(degree, sorted vertex multiset) profile; equal for isomorphic
        minimal complexes, used for cheap de-duplication."""
        return tuple(
            (i, tuple(sorted(self.terms[i].vertices))) for i in sorted(self.terms)
        )

    def __repr__(self):
        parts = ", ".join(f"{i}:{list(self.terms[i].vertices)}" for i in sorted(self.terms))
        return f"ProjComplex({parts})"


class ProjChainMap:
    """Degreewise ElementMatrix map between two ProjComplexes."""

    def __init__(self, source: ProjComplex, target: ProjComplex, comps: dict[int, ElementMatrix]):
        self.source = source
        self.target = target
        self.comps = {
            i: c
            for i, c in comps.items()
            if len(source.summands(i).vertices) and len(target.summands(i).vertices)
        }

    def comp(self, i: int) -> ElementMatrix:
        if i in self.comps:
            return self.comps[i]
        return _zero_emat(
            len(self.target.summands(i).vertices), len(self.source.summands(i).vertices)
        )

    def to_chain_map(self):
        from .complexes import ChainMap

        maps = {}
        for i in self.comps:
            maps[i] = element_matrix_to_hom(
                self.source.algebra, self.comps[i], self.source.summands(i), self.target.summands(i)
            )
        return ChainMap(self.source.to_complex(), self.target.to_complex(), maps, check=False)

    def compose(self, other: "ProjChainMap") -> "ProjChainMap":
        """self after other."""
        alg = self.source.algebra
        comps = {}
        for i in set(self.comps) | set(other.comps):
            a = self.comp(i)
            b = other.comp(i)
            if a and b and a[0] is not None:
                rows = len(self.target.summands(i).vertices)
                cols = len(other.source.summands(i).vertices)
                if rows and cols:
                    comps[i] = emat_compose(alg, a, b)
        return ProjChainMap(other.source, self.target, comps)


def identity_proj_chain_map(pc: ProjComplex) -> ProjChainMap:
    comps = {i: _identity_emat(pc.algebra, pc.terms[i]) for i in pc.terms}
    return ProjChainMap(pc, pc, comps)


def _find_unit(alg, pc: ProjComplex):
    for i in sorted(pc.dmats):
        d = pc.dmats[i]
        src = pc.terms[i].vertices
        tgt = pc.terms[i + 1].vertices
        for k in range(len(tgt)):
            for j in range(len(src)):
                if src[j] != tgt[k]:
                    continue
                e = d[k][j]
                if e.get((src[j], ()), 0):
                    return i, k, j
    return None


def minimize(pc: ProjComplex) -> tuple[ProjComplex, ProjChainMap, ProjChainMap]:
    """Cancel every contractible (P_v == P_v) summand pair.

    Returns (minimal complex, proj, inc) with proj : pc -> min and
    inc : min -> pc forming a homotopy equivalence (proj o inc = id).
    After minimization every differential entry lies in the radical.
    """
    alg = pc.algebra
    cur = pc
    proj = identity_proj_chain_map(pc)
    inc = identity_proj_chain_map(pc)
    while True:
        hit = _find_unit(alg, cur)
        if hit is None:
            return cur, proj, inc
        i, k1, j1 = hit
        src = list(cur.terms[i].vertices)
        tgt = list(cur.terms[i + 1].vertices)
        d = cur.dmat(i)
        alpha = d[k1][j1]
        ainv = element_unit_inverse(alg, alpha)
        js = [j for j in range(len(src)) if j != j1]
        ks = [k for k in range(len(tgt)) if k != k1]
        # Schur complement: delta' = delta - gamma alpha^{-1} beta
        newd = _zero_emat(len(ks), len(js))
        for a_, k in enumerate(ks):
            for b_, j in enumerate(js):
                # gamma o alpha^{-1} o beta; composite entries multiply
                # first-applied on the left
                corr = alg.mul(alg.mul(d[k1][j], ainv), d[k][j1])
                newd[a_][b_] = alg.add(d[k][j], alg.smul(-1, corr))
        new_terms = dict(cur.terms)
        new_dmats = dict(cur.dmats)
        new_terms[i] = ProjSummands(alg, [src[j] for j in js])
        new_terms[i + 1] = ProjSummands(alg, [tgt[k] for k in ks])
        if js and ks:
            new_dmats[i] = newd
        else:
            new_dmats.pop(i, None)
        # incoming and outgoing differentials: drop the cancelled row/col
        if (i - 1) in cur.dmats:
            e = cur.dmat(i - 1)
            new_dmats[i - 1] = [[e[j][l] for l in range(len(e[0]))] for j in js]
            if not js:
                new_dmats.pop(i - 1, None)
        if (i + 1) in cur.dmats:
            f = cur.dmat(i + 1)
            new_dmats[i + 1] = [[f[l][k] for k in ks] for l in range(len(f))]
            if not ks:
                new_dmats.pop(i + 1, None)
        nxt = ProjComplex(alg, new_terms, new_dmats, check=False)
        # step projection: identity except X-degree selects the kept rows
        # and Y-degree corrects by -gamma alpha^{-1} on the cancelled one
        pcomp = {}
        icomp = {}
        for deg, t in nxt.terms.items():
            nt = len(t.vertices)
            if deg == i:
                mat = _zero_emat(nt, len(src))
                for a_, j in enumerate(js):
                    mat[a_][j] = alg.e(src[j])
                pcomp[deg] = mat
                imat = _zero_emat(len(src), nt)
                for a_, j in enumerate(js):
                    imat[j][a_] = alg.e(src[j])
                    # inc X-component: -(alpha^{-1} o beta) on the cancelled row
                    imat[j1][a_] = alg.smul(-1, alg.mul(d[k1][j], ainv))
                icomp[deg] = imat
            elif deg == i + 1:
                mat = _zero_emat(nt, len(tgt))
                for a_, k in enumerate(ks):
                    mat[a_][k] = alg.e(tgt[k])
                    # proj Y-component: -(gamma o alpha^{-1}) out of the cancelled col
                    mat[a_][k1] = alg.smul(-1, alg.mul(ainv, d[k][j1]))
                pcomp[deg] = mat
                imat = _zero_emat(len(tgt), nt)
                for a_, k in enumerate(ks):
                    imat[k][a_] = alg.e(tgt[k])
                icomp[deg] = imat
            else:
                pcomp[deg] = _identity_emat(alg, t)
                icomp[deg] = _identity_emat(alg, t)
        step_proj = ProjChainMap(cur, nxt, pcomp)
        step_inc = ProjChainMap(nxt, cur, icomp)
        proj = step_proj.compose(proj)
        inc = inc.compose(step_inc)
        cur = nxt


def direct_sum_proj(pcs: list[ProjComplex]) -> ProjComplex:
    alg = pcs[0].algebra
    degs = set()
    for pc in pcs:
        degs |= set(pc.terms)
    terms = {}
    dmats = {}
    for i in degs:
        verts = []
        for pc in pcs:
            verts.extend(pc.summands(i).vertices)
        terms[i] = ProjSummands(alg, verts)
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


def recognize(c) -> ProjComplex:
    """Present a complex of projective representations as an explicit
    ProjComplex: each term is identified with its own cover (an
    isomorphism when the term is projective) and the differentials are
    transported to element matrices."""
    alg = c.algebra
    terms = {}
    isos = {}
    for i, t in c.terms.items():
        ps, cov = projective_cover(t)
        if ps.rep().total_dim() != t.total_dim():
            raise ValueError(f"term in degree {i} is not projective")
        terms[i] = ps
        isos[i] = cov
    dmats = {}
    for i, d in c.diffs.items():
        dh = lift(isos[i + 1], d.compose(isos[i]))
        dmats[i] = hom_to_element_matrix(alg, dh, terms[i], terms[i + 1])
    return ProjComplex(alg, terms, dmats)
