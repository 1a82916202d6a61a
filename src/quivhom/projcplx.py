"""Bounded complexes of explicit projective sums, with differentials kept
as matrices of algebra elements.

This exact combinatorial form is what functor data acts on, and it makes
"dropping contractible summands" a finite Gaussian cancellation: an entry
of a differential between two copies of the same P_v whose trivial-path
coefficient is nonzero is a unit of the local ring e_v A e_v, and the
corresponding 2x2 block splits off.  `minimize` performs all such
cancellations in place, degree by degree in ascending order: a
cancellation in d^i only deletes a row of d^(i-1) and a column of
d^(i+1), so it never creates a unit outside d^i.  It tracks the
degreewise projection/inclusion homotopy equivalence back to the
original complex, correcting only the two degrees of each cancelled pair.

A ProjComplex and the `complexes.Complex` of its shared sums are two
views of one complex, each found from the other by lookup: `to_complex`
keeps the view on the complex it makes, and `recognize` reads it there
or off the shared-sum tags of the terms.
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

    def to_complex(self):
        """The Complex of the shared sums, made once; it keeps this view for `recognize`."""
        if self._complex is None:
            from .complexes import Complex

            terms = {i: t.rep() for i, t in self.terms.items()}
            diffs = {}
            for i in self.dmats:
                diffs[i] = element_matrix_to_hom(
                    self.algebra, self.dmats[i], self.terms[i], self.terms[i + 1]
                )
            self._complex = Complex(self.algebra, terms, diffs, check=False)
            self._complex._cache["proj"] = self
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
        comps = {i: emat_compose(alg, self.comps[i], b) for i, b in other.comps.items() if i in self.comps}
        return ProjChainMap(other.source, self.target, comps)


def identity_proj_chain_map(pc: ProjComplex) -> ProjChainMap:
    comps = {i: _identity_emat(pc.algebra, pc.terms[i]) for i in pc.terms}
    return ProjChainMap(pc, pc, comps)


def _first_unit(d: ElementMatrix, src: list, tgt: list):
    """(k, j) of the first unit entry of d, row by row, or None."""
    for k, row in enumerate(d):
        v = tgt[k]
        for j, e in enumerate(row):
            if src[j] == v and e.get((v, ()), 0):
                return k, j
    return None


def _add_products(alg, row: list, xs: list, y: Element) -> None:
    """row[c] += xs[c] y (the product of elements) for every c."""
    if y:
        for c, x in enumerate(xs):
            if x:
                row[c] = alg.add(row[c], alg.mul(x, y))


def minimize(pc: ProjComplex) -> tuple[ProjComplex, ProjChainMap, ProjChainMap]:
    """Cancel every contractible (P_v == P_v) summand pair.

    Returns (minimal complex, proj, inc) with proj : pc -> min and
    inc : min -> pc forming a homotopy equivalence (proj o inc = id).
    After minimization every differential entry lies in the radical.

    The cancellation is Gaussian elimination on per-degree copies of the
    differentials, of proj and of inc.  For a unit alpha = d^i[k1][j1],
    with beta the rest of row k1 and gamma the rest of column j1 of d^i:
    d^i becomes the Schur complement delta - gamma alpha^-1 beta; d^(i-1)
    loses row j1 and d^(i+1) loses column k1; proj loses row j1 in degree
    i, and in degree i+1 row k takes away gamma_k alpha^-1 (row k1); inc
    loses column k1 in degree i+1, and in degree i column j takes away
    (column j1) alpha^-1 beta_j.  alpha^-1 beta_j is formed once per
    column and serves both d^i and inc.  Only d^i can gain a unit, so the
    degrees are cleared in ascending order, each while a unit is left: the
    same pairs in the same order as rescanning from the lowest degree
    after every step.
    """
    alg = pc.algebra
    terms = {i: list(t.vertices) for i, t in pc.terms.items()}
    dmats = {i: [list(row) for row in d] for i, d in pc.dmats.items()}
    proj = {i: _identity_emat(alg, t) for i, t in pc.terms.items()}
    inc = {i: _identity_emat(alg, t) for i, t in pc.terms.items()}
    cancelled = False
    for i in sorted(dmats):
        d, src, tgt = dmats[i], terms[i], terms[i + 1]
        while (hit := _first_unit(d, src, tgt)) is not None:
            cancelled = True
            k1, j1 = hit
            beta = d.pop(k1)
            neg_ainv = alg.smul(-1, element_unit_inverse(alg, beta.pop(j1)))
            gamma = [row.pop(j1) for row in d]
            # entries multiply first-applied on the left: b_j = -alpha^-1 beta_j
            # and g_k = -gamma_k alpha^-1 as composites
            b = [alg.mul(e, neg_ainv) for e in beta]
            g = [alg.mul(neg_ainv, e) for e in gamma]
            for row, gk in zip(d, gamma):
                _add_products(alg, row, b, gk)
            del src[j1], tgt[k1], proj[i][j1]
            if i - 1 in dmats:
                del dmats[i - 1][j1]
            for row in dmats.get(i + 1, ()):
                del row[k1]
            for row in inc[i + 1]:
                del row[k1]
            pk1 = proj[i + 1].pop(k1)
            for row, gk in zip(proj[i + 1], g):
                _add_products(alg, row, pk1, gk)
            for row in inc[i]:
                _add_products(alg, row, b, row.pop(j1))
    if not cancelled:
        return pc, ProjChainMap(pc, pc, proj), ProjChainMap(pc, pc, inc)
    minimal = ProjComplex(alg, {i: ProjSummands(alg, v) for i, v in terms.items()}, dmats, check=False)
    return minimal, ProjChainMap(pc, minimal, proj), ProjChainMap(minimal, pc, inc)


def recognize(c) -> ProjComplex:
    """The ProjComplex view of a complex of projective representations,
    kept on c (key "proj"), where `ProjComplex.to_complex` also puts it.
    When every term is a shared sum (`modules._proj_sum`), as in a cone or
    a shift of such complexes, the summands are read off the tags and the
    element matrices off the generator columns, and c is the view's
    complex; other terms are identified with their covers (isomorphisms
    when the terms are projective), through which the differentials pass.
    """
    if "proj" in c._cache:
        return c._cache["proj"]
    alg = c.algebra
    tags = {i: t._cache.get("proj_sum") for i, t in c.terms.items()}
    tagged = all(v is not None for v in tags.values())
    if tagged:
        terms = {i: ProjSummands(alg, v) for i, v in tags.items()}
        diffs = c.diffs
    else:
        terms, isos = {}, {}
        for i, t in c.terms.items():
            terms[i], isos[i] = projective_cover(t)
            if terms[i].rep().total_dim() != t.total_dim():
                raise ValueError(f"term in degree {i} is not projective")
        diffs = {i: lift(isos[i + 1], d.compose(isos[i])) for i, d in c.diffs.items()}
    dmats = {i: hom_to_element_matrix(alg, d, terms[i], terms[i + 1]) for i, d in diffs.items()}
    pc = c._cache["proj"] = ProjComplex(alg, terms, dmats)
    if tagged:
        pc._complex = c
    return pc
