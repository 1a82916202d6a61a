"""Gorenstein projective detection and finitistic-dimension utilities.

Let g be the Gorenstein dimension of the algebra (`gorenstein_dimension`):
the injective dimension of the regular module, the same on both sides.
When g is finite, x is Gorenstein projective (GP) iff Ext^i(x, A) = 0 for
1 <= i <= g, A the regular module, since Ext^i(-, A) vanishes above g.
So the detector reads one Ext row of x against A, a degree at a time
(homological.ext_row), and asks after every degree whether g is known
within that bound.  Whichever decides first gives the verdict:

* a nonzero Ext^i(x, A) refutes x, with a witness vertex re-verified by
  balance, over the opposite algebra;
* g, once known with the row zero up to degree g, certifies x: the
  verdict `gp` holds in every degree and carries g as its certificate.
  A projective x is `gp` at once, with no g asked for, because
  projectives are GP over any algebra.

Over a dual-numbers extension kQ[eps] of a path algebra with no
relations (Q acyclic, as kQ is finite-dimensional), the detector needs no
Ext row for a "yes".  Ringel and Zhang ("Representations of quivers over
the algebra of dual numbers", J. Algebra 475, 2017) prove that a
kQ[eps]-module is GP iff its restriction to kQ is projective, and that
kQ[eps] is 1-Gorenstein, or self-injective when Q has no arrows.  So
`restriction_is_projective`, one projective cover over kQ, certifies x
`gp` with g = 1 (0 without arrows) and the row [0] * g, naming the rule.
A restriction that is not projective falls through to the Ext row, so
every refutation still carries its balance-checked witness.  Over an
extension of a bound algebra with relations the rule is not applied.

Only if neither settles by the depth d (g > d, or the algebra is not
Gorenstein) does the detector fall back to the totally-reflexive
criterion truncated at d: the Ext rows of x and of Tr x against the
regular module, each read to degree d or to its first nonzero entry.
Both rows zero gives `gp-up-to-depth` d, a verdict whose budget is d.

The forward shift on certified modules is the cokernel of the minimal
left approximation by projectives, one exact construction per step,
producing explicit short exact sequences 0 -> X^i -> P -> X^{i+1} -> 0
whose quotients are re-checked against the remaining depth.
"""

from __future__ import annotations

import numpy as np

from .exactlin import Matrix, extending_columns
from .homological import dual, ext, ext_row, projdim, transpose
from .modules import (
    ProjSummands,
    RepHom,
    Representation,
    cokernel,
    element_matrix_to_hom,
    hom_frame,
    is_projective,
    is_ses,
    projective,
    regular_module,
    zero_hom,
    zero_rep,
)
from .functors import FunctorData
from .stable import stable_image


def gorenstein_dimension(alg, bound: int) -> int | None:
    """The Gorenstein dimension of alg within bound: the largest projdim
    of an indecomposable injective, taken over alg and over alg.opposite(),
    or None when some injective's projdim exceeds bound.

    The injective modules of alg are the duals of the projectives of the
    opposite algebra, dual(projective(alg.opposite(), v)); the largest of
    their projdims is the injective dimension of the regular module of
    the opposite algebra, and the other side gives that of alg.  When both
    are finite they are equal (Zaks, "Injective dimension of semi-primary
    rings", J. Algebra 13, 1969), alg is Iwanaga-Gorenstein of dimension
    g, and a module M is Gorenstein projective iff Ext^i(M, alg) = 0 for
    1 <= i <= g (Enochs-Jenda, Relative Homological Algebra, 2000,
    ch. 10-11).  g = 0 means alg is self-injective: every module is GP.

    One module per side is resolved: the injective cogenerator
    dual(regular_module(side.opposite())), the sum of the indecomposable
    injectives, whose projdim is the largest of theirs.  Cached per bound
    on the regular module of alg; the cogenerators keep their
    resolutions, so a larger bound extends them.
    """
    cache = regular_module(alg)._cache
    key = ("gorenstein_dimension", bound)
    if key not in cache:
        g = 0
        for side in (alg, alg.opposite()):
            pd = projdim(dual(regular_module(side.opposite())), bound)
            if pd is None:
                cache[key] = None
                return None
            g = max(g, pd)
        cache[key] = g
    return cache[key]


def restriction_is_projective(m: Representation) -> bool:
    """Whether m, a module over a dual-numbers extension, is projective
    over the extension's `base`: m's dimensions and its matrices on the
    base arrows, the loops dropped.  Over kQ[eps] with Q acyclic this
    holds iff m is GP (Ringel-Zhang, J. Algebra 475, 2017)."""
    base = m.algebra.base
    if base is None:
        raise ValueError("module is not over a dual-numbers extension")
    mats = {n: m.mats[n] for n, _, _ in base.quiver.arrows}
    return is_projective(Representation(base, m.dims, mats, check=False))


def _left_row(x: Representation, m: int, d: int) -> tuple[list[int], int | None]:
    """(row, g): row[i - 1] = dim Ext^i(x, A) against the regular module
    A, read above degree m a degree at a time.  For k = m, m + 1, ..., d:
    if g = `gorenstein_dimension(alg, k)` is known, stop, since
    Ext^i(x, A) = 0 above g <= k; at k = d stop with g None; else extend
    the row to degree k + 1 and stop if that entry is nonzero.  The two
    alternate, so over an algebra that is not Gorenstein a nonzero entry
    never waits for the injectives to be resolved deep (over
    k<x, y>/(x, y)^2 their resolutions double in size at every degree).
    A nonzero entry above m is the row's last; the row is [] when g
    settles at k = m.
    """
    alg = x.algebra
    row: list[int] = []
    for k in range(m, d + 1):
        g = gorenstein_dimension(alg, k)
        if g is not None or k == d:
            return row, g
        row = ext_row(x, k + 1)
        if row[k]:
            return row, None


def perp_check(x: Representation, m: int, d: int) -> bool:
    """Ext^i(x, P_v) = 0 for every indecomposable projective and every
    m < i <= d.  Over an algebra of Gorenstein dimension g <= d the row
    is read to degree g at most, and not at all when g <= m."""
    if m < 0:
        raise ValueError("degree bound must be >= 0")
    if d < m:
        raise ValueError("depth must be at least the degree bound")
    row, _ = _left_row(x, m, d)
    return not any(row[m:])


class GPCrossCheckError(RuntimeError):
    """A refutation witness Ext^i(y, P_v) != 0 that balance does not
    confirm: Ext^i_(A^op)(D P_v, D y) differs from it."""


RESTRICTION_RULE = "projective restriction to the base (Ringel-Zhang)"


class GPReport:
    def __init__(self, module, depth, ext_left, ext_right, verdict, witness=None, certificate=None, rule=None):
        self.module = module
        self.depth = depth
        self.ext_left = ext_left
        self.ext_right = ext_right
        self.verdict = verdict  # "gp", "gp-up-to-depth" or "refuted"
        self.witness = witness  # (side, degree, vertex) when refuted
        # "gp": the Gorenstein dimension g whose Ext row (ext_left) is
        # zero, or None when the module is projective
        self.certificate = certificate
        self.rule = rule  # RESTRICTION_RULE when that rule certified "gp"

    @property
    def is_gp(self) -> bool:
        return self.verdict in ("gp", "gp-up-to-depth")

    def __repr__(self):
        if self.verdict == "gp":
            why = "projective" if self.certificate is None else f"Gorenstein dimension {self.certificate}"
            if self.rule:
                why += f", {self.rule}"
            return f"GPReport(gp, {why})"
        if self.is_gp:
            return f"GPReport(gp-up-to-depth {self.depth})"
        return f"GPReport(refuted at {self.witness})"


def _witness(y: Representation, i: int, side: str):
    """(side, i, v) for the first vertex v with Ext^i(y, P_v) nonzero,
    confirmed by balance as Ext^i_(A^op)(D P_v, D y), which resolves the
    injective D P_v over the opposite algebra, not y, whose resolution Ext
    and derived Hom share.  Ext^i(y, A) is known to be nonzero."""
    alg = y.algebra
    for v in alg.quiver.vertices:
        P = projective(alg, v)
        e = ext(y, P, i)
        if e:
            balanced = ext(dual(P), dual(y), i)
            if balanced != e:
                raise GPCrossCheckError(
                    f"refutation witness ({side}, {i}, {v}) failed cross-check: "
                    f"Ext = {e}, Ext by balance = {balanced}"
                )
            return side, i, v
    raise GPCrossCheckError(f"Ext^{i} against the regular module is nonzero on the {side} side, but zero at every vertex")


def is_gorenstein_projective(x: Representation, d: int = 8) -> GPReport:
    """GP test of x with the depth d as its only bound.

    A projective x is `gp` with no certificate: its row is zero in every
    degree, so no g is asked for.  Over kQ[eps], kQ a path algebra with no
    relations, a projective restriction to kQ makes x `gp` with g read off
    Q and no resolution built (the Ringel-Zhang rule, in the module
    docstring).  Otherwise the Ext row of x against the
    regular module is read by `_left_row` (m = 0): a nonzero entry
    refutes x, and g = `gorenstein_dimension(alg, k)`, once known with
    the row zero up to k, makes x `gp` with certificate g.  If neither
    settles by degree d, the row of Tr x is read degree by degree to d:
    a nonzero entry refutes x on the right, and none gives
    `gp-up-to-depth` d.

    Refutations exhibit a nonzero Ext witness and re-verify it by
    balance, from a resolution of another module over the opposite
    algebra (`_witness`).
    """
    if d < 1:
        raise ValueError("depth must be >= 1")
    if is_projective(x):
        return GPReport(x, d, [], [], "gp")
    base = x.algebra.base
    if base is not None and not base.relations and restriction_is_projective(x):
        g = 1 if base.quiver.arrows else 0
        return GPReport(x, d, [0] * g, [], "gp", certificate=g, rule=RESTRICTION_RULE)
    return _ext_row_verdict(x, d)


def _ext_row_verdict(x: Representation, d: int) -> GPReport:
    """The verdict of `is_gorenstein_projective` on a non-projective x
    from Ext rows alone: the row of x against the regular module, then
    the row of Tr x when g is not known within d."""
    row, g = _left_row(x, 0, d)
    if g is not None:
        return GPReport(x, d, row, [], "gp", certificate=g)
    if any(row):
        return GPReport(x, d, row[:-1], [], "refuted", _witness(x, len(row), "left"))
    tr = transpose(x)
    for i in range(1, d + 1):
        right = ext_row(tr, i)
        if right[-1]:
            return GPReport(x, d, row, right[:-1], "refuted", _witness(tr, i, "right"))
    return GPReport(x, d, row, right, "gp-up-to-depth")


class CosyzygySequence:
    """Chain of short exact sequences 0 -> X^i -> P^{i+1} -> X^{i+1} -> 0
    with projective middles, starting at X^0 = x."""

    def __init__(self, modules, embeddings, quotients):
        self.modules = modules
        self.embeddings = embeddings
        self.quotients = quotients

    def verify(self) -> bool:
        for emb, quo in zip(self.embeddings, self.quotients):
            if not is_ses(emb, quo):
                return False
            if not is_projective(emb.target):
                return False
        return True


class CosyzygyError(RuntimeError):
    def __init__(self, msg, step):
        super().__init__(msg)
        self.step = step


def _left_approximation(x: Representation) -> RepHom:
    """The minimal left approximation of x by projectives, x -> (+)_v P_v^{n_v}.

    A map x -> P_v is radical when it factors through a radical map of
    projectives, that is, through rho_a : P_w -> P_v (the element [[a]])
    for some arrow a: v -> w.  The basis maps of Hom(x, P_v) independent
    of those composites are kept, and stacked into one map to the sum of
    their targets, in vertex order.
    """
    alg = x.algebra
    homs = {v: hom_frame(x, projective(alg, v)) for v in alg.quiver.vertices}
    radical = {v: [] for v in alg.quiver.vertices}
    for a, v, w in alg.quiver.arrows:
        rho = element_matrix_to_hom(alg, [[alg.arrow(a)]], ProjSummands(alg, [w]), ProjSummands(alg, [v]))
        radical[v].append(homs[w].postcompose(rho))
    verts, rows = [], {u: [] for u in alg.quiver.vertices}
    for v, frame in homs.items():
        new = list(range(frame.dim))
        if radical[v] and frame.dim:
            _, new = extending_columns(Matrix(alg.p, np.hstack(radical[v])), Matrix(alg.p, frame.flats))
        verts += [v] * len(new)
        for u, b in frame.blocks().items():
            rows[u].append(b[new].reshape(len(new) * b.shape[1], b.shape[2]))
    if not verts:
        return zero_hom(x, zero_rep(alg))
    mats = {u: Matrix(alg.p, np.vstack(rows[u])) for u in alg.quiver.vertices}
    return RepHom(x, ProjSummands(alg, verts).rep(), mats, check=False)


def cosyzygy_sequence(x: Representation, d: int) -> CosyzygySequence:
    """Forward chain of length d: each step is the minimal left
    approximation by projectives and its cokernel."""
    report = is_gorenstein_projective(x, d)
    if not report.is_gp:
        raise CosyzygyError(f"module is not GP to depth {d}: {report.witness}", -1)
    modules = [x]
    embeddings = []
    quotients = []
    cur = x
    for step in range(d):
        emb = _left_approximation(cur)
        _, qmap = cokernel(emb)
        if not is_ses(emb, qmap):
            raise CosyzygyError("constructed step is not exact", step)
        nxt = qmap.target
        remaining = d - step - 1
        if remaining >= 1 and not perp_check(nxt, 0, remaining):
            raise CosyzygyError("depth certificate too weak at this step", step)
        embeddings.append(emb)
        quotients.append(qmap)
        modules.append(nxt)
        cur = nxt
    return CosyzygySequence(modules, embeddings, quotients)


class GPPreservationReport:
    def __init__(self, source_report, image_report, perp_pairs):
        self.source_report = source_report
        self.image_report = image_report
        self.perp_pairs = perp_pairs  # list of (m, source_ok, image_ok)

    @property
    def preserved(self) -> bool:
        return (
            self.source_report.is_gp
            and self.image_report.is_gp
            and all((not s) or i for _, s, i in self.perp_pairs)
        )


def gp_preservation_check(f: FunctorData, x: Representation, d: int = 8) -> GPPreservationReport:
    """Check that the stable image of a GP module is GP, and that
    perpendicularity degrees transfer."""
    src_report = is_gorenstein_projective(x, d)
    M, _ = stable_image(f, x)
    img_report = is_gorenstein_projective(M, d)
    perp_pairs = []
    for m in range(0, 2):
        s_ok = perp_check(x, m, d)
        i_ok = perp_check(M, m, d)
        perp_pairs.append((m, s_ok, i_ok))
    return GPPreservationReport(src_report, img_report, perp_pairs)


class FindimReport:
    def __init__(self, width, entries, findim_source, findim_image, bounds_ok):
        self.width = width
        self.entries = entries
        self.findim_source = findim_source
        self.findim_image = findim_image
        self.bounds_ok = bounds_ok

    @property
    def findim_gap_ok(self) -> bool:
        if self.findim_source is None or self.findim_image is None:
            return True
        return abs(self.findim_source - self.findim_image) <= self.width


def findim_bounds_check(f: FunctorData, modules, bound: int = 8) -> FindimReport:
    """Per module x: projdim(image) <= projdim(x) <= projdim(image) + width;
    finitistic dimensions over the supplied lists differ by <= width."""
    entries = []
    bounds_ok = True
    src_fin = []
    img_fin = []
    for x in modules:
        dx = projdim(x, bound)
        M, _ = stable_image(f, x)
        dm = projdim(M, bound)
        entry = (dx, dm)
        entries.append(entry)
        if dx is not None:
            src_fin.append(dx)
            if dm is None or not (dm <= dx <= dm + f.width):
                bounds_ok = False
        if dm is not None:
            img_fin.append(dm)
    findim_source = max(src_fin) if src_fin else None
    findim_image = max(img_fin) if img_fin else None
    return FindimReport(f.width, entries, findim_source, findim_image, bounds_ok)
