"""Gorenstein projective detection and finitistic-dimension utilities.

The detector is the totally-reflexive criterion truncated at a depth d:
a module is refuted as soon as some Ext^i(X, P) or Ext^i(Tr X, P') with
1 <= i <= d is nonzero (an exact, definitive verdict, re-verified by an
independent derived-category computation), and certified
"GP up to depth d" when both Ext columns vanish.  Each side is one Ext
profile against the regular module (homological.ext_profile), which
stops resolving at the first explicit isomorphism between two syzygies
Omega^j -> Omega^k.  Such a period is returned with the report, and a
positive verdict with a period on both sides holds in every degree,
because the profiles repeat with that period.  Without one, no finite
depth decides the property in general, so positive verdicts carry their
depth.

The forward shift on certified modules is the cokernel of the minimal
left approximation by projectives, one exact construction per step,
producing explicit short exact sequences 0 -> X^i -> P -> X^{i+1} -> 0
whose quotients are re-checked against the remaining depth.
"""

from __future__ import annotations

import numpy as np

from .complexes import hom_d_dim, module_complex
from .exactlin import Matrix, extending_columns
from .homological import ext, ext_profile, projdim, transpose
from .modules import (
    ProjSummands,
    RepHom,
    Representation,
    cokernel,
    element_matrix_to_hom,
    hom_space,
    is_projective,
    is_ses,
    projective,
    zero_hom,
    zero_rep,
)
from .functors import FunctorData
from .stable import stable_image


def perp_check(x: Representation, m: int, d: int) -> bool:
    """Ext^i(x, P_v) = 0 for every indecomposable projective and every
    m < i <= d."""
    if d < m:
        raise ValueError("depth must be at least the degree bound")
    dims, _ = ext_profile(x, d, stop_above=m)
    return not any(dims[m:])


class GPCrossCheckError(RuntimeError):
    """A refutation witness that the independent derived-Hom computation
    does not confirm."""


class GPReport:
    def __init__(self, module, depth, ext_left, ext_right, verdict, witness=None,
                 period_left=None, period_right=None):
        self.module = module
        self.depth = depth
        self.ext_left = ext_left
        self.ext_right = ext_right
        self.verdict = verdict  # "gp-up-to-depth" or "refuted"
        self.witness = witness  # (side, degree, vertex) when refuted
        # (j, k, iso: Omega^j -> Omega^k) of the side's minimal resolution
        # (on x, on Tr x), or None when no period showed up to depth
        self.period_left = period_left
        self.period_right = period_right

    @property
    def is_gp(self) -> bool:
        return self.verdict == "gp-up-to-depth"

    def __repr__(self):
        if self.is_gp:
            return f"GPReport(gp-up-to-depth {self.depth})"
        return f"GPReport(refuted at {self.witness})"


def _side(y: Representation, d: int, side: str):
    """(ext row, period, witness) of one side of the detector: the row
    lists dim Ext^i(y, A) for the degrees before the first nonzero one,
    where the profile stops; its vertex is recovered by per-vertex Ext
    and confirmed by derived Hom."""
    dims, period = ext_profile(y, d, stop_above=0)
    i = next((i for i, e in enumerate(dims, start=1) if e), None)
    if i is None:
        return dims, period, None
    alg = y.algebra
    for v in alg.quiver.vertices:
        P = projective(alg, v)
        e = ext(y, P, i)
        if e:
            crosscheck = hom_d_dim(module_complex(y), module_complex(P), i)
            if crosscheck != e:
                raise GPCrossCheckError(
                    f"refutation witness ({side}, {i}, {v}) failed cross-check: "
                    f"Ext = {e}, derived Hom = {crosscheck}"
                )
            return dims[: i - 1], period, (side, i, v)
    raise GPCrossCheckError(f"Ext^{i} against the regular module is nonzero on the {side} side, but zero at every vertex")


def is_gorenstein_projective(x: Representation, d: int = 8) -> GPReport:
    """Totally-reflexive test to depth d.

    Refutations exhibit a nonzero Ext witness and re-verify it through
    the derived-category Hom computation (an independent code path).
    """
    if d < 1:
        raise ValueError("depth must be >= 1")
    if x.is_zero():
        return GPReport(x, d, [], [], "gp-up-to-depth")
    ext_left, period_left, witness = _side(x, d, "left")
    if witness is not None:
        return GPReport(x, d, ext_left, [], "refuted", witness, period_left)
    ext_right, period_right, witness = _side(transpose(x), d, "right")
    verdict = "refuted" if witness is not None else "gp-up-to-depth"
    return GPReport(x, d, ext_left, ext_right, verdict, witness, period_left, period_right)


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
    homs = {v: hom_space(x, projective(alg, v)) for v in alg.quiver.vertices}
    radical = {v: [] for v in alg.quiver.vertices}
    for a, v, w in alg.quiver.arrows:
        rho = element_matrix_to_hom(alg, [[alg.arrow(a)]], ProjSummands(alg, [w]), ProjSummands(alg, [v]))
        radical[v] += [rho.compose(b) for b in homs[w]]
    verts, kept = [], []
    for v, basis in homs.items():
        new = range(len(basis))
        if radical[v] and basis:
            flats = [Matrix(alg.p, np.stack([g.flat() for g in maps], axis=1)) for maps in (radical[v], basis)]
            _, new = extending_columns(*flats)
        verts += [v] * len(new)
        kept += [basis[k] for k in new]
    if not kept:
        return zero_hom(x, zero_rep(alg))
    mats = {u: Matrix.vstack([g.mats[u] for g in kept]) for u in alg.quiver.vertices}
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
