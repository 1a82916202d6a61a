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

The forward shift on certified modules is realized as Tr o Omega o Tr
with projective normalization, producing explicit short exact sequences
0 -> X^i -> P -> X^{i+1} -> 0 whose quotients are re-checked against
the remaining depth.
"""

from __future__ import annotations

import numpy as np

from .complexes import hom_d_dim, module_complex
from .homological import (
    decompose,
    ext,
    ext_profile,
    find_iso,
    minimal_resolution,
    projdim,
    strip_projectives,
    syzygy,
    transpose,
)
from .modules import (
    Representation,
    cokernel,
    direct_sum,
    identity_hom,
    is_mono,
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


def inverse_syzygy(x: Representation) -> Representation:
    """Tr o Omega o Tr with projective summands stripped."""
    if x.is_zero():
        return x
    tr, _ = strip_projectives(transpose(x))
    om = syzygy(tr, 1)
    back, _ = strip_projectives(transpose(om))
    return back


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


def _match_embedding(x: Representation, seed: int = 0):
    """An explicit monomorphism of x into a projective whose cokernel is
    the forward shift (up to projective summands).

    x is split into summands; the non-projective ones are matched, up to
    isomorphism, with summands of the kernel of the cover of the forward
    shift, and the projective ones ride along as identity padding.
    Returns (embedding, quotient_map).
    """
    alg = x.algebra
    rng = np.random.default_rng(seed)
    y = inverse_syzygy(x)
    x_nonproj: list[Representation] = []
    x_proj: list[Representation] = []
    for rep, mult in decompose(x, seed=seed):
        (x_proj if is_projective(rep) else x_nonproj).extend([rep] * mult)
    if y.is_zero():
        if x_nonproj:
            raise CosyzygyError("inverse shift vanished on a non-projective module", 0)
        return identity_hom(x), zero_hom(x, zero_rep(alg))
    res = minimal_resolution(y, 1)
    psY, K, kincl = res.terms[0], res.syzygy_module(1), res.incls[1]
    kpieces: list[Representation] = []
    for rep, mult in decompose(K, seed=seed):
        kpieces.extend([rep] * mult)
    ksum, kslot_inc, _ = direct_sum(kpieces)
    kiso = find_iso(ksum, K, rng)
    if kiso is None:
        raise CosyzygyError("kernel change of basis not found", 0)
    into_p = kincl.compose(kiso)  # ksum -> P(y)
    used = [False] * len(kpieces)
    legs = []  # (slot in kpieces, isomorphism piece -> kpieces[slot])
    for piece in x_nonproj:
        for idx, kp in enumerate(kpieces):
            iso = None if used[idx] else find_iso(piece, kp, rng)
            if iso is not None:
                used[idx] = True
                legs.append((idx, iso))
                break
        else:
            raise CosyzygyError("could not match a summand inside the cover kernel", 0)
    parts = x_nonproj + x_proj
    xsum, _, xprojs = direct_sum(parts)
    ptotal, pincls, _ = direct_sum([psY.rep()] + x_proj)
    emb_sum = zero_hom(xsum, ptotal)
    for idx, (slot, iso) in enumerate(legs):
        leg = pincls[0].compose(into_p).compose(kslot_inc[slot]).compose(iso)
        emb_sum = emb_sum + leg.compose(xprojs[idx])
    for jdx, piece in enumerate(x_proj):
        emb_sum = emb_sum + pincls[1 + jdx].compose(xprojs[len(x_nonproj) + jdx])
    xiso = find_iso(x, xsum, rng)
    if xiso is None:
        raise CosyzygyError("module does not match its own summand list", 0)
    emb = emb_sum.compose(xiso)
    if not is_mono(emb):
        raise CosyzygyError("constructed embedding is not injective", 0)
    _, qmap = cokernel(emb)
    return emb, qmap


def cosyzygy_sequence(x: Representation, d: int, seed: int = 0) -> CosyzygySequence:
    """Forward chain of embeddings into projectives, of length d."""
    report = is_gorenstein_projective(x, d)
    if not report.is_gp:
        raise CosyzygyError(f"module is not GP to depth {d}: {report.witness}", -1)
    modules = [x]
    embeddings = []
    quotients = []
    cur = x
    for step in range(d):
        emb, qmap = _match_embedding(cur, seed=seed)
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
