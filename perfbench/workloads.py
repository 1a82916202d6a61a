"""The three benchmark workloads, their seeded inputs and their checks.

Each workload is a pair of functions:

* ``build_<name>(seed)`` makes every input from the seed (this is the
  set-up phase: it builds ``Corpus(n, p)`` directly, never through the
  module-level ``corpus()`` cache, so no per-object cache outlives one
  run);
* ``run_<name>(inputs, rec)`` is the timed phase, the whole job a user
  waits for.  Every op goes through ``rec.op`` and every answer is
  checked against an expectation that does not come from the code path
  under test.

The generators are ports of the test-suite helpers (random cokernel
modules, criterion-3 localization pairs, criterion-4 random morphisms);
the benchmark owns them so that a change to the tests cannot change the
benchmark's inputs.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from quivhom.algebra import dual_numbers
from quivhom.complexes import Complex, hom_d_dim, localization_compare, module_complex
from quivhom.corpus import Corpus
from quivhom.functors import compose
from quivhom.gorenstein import is_gorenstein_projective
from quivhom.homological import decompose, ext, syzygy
from quivhom.modules import (
    ProjSummands,
    Representation,
    cokernel,
    element_matrix_to_hom,
    hom_space,
    is_projective,
    zero_hom,
)
from quivhom.stable import (
    StableHomSpace,
    exact_sequence_image,
    stable_image,
    stable_image_map,
    stable_iso,
)

GP_DEPTH = 8


# -- recording ops ----------------------------------------------------------


class Recorder:
    """Times ops, records their answers and marks the ones that fail.

    An op fails when it raises, or when any check attached to it is
    false or raises.  ``on_op`` (tracing only) is told which op is
    running, -1 meaning work outside any op; ``after_op`` runs after each
    op, outside its timing.
    """

    def __init__(self, on_op=None, after_op=None):
        self.labels: list[str] = []
        self.latency: list[float] = []
        self.ends: list[float] = []
        self.answers: list = []
        self.failed: list[bool] = []
        self._on_op = on_op
        self._after_op = after_op

    def _enter(self, idx: int):
        if self._on_op is not None:
            self._on_op(idx)

    def op(self, label: str, fn):
        """Run one timed op; returns (index, value or None if it raised)."""
        idx = len(self.labels)
        self.labels.append(label)
        self._enter(idx)
        t0 = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:  # a raising op is a failed op, not a crash
            value = None
            self.answers.append(f"raised {type(exc).__name__}")
            self.failed.append(True)
        else:
            self.answers.append(None)
            self.failed.append(False)
        end = time.perf_counter()
        self.latency.append(end - t0)
        self.ends.append(end)
        self._enter(-1)
        if self._after_op is not None:
            self._after_op()
        return idx, value

    def check(self, idx: int, fn, answer=None) -> bool:
        """Attach a check to op idx: fn() must return True."""
        self._enter(idx)
        try:
            ok = fn() is True
        except Exception:
            ok = False
        self._enter(-1)
        if answer is not None and self.answers[idx] is None:
            self.answers[idx] = answer
        if not ok:
            self.failed[idx] = True
        return ok

    def answers_digest(self) -> str:
        h = hashlib.sha256()
        for label, ans, bad in zip(self.labels, self.answers, self.failed):
            h.update(f"{label}={ans!r}:{bad}\n".encode())
        return h.hexdigest()[:16]


def fingerprint(reps) -> str:
    """Hash of the dimension vectors and structure matrices of the inputs."""
    h = hashlib.sha256()
    for rep in reps:
        h.update(repr(sorted(rep.dims.items())).encode())
        for name in sorted(rep.mats):
            h.update(name.encode())
            h.update(np.ascontiguousarray(rep.mats[name].data).tobytes())
    return h.hexdigest()[:16]


# -- seeded generators --------------------------------------------------------


def random_module(alg, rng, ends) -> Representation:
    """Random cokernel of a random map between sums of indecomposable
    projectives: always a legal module.  ends = (vertices of the target
    summands, vertices of the source summands)."""
    tgt = ProjSummands(alg, list(ends[0]))
    src = ProjSummands(alg, list(ends[1]))
    emat = []
    for k in range(len(tgt.vertices)):
        row = []
        for j in range(len(src.vertices)):
            opts = [
                pth
                for pth in alg.basis_by_source[tgt.vertices[k]]
                if alg.path_target(pth) == src.vertices[j]
            ]
            e = {}
            for pth in opts:
                if rng.integers(0, 3) == 0:
                    e[pth] = int(rng.integers(1, alg.p))
            row.append(e)
        emat.append(row)
    f = element_matrix_to_hom(alg, emat, src, tgt)
    coker, _ = cokernel(f)
    return coker


def random_hom(x: Representation, y: Representation, rng):
    """A random F_p-combination of a Hom(x, y) basis (None if Hom = 0)."""
    basis = hom_space(x, y)
    if not basis:
        return None
    f = zero_hom(x, y)
    for b in basis:
        f = f + b.scale(int(rng.integers(0, x.p)))
    return f


class VertexDeck:
    """Vertices dealt from seeded shuffles of the whole vertex list, so that
    each vertex is drawn about equally often whatever the seed."""

    def __init__(self, alg, rng):
        self.verts = list(alg.quiver.vertices)
        self.rng = rng
        self.cards: list[str] = []

    def deal(self, k: int) -> list[str]:
        out = []
        for _ in range(k):
            if not self.cards:
                self.cards = [self.verts[i] for i in self.rng.permutation(len(self.verts))]
            out.append(self.cards.pop())
        return out


def localization_pair(alg, rng, deck: VertexDeck):
    """(x, y) as in the localization criterion: x = (m -> P) in degrees
    [0, 1] with P projective, y a random two-term complex in [0, 1]."""
    m = random_module(alg, rng, ends=(deck.deal(2), deck.deal(2)))
    P = ProjSummands(alg, deck.deal(2)).rep()
    d = random_hom(m, P, rng) or zero_hom(m, P)
    x = Complex(alg, {0: m, 1: P}, {0: d})
    m0 = random_module(alg, rng, ends=(deck.deal(2), deck.deal(2)))
    m1 = random_module(alg, rng, ends=(deck.deal(2), deck.deal(2)))
    f = random_hom(m0, m1, rng) or zero_hom(m0, m1)
    y = Complex(alg, {0: m0, 1: m1}, {0: f})
    return x, y


def _rng(seed: int, stream: int):
    return np.random.default_rng([seed, stream])


def _share(total: int, parts: int, k: int) -> int:
    """Size of part k when total items are split as evenly as possible."""
    return total // parts + (1 if k < total % parts else 0)


def full_interval_predictions(c: Corpus) -> dict:
    """The manifest's prediction for the stable image of each full
    interval module: key -> zero-argument function building the module."""
    out = {}
    for key_s, name in c.manifest["odd_full"].items():
        v = int(name.rsplit("_", 1)[1])
        out[tuple(int(t) for t in key_s.split(","))] = lambda v=v: c.S_P[v]
    for key_s, name in c.manifest["even_full"].items():
        i = int(name.rsplit("_", 1)[1]) // 2
        out[tuple(int(t) for t in key_s.split(","))] = lambda i=i: c.pullback_module(i)
    return out


# -- gp_classify ----------------------------------------------------------------


GP_N = 4


def build_gp_classify(seed: int, n: int = GP_N) -> dict:
    c = Corpus(n)
    order = [tuple(k) for k in _rng(seed, 0).permutation(sorted(c.M))]
    return {
        "corpus": c,
        "order": order,
        "fingerprint": fingerprint(c.M[k] for k in order),
    }


def run_gp_classify(inp: dict, rec: Recorder) -> None:
    """The scaled classification: every interval module and its stable
    image is GP and indecomposable, distinct images are not stably
    isomorphic, and the full intervals match the corpus predictions.
    Op = one GP verdict at depth 8 (2 per module)."""
    c, order = inp["corpus"], inp["order"]
    man = c.manifest
    for key in order:
        m = c.M[key]
        idx, rep = rec.op(f"gp:src:{key}", lambda m=m: is_gorenstein_projective(m, GP_DEPTH))
        want = man["gp_expected"][f"{key[0]},{key[1]}"]
        rec.check(idx, lambda rep=rep: rep is not None and rep.is_gp == want, answer=rep is not None and rep.is_gp)
        rec.check(idx, lambda m=m: len(decompose(m)) == 1 and decompose(m)[0][1] == 1)
        rec.check(idx, lambda m=m: not is_projective(m))
    rec.check(0, lambda: man["pair_count"] == len(order) == (2 * c.n + 2) * (2 * c.n + 3) // 2)
    images = {}
    img_op = {}
    for key in order:
        img, _ = stable_image(c.F, c.M[key])
        images[key] = img
        idx, rep = rec.op(f"gp:img:{key}", lambda img=img: is_gorenstein_projective(img, GP_DEPTH))
        img_op[key] = idx
        rec.check(idx, lambda rep=rep: rep is not None and rep.is_gp, answer=rep is not None and rep.is_gp)
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            ka, kb = order[a], order[b]
            rec.check(img_op[ka], lambda ka=ka, kb=kb: not stable_iso(images[ka], images[kb]))
    for key, predicted in sorted(full_interval_predictions(c).items()):
        rec.check(img_op[key], lambda key=key, predicted=predicted: stable_iso(images[key], predicted()))


# -- functor_transport ----------------------------------------------------------


FT_N = 3
FT_MORPHISMS = 40


def build_functor_transport(seed: int, n: int = FT_N, morphisms: int = FT_MORPHISMS) -> dict:
    c = Corpus(n)
    rng = _rng(seed, 1)
    keys = sorted(c.M)
    order = [tuple(k) for k in rng.permutation(keys)]
    maps = []
    drawn = 0
    while len(maps) < morphisms:
        # sources go through the modules in the seeded order, so that the
        # seeds differ in targets and coefficients more than in sizes
        kx = order[drawn % len(order)]
        drawn += 1
        ky = keys[rng.integers(0, len(keys))]
        phi = random_hom(c.M[kx], c.M[ky], rng)
        if phi is None or phi.is_zero():
            continue
        maps.append((kx, ky, phi))
    reps = [c.M[k] for k in order]
    return {
        "corpus": c,
        "order": order,
        "maps": maps,
        "fingerprint": fingerprint(reps) + ":" + hashlib.sha256(
            b"".join(phi.flat().tobytes() for _, _, phi in maps)
        ).hexdigest()[:8],
    }


def run_functor_transport(inp: dict, rec: Recorder) -> None:
    """Stable images, the F o G = Omega^width identity, transported short
    exact sequences and transported morphisms.  No GP checks."""
    c, order, maps = inp["corpus"], inp["order"], inp["maps"]
    full = full_interval_predictions(c)
    for key in order:
        idx, img = rec.op(f"ft:image:{key}", lambda key=key: stable_image(c.F, c.M[key])[0])
        rec.check(idx, lambda img=img: img is not None and not is_projective(img), answer=img and img.total_dim())
        if key in full:
            rec.check(idx, lambda img=img, key=key: stable_iso(img, full[key]()))
    fg = compose(c.F, c.G)
    for key in order:
        x = c.M[key]
        idx, same = rec.op(
            f"ft:fg:{key}",
            lambda x=x: stable_iso(stable_image(fg, x)[0], syzygy(x, c.F.width)),
        )
        rec.check(idx, lambda same=same: same is True, answer=same)
    for key in order:
        if key not in c.ses:
            continue
        incl, proj = c.ses[key]
        idx, res = rec.op(f"ft:ses:{key}", lambda incl=incl, proj=proj: exact_sequence_image(c.F, incl, proj))
        rec.check(idx, lambda res=res: res.verify_exact(), answer=res is not None)
        rec.check(idx, lambda res=res: is_projective(res.P) and is_projective(res.Q))
        rec.check(idx, lambda res=res: res.left.verify() and res.right.verify())
    for j, (kx, ky, phi) in enumerate(maps):
        idx, b = rec.op(f"ft:map:{j}:{kx}->{ky}", lambda phi=phi: stable_image_map(c.F, phi))
        rec.check(idx, lambda b=b: b.rep.verify(), answer=b is not None and b.rep.flat().tolist())
        rec.check(
            idx,
            lambda b=b, phi=phi: b.rep.source is stable_image(c.F, phi.source)[0]
            and b.rep.target is stable_image(c.F, phi.target)[0],
        )
        # a stable equivalence is faithful: phi is stably zero iff its image is
        rec.check(
            idx,
            lambda b=b, phi=phi: StableHomSpace(phi.source, phi.target).factors_through_projective(phi)
            == b.is_zero(),
        )


# -- derived_oracle -------------------------------------------------------------


DO_N = 2
DO_PAIRS = 152
DO_LOC_PAIRS = 150
EXT_DEGREES = range(5)
LOC_SHIFTS = range(-3, 1)


def build_derived_oracle(seed: int, n: int = DO_N, pairs: int = DO_PAIRS, loc_pairs: int = DO_LOC_PAIRS) -> dict:
    c = Corpus(n)
    algs = [c.A, c.B, c.Lam, c.Gam]
    mod_pairs = []
    for k, alg in enumerate(algs):
        rng = _rng(seed, 10 + k)
        # every (target, source) vertex pair in turn, in a seeded order, so
        # that the seeds differ in coefficients more than in module sizes
        verts = list(alg.quiver.vertices)
        ends = [([t], [s]) for t in verts for s in verts]
        order = rng.permutation(len(ends))
        done = drawn = 0
        while done < _share(pairs, len(algs), k):
            m = random_module(alg, rng, ends=ends[order[drawn % len(ends)]])
            x = random_module(alg, rng, ends=ends[order[(drawn + 1) % len(ends)]])
            drawn += 2
            if m.is_zero() or x.is_zero():
                continue
            done += 1
            mod_pairs.append((k, m, x))
    loc = []
    for k, alg in enumerate((c.A, dual_numbers())):
        rng = _rng(seed, 20 + k)
        deck = VertexDeck(alg, rng)
        done = 0
        while done < _share(loc_pairs, 2, k):
            x, y = localization_pair(alg, rng, deck)
            if x.is_zero() or y.is_zero():
                continue
            done += 1
            loc.append((k, x, y))
    reps = [r for _, m, x in mod_pairs for r in (m, x)]
    reps += [t for _, x, y in loc for cx in (x, y) for t in cx.terms.values()]
    return {"corpus": c, "pairs": mod_pairs, "loc": loc, "fingerprint": fingerprint(reps)}


def run_derived_oracle(inp: dict, rec: Recorder) -> None:
    """Ext against derived Hom on random module pairs, and the
    localization comparison on criterion-3 pairs."""
    for j, (k, m, x) in enumerate(inp["pairs"]):

        def both(m=m, x=x):
            return [(hom_d_dim(module_complex(m), module_complex(x), i), ext(m, x, i)) for i in EXT_DEGREES]

        idx, dims = rec.op(f"do:ext:{j}:alg{k}", both)
        rec.check(idx, lambda dims=dims: all(a == b for a, b in dims), answer=dims and [b for _, b in dims])
    for j, (k, x, y) in enumerate(inp["loc"]):

        def compare(x=x, y=y):
            reps = [localization_compare(x, y, s) for s in LOC_SHIFTS]
            return reps, localization_compare(x, y, 1)

        idx, out = rec.op(f"do:loc:{j}:alg{k}", compare)
        rec.check(
            idx,
            lambda out=out: all(r.hypothesis_ok and r.isomorphism() for r in out[0]) and out[1].injective(),
            answer=out and [r.hom_d_dim for r in out[0]],
        )


WORKLOADS = {
    "gp_classify": (build_gp_classify, run_gp_classify),
    "functor_transport": (build_functor_transport, run_functor_transport),
    "derived_oracle": (build_derived_oracle, run_derived_oracle),
}
