"""Command-line surface.

Verbs cover the whole toolkit: resolutions, Ext, homotopy/derived Hom,
localization comparison, tilting checks, functor application, stable
images and maps, exactness transport, Gorenstein detection, cosyzygies,
projective dimensions, finitistic-dimension bounds, decomposition, and
emission of the built-in dual-numbers corpus.

Objects come from a JSON definitions file (--defs, see docs/FORMAT.md),
from the built-in corpus (--corpus N, names like A, B, Lambda, Gamma,
M_1_2, SQ_0, SP_3, F, G, F_BA, G_AB, proj_A_1, simple_G_0), or both.
Exit codes: 0 success, 1 operation error, 2 usage or parse error.
Machine-readable output is stable across runs for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .algebra import NonAdmissibleError
from .complexes import (
    hom_d_dim,
    hom_k_dim,
    homology_dims,
    localization_compare,
    module_complex,
    projective_resolution,
)
from .corpus import corpus as build_corpus
from .exactlin import DEFAULT_PRIME, check_prime
from .functors import TiltingCandidate, apply_to_module, check_tilting, endomorphism_presentation
from .gorenstein import (
    CosyzygyError,
    GPCrossCheckError,
    cosyzygy_sequence,
    findim_bounds_check,
    gorenstein_dimension,
    is_gorenstein_projective,
)
from .homological import DRAWS, DecompositionError, decompose, ext, is_isomorphic, projdim
from .io import Definitions, DefinitionError, module_dot, parse_definitions, serialize_definitions
from .modules import cokernel, hom_frame, hom_space, is_mono, is_projective, projective, simple
from .projcplx import recognize
from .stable import exact_sequence_image, stable_image, stable_image_map


class OperationError(RuntimeError):
    pass


def _corpus_tables(c) -> tuple[dict, dict, dict]:
    """The algebras, modules and functors of a corpus under their CLI names,
    as `--corpus N` loads them and the `corpus` verb writes them."""
    algebras = {"A": c.A, "B": c.B, "Lambda": c.Lam, "Gamma": c.Gam}
    modules = {
        **{f"M_{i}_{l}": m for (i, l), m in c.M.items()},
        **{f"SQ_{i}": m for i, m in c.S_Q.items()},
        **{f"SP_{i}": m for i, m in c.S_P.items()},
    }
    return algebras, modules, {"F": c.F, "G": c.G, "F_BA": c.F_BA, "G_AB": c.G_AB}


class Context:
    def __init__(self, args):
        try:
            self.p = DEFAULT_PRIME if args.prime is None else check_prime(args.prime)
        except ValueError as e:
            raise DefinitionError("--prime", str(e))
        if args.depth < 1:
            raise OperationError("depth must be >= 1")
        if args.seed < 0:
            raise OperationError("--seed must be >= 0")
        self.seed = args.seed
        self.depth = args.depth
        self.fmt = args.format
        self.algebras = {}
        self.modules = {}
        self.complexes = {}
        self.functors = {}
        self.corpus = None
        if getattr(args, "defs", None):
            try:
                with open(args.defs, encoding="utf-8") as fh:
                    defs = parse_definitions(fh.read())
            except (OSError, UnicodeDecodeError) as e:
                raise DefinitionError("--defs", str(e))
            if args.prime is not None and defs.p != self.p:
                raise OperationError("definitions file uses a different prime")
            self.p = defs.p
            self.algebras.update(defs.algebras)
            self.modules.update(defs.modules)
            self.complexes.update(defs.complexes)
            self.functors.update(defs.functors)
        if args.corpus is not None:
            self.corpus = build_corpus(args.corpus, self.p)
            algebras, modules, functors = _corpus_tables(self.corpus)
            self.algebras.update(algebras)
            self.modules.update(modules)
            self.functors.update(functors)

    def module(self, name: str):
        if name in self.modules:
            return self.modules[name]
        prefix, _, rest = name.partition("_")
        aname, _, v = rest.partition("_")
        kind = {"proj": projective, "simple": simple}.get(prefix)
        alg = self.algebras.get({"L": "Lambda", "G": "Gamma"}.get(aname, aname))
        if kind is not None and alg is not None and v in alg.quiver.vertices:
            return kind(alg, v)
        raise OperationError(f"unknown module {name}")

    def functor(self, name: str):
        if name not in self.functors:
            raise OperationError(f"unknown functor {name}")
        return self.functors[name]

    def complex(self, name: str):
        if name in self.complexes:
            return self.complexes[name]
        try:
            return module_complex(self.module(name))
        except OperationError:
            raise OperationError(f"unknown complex {name}")


def emit(ctx: Context, payload: dict, table_lines=None):
    """Print payload as JSON, its "dot" entry, or table_lines (default: sorted `key: value` lines)."""
    if ctx.fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    elif ctx.fmt == "dot":
        dot = payload.get("dot")
        if dot is None:
            raise OperationError("dot output not available for this verb")
        print(dot)
    else:
        if table_lines is None:
            table_lines = [f"{k}: {v}" for k, v in sorted(payload.items())]
        for line in table_lines:
            print(line)


def _window(args) -> int:
    """--window, the lowest degree of a module's resolution: above 0 it is empty."""
    if args.window > 0:
        raise OperationError("window must be <= 0")
    return args.window


def cmd_resolve(ctx, args):
    m = ctx.module(args.module)
    res, _ = projective_resolution(module_complex(m), _window(args))
    terms = {str(i): list(res.terms[i].vertices) for i in sorted(res.terms)}
    emit(
        ctx,
        {"terms": terms},
        [f"degree {i}: {v}" for i, v in terms.items()],
    )


def cmd_ext(ctx, args):
    d = ext(ctx.module(getattr(args, "from")), ctx.module(args.to), args.degree)
    emit(ctx, {"ext_dim": d}, [f"Ext^{args.degree} dimension: {d}"])


def cmd_hom_k(ctx, args):
    d = hom_k_dim(ctx.complex(args.source), ctx.complex(args.target), args.shift)
    emit(ctx, {"hom_k_dim": d}, [f"Hom_K dimension at shift {args.shift}: {d}"])


def cmd_hom_d(ctx, args):
    d = hom_d_dim(ctx.complex(args.source), ctx.complex(args.target), args.shift)
    emit(ctx, {"hom_d_dim": d}, [f"Hom_D dimension at shift {args.shift}: {d}"])


def cmd_compare_kd(ctx, args):
    rep = localization_compare(
        ctx.complex(args.source), ctx.complex(args.target), args.shift, depth=ctx.depth
    )
    payload = {
        "hom_k_dim": rep.hom_k_dim,
        "hom_d_dim": rep.hom_d_dim,
        "comparison_rank": rep.comparison_rank,
        "hypothesis_ok": rep.hypothesis_ok,
        "injective": rep.injective(),
        "isomorphism": rep.isomorphism(),
        "surjective": rep.surjective_at_n,
    }
    emit(ctx, payload)


def _candidate(ctx, args) -> TiltingCandidate:
    if args.summands:
        names = args.summands.split(",")
        pcs = [recognize(ctx.complex(n)) for n in names]
        return TiltingCandidate(pcs[0].algebra, pcs)
    if ctx.corpus is not None:
        return ctx.corpus.tilting
    raise OperationError("no tilting candidate: pass --summands or --corpus")


def cmd_tilting_check(ctx, args):
    rep = check_tilting(_candidate(ctx, args), search_depth=args.search_depth, seed=ctx.seed)
    payload = {
        "self_orthogonal": rep.self_orthogonal,
        "generates": rep.generates,
        "rounds": rep.rounds,
        "failures": {str(k): v for k, v in rep.failures.items()},
    }
    emit(ctx, payload)
    if not rep.self_orthogonal:
        raise OperationError("candidate has self-extensions")


def cmd_endo(ctx, args):
    pres = endomorphism_presentation(_candidate(ctx, args), seed=ctx.seed)
    payload = {
        "dim": pres.dim,
        "multiplicities": pres.multiplicities,
        "vertices": list(pres.quiver.vertices),
        "arrows": [list(a) for a in pres.quiver.arrows],
        "relation_count": pres.relation_count,
    }
    emit(ctx, payload)


def cmd_apply(ctx, args):
    f = ctx.functor(args.functor)
    img = apply_to_module(f, ctx.module(args.module), _window(args))
    c = img.to_complex()
    payload = {
        "terms": {str(i): list(img.terms[i].vertices) for i in sorted(img.terms)},
        "homology": {str(i): d for i, d in homology_dims(c).items()},
    }
    emit(
        ctx,
        payload,
        [f"degree {i}: {v}" for i, v in payload["terms"].items()]
        + [f"H^{i} dim {d}" for i, d in payload["homology"].items()],
    )


def cmd_stable_image(ctx, args):
    f = ctx.functor(args.functor)
    M, tri = stable_image(f, ctx.module(args.module))
    payload = {
        "dims": dict(M.dims),
        "total_dim": M.total_dim(),
        "U_terms": {str(i): list(t.vertices) for i, t in recognize(tri.U).terms.items()},
        "dot": module_dot(M, "stable_image"),
    }
    emit(
        ctx,
        payload,
        [f"dims: {payload['dims']}", f"U: {payload['U_terms']}"],
    )


def cmd_stable_map(ctx, args):
    f = ctx.functor(args.functor)
    x = ctx.module(getattr(args, "from"))
    y = ctx.module(args.to)
    basis = hom_space(x, y)
    if not basis:
        raise OperationError("Hom space is zero")
    if not 0 <= args.hom_index < len(basis):
        raise OperationError(f"hom index out of range (dim {len(basis)})")
    sh = stable_image_map(f, basis[args.hom_index])
    payload = {
        "hom_dim": len(basis),
        "class_is_zero": sh.is_zero(),
        "target_stable_hom_dim": sh.space.dim,
    }
    emit(ctx, payload)


def _find_ses(ctx, sub, mid, quot, seed):
    frame = hom_frame(sub, mid)
    if not frame.dim and not sub.is_zero():
        raise OperationError("no short exact sequence with the given ends: Hom(sub, mid) = 0, so no monomorphism sub -> mid exists")
    rng = np.random.default_rng(seed)
    # a zero sub has one map to mid, the zero map, and it is a monomorphism
    for _ in range(DRAWS if frame.dim else 1):
        f = frame.combination(rng.integers(0, sub.p, size=frame.dim))
        if not is_mono(f):
            continue
        q, qmap = cokernel(f)
        if is_isomorphic(q, quot, seed=seed):
            return f, qmap
    if not frame.dim:
        raise OperationError("no short exact sequence with the given ends: sub = 0, and no isomorphism mid -> quot was found")
    raise OperationError(f"no short exact sequence found with the given ends within budget = {DRAWS} random maps")


def cmd_exact_image(ctx, args):
    f = ctx.functor(args.functor)
    if args.pair:
        try:
            i, l = (int(t) for t in args.pair.split(","))
        except ValueError:
            raise DefinitionError("--pair", f"expected a corpus pair i,l, got {args.pair!r}")
        if ctx.corpus is None:
            raise OperationError("--pair needs --corpus")
        if (i, l) not in ctx.corpus.ses:
            raise OperationError(f"no corpus sequence for pair {i},{l}")
        incl, proj = ctx.corpus.ses[(i, l)]
    elif args.sub and args.mid and args.quot:
        incl, proj = _find_ses(
            ctx, ctx.module(args.sub), ctx.module(args.mid), ctx.module(args.quot), ctx.seed
        )
    else:
        raise DefinitionError("exact-image", "needs --pair i,l or all of --sub, --mid and --quot")
    res = exact_sequence_image(f, incl, proj)
    payload = {
        "exact": res.verify_exact(),
        "P_dim": res.P.total_dim(),
        "Q_dim": res.Q.total_dim(),
        "P_projective": is_projective(res.P),
        "Q_projective": is_projective(res.Q),
    }
    emit(ctx, payload)
    if not payload["exact"]:
        raise OperationError("transported sequence is not exact")


def cmd_gp_check(ctx, args):
    rep = is_gorenstein_projective(ctx.module(args.module), ctx.depth)
    payload = {
        "verdict": rep.verdict,
        "depth": rep.depth,
        "witness": list(rep.witness) if rep.witness else None,
        "gorenstein_dimension": rep.certificate,
    }
    emit(ctx, payload)


def cmd_cosyzygy(ctx, args):
    seq = cosyzygy_sequence(ctx.module(args.module), ctx.depth)
    payload = {
        "module_dims": [m.total_dim() for m in seq.modules],
        "verified": seq.verify(),
    }
    emit(ctx, payload)


def cmd_projdim(ctx, args):
    d = projdim(ctx.module(args.module), args.bound)
    payload = {"projdim": d if d is not None else f"exceeds {args.bound}"}
    emit(ctx, payload, [f"projective dimension: {payload['projdim']}"])


def cmd_findim_check(ctx, args):
    f = ctx.functor(args.functor)
    if args.modules:
        mods = [ctx.module(n) for n in args.modules.split(",")]
    elif ctx.corpus is not None and f is ctx.corpus.F_BA:
        mods = ctx.corpus.indecomposables_B()
    else:
        raise OperationError("pass --modules or use --corpus with F_BA")
    rep = findim_bounds_check(f, mods, bound=args.bound)
    payload = {
        "width": rep.width,
        "entries": [[a, b] for a, b in rep.entries],
        "findim_source": rep.findim_source,
        "findim_image": rep.findim_image,
        # derived equivalence preserves Gorensteinness, so the two agree
        # in being finite
        "gorenstein_dimension_source": gorenstein_dimension(f.source, args.bound),
        "gorenstein_dimension_target": gorenstein_dimension(f.target, args.bound),
        "bounds_ok": rep.bounds_ok,
        "gap_ok": rep.findim_gap_ok,
    }
    emit(ctx, payload)
    if not rep.bounds_ok:
        raise OperationError("projective dimension bounds violated")


def cmd_decompose(ctx, args):
    pieces = decompose(ctx.module(args.module), seed=ctx.seed)
    payload = {
        "seed": ctx.seed,
        "pieces": [
            {"total_dim": r.total_dim(), "dims": dict(r.dims), "multiplicity": k}
            for r, k in pieces
        ],
    }
    emit(
        ctx,
        payload,
        [f"dim {e['total_dim']} x {e['multiplicity']}" for e in payload["pieces"]],
    )


def cmd_corpus(ctx, args):
    c = build_corpus(args.n, ctx.p)
    algebras, modules, functors = _corpus_tables(c)
    defs = Definitions(ctx.p, algebras, modules, {}, functors)
    payload = {"definitions": json.loads(serialize_definitions(defs)), "manifest": c.manifest}
    if args.out:
        try:
            with open(args.out, "w") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True)
        except OSError as e:
            raise OperationError(f"--out: {e}")
        print(f"wrote {args.out}")
    else:
        print(json.dumps(payload, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="quivhom")
    ap.add_argument("--defs", help="JSON definitions file")
    ap.add_argument("--corpus", type=int, help="load the built-in corpus at scale n")
    ap.add_argument("--format", choices=["table", "json", "dot"], default="table")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--prime", type=int, help=f"field order (default {DEFAULT_PRIME}, or the definitions file's)")
    ap.add_argument("--depth", type=int, default=8)
    sub = ap.add_subparsers(dest="verb", required=True)

    s = sub.add_parser("resolve")
    s.add_argument("--module", required=True)
    s.add_argument("--window", type=int, default=-4)
    s.set_defaults(fn=cmd_resolve)

    s = sub.add_parser("ext")
    s.add_argument("--from", required=True)
    s.add_argument("--to", required=True)
    s.add_argument("--degree", type=int, required=True)
    s.set_defaults(fn=cmd_ext)

    for name, fn in (("hom-k", cmd_hom_k), ("hom-d", cmd_hom_d), ("compare-kd", cmd_compare_kd)):
        s = sub.add_parser(name)
        s.add_argument("--source", required=True)
        s.add_argument("--target", required=True)
        s.add_argument("--shift", type=int, default=0)
        s.set_defaults(fn=fn)

    s = sub.add_parser("tilting-check")
    s.add_argument("--summands", help="comma-separated complex names")
    s.add_argument("--search-depth", type=int, default=4)
    s.set_defaults(fn=cmd_tilting_check)

    s = sub.add_parser("endo")
    s.add_argument("--summands")
    s.set_defaults(fn=cmd_endo)

    s = sub.add_parser("apply")
    s.add_argument("--functor", required=True)
    s.add_argument("--module", required=True)
    s.add_argument("--window", type=int, default=-4)
    s.set_defaults(fn=cmd_apply)

    s = sub.add_parser("stable-image")
    s.add_argument("--functor", required=True)
    s.add_argument("--module", required=True)
    s.set_defaults(fn=cmd_stable_image)

    s = sub.add_parser("stable-map")
    s.add_argument("--functor", required=True)
    s.add_argument("--from", required=True)
    s.add_argument("--to", required=True)
    s.add_argument("--hom-index", type=int, default=0)
    s.set_defaults(fn=cmd_stable_map)

    s = sub.add_parser("exact-image")
    s.add_argument("--functor", required=True)
    s.add_argument("--pair", help="corpus pair i,l")
    s.add_argument("--sub")
    s.add_argument("--mid")
    s.add_argument("--quot")
    s.set_defaults(fn=cmd_exact_image)

    s = sub.add_parser("gp-check")
    s.add_argument("--module", required=True)
    s.add_argument("--depth", type=int, default=argparse.SUPPRESS)
    s.set_defaults(fn=cmd_gp_check)

    s = sub.add_parser("cosyzygy")
    s.add_argument("--module", required=True)
    s.add_argument("--depth", type=int, default=argparse.SUPPRESS)
    s.set_defaults(fn=cmd_cosyzygy)

    s = sub.add_parser("projdim")
    s.add_argument("--module", required=True)
    s.add_argument("--bound", type=int, default=8)
    s.set_defaults(fn=cmd_projdim)

    s = sub.add_parser("findim-check")
    s.add_argument("--functor", required=True)
    s.add_argument("--modules")
    s.add_argument("--bound", type=int, default=8)
    s.set_defaults(fn=cmd_findim_check)

    s = sub.add_parser("decompose")
    s.add_argument("--module", required=True)
    s.set_defaults(fn=cmd_decompose)

    s = sub.add_parser("corpus")
    s.add_argument("--n", type=int, default=1)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_corpus)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        ctx = Context(args)
        args.fn(ctx, args)
        return 0
    except (DefinitionError,) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (OperationError, NonAdmissibleError, ValueError, GPCrossCheckError, DecompositionError, CosyzygyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
