"""CLI verbs pinned byte for byte against text captured before a rewrite.

The first golden covers the verbs whose answers went through a split.

`tilting-check`, `endo` and `decompose` rest on splitting a module or a
complex by a random endomorphism; `cosyzygy` did too, until it became the
cokernel of the minimal left approximation by projectives.  Their exit
codes, stdout and stderr on corpus 1, in both formats and at two seeds,
and `cosyzygy` to depth 3 on every M_i_l of corpus 2, are compared with
text captured before the splitting step and the cosyzygy were last
rewritten.

The second golden covers the verbs whose answers pass through
`projcplx.minimize`: `stable-image`, `apply` and `resolve` on every M_i_l
of corpus 1, and `stable-map` between the first three, in both formats.
It was captured before `minimize` became an in-place cancellation.

The third golden covers the verbs whose answers pass through chain maps
of complexes and the exactness construction: `exact-image` on every
corpus-1 and corpus-2 sequence, in both formats, and `hom-k`, `hom-d`
and `compare-kd` between the first three M_i_l of corpus 1 at shifts -1,
0 and 1.  It was captured before `ShiftedMap` was folded into `ChainMap`
and `exact_sequence_image` stopped contracting its total cone, and
recaptured when `exact-image` dropped its `edge_classes_match` key (a
comparison of each edge map with a recomputation of itself); no other
byte of it changed.

To recapture (only when an output is meant to change):
    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

from quivhom.cli import main
from quivhom.corpus import corpus

GOLDEN = Path(__file__).parent / "data" / "cli_split_golden.json"
MINIMIZE_GOLDEN = Path(__file__).parent / "data" / "cli_minimize_golden.json"
EXACT_GOLDEN = Path(__file__).parent / "data" / "cli_exact_golden.json"


def calls():
    names = [f"M_{i}_{l}" for i, l in sorted(corpus(1).M)]
    out = []
    for fmt in ("table", "json"):
        for seed in (0, 1):
            base = ["--corpus", "1", "--format", fmt, "--seed", str(seed)]
            out.append(base + ["tilting-check"])
            out.append(base + ["endo"])
            out += [base + ["decompose", "--module", name] for name in names]
            out += [base + ["cosyzygy", "--module", name, "--depth", "2"] for name in names]
    base = ["--corpus", "2", "--format", "json", "--seed", "0", "cosyzygy"]
    out += [base + ["--module", f"M_{i}_{l}", "--depth", "3"] for i, l in sorted(corpus(2).M)]
    return out


def minimize_calls():
    names = [f"M_{i}_{l}" for i, l in sorted(corpus(1).M)]
    out = []
    for fmt in ("table", "json"):
        base = ["--corpus", "1", "--format", fmt]
        for name in names:
            out.append(base + ["stable-image", "--functor", "F", "--module", name])
            out.append(base + ["apply", "--functor", "F", "--module", name])
            out.append(base + ["resolve", "--module", name])
        for x in names[:3]:
            for y in names[:3]:
                out.append(base + ["stable-map", "--functor", "F", "--from", x, "--to", y])
    return out


def exact_calls():
    out = []
    for n in (1, 2):
        for fmt in ("table", "json"):
            base = ["--corpus", str(n), "--format", fmt, "exact-image", "--functor", "F"]
            out += [base + ["--pair", f"{i},{l}"] for i, l in sorted(corpus(n).ses)]
    names = [f"M_{i}_{l}" for i, l in sorted(corpus(1).M)][:3]
    for verb in ("hom-k", "hom-d", "compare-kd"):
        for x in names:
            for y in names:
                for n in (-1, 0, 1):
                    out.append(["--corpus", "1", "--format", "json", verb, "--source", x, "--target", y, "--shift", str(n)])
    return out


def run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def test_split_verbs_match_the_golden_text():
    want = json.loads(GOLDEN.read_text())
    argvs = calls()
    assert [w["argv"] for w in want] == argvs
    assert len(argvs) == 109
    for expected in want:
        assert run(expected["argv"]) == expected


def test_minimize_verbs_match_the_golden_text():
    want = json.loads(MINIMIZE_GOLDEN.read_text())
    argvs = minimize_calls()
    assert [w["argv"] for w in want] == argvs
    assert len(argvs) == 78
    for expected in want:
        assert run(expected["argv"]) == expected


def test_exact_and_hom_verbs_match_the_golden_text():
    want = json.loads(EXACT_GOLDEN.read_text())
    argvs = exact_calls()
    assert [w["argv"] for w in want] == argvs
    assert len(argvs) == 42 + 81
    for expected in want:
        assert run(expected["argv"]) == expected


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([run(argv) for argv in calls()], indent=1) + "\n")
    MINIMIZE_GOLDEN.write_text(json.dumps([run(argv) for argv in minimize_calls()], indent=1) + "\n")
    EXACT_GOLDEN.write_text(json.dumps([run(argv) for argv in exact_calls()], indent=1) + "\n")
