"""Self-check of the benchmark on tiny inputs (a few seconds):

1. a planted wrong expectation makes an op fail, so the failed-op count
   is above 0;
2. each workload reports the same op count and the same answers with
   and without tracing;
3. the traced run reports every per-layer metric that BENCHMARK.json
   lists.

    PYTHONPATH=src python3 perfbench/selfcheck.py

Exits 0 when all hold, 1 otherwise.
"""

import importlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# tiny sizes: every op kind of every workload still runs
TINY = {
    "gp_classify": {"n": 1},
    "functor_transport": {"n": 1, "morphisms": 4},
    "derived_oracle": {"n": 1, "pairs": 8, "loc_pairs": 4},
}
SEED = 7


def run_tiny(mod, name: str, on_op=None, plant=None):
    build, run = mod.WORKLOADS[name]
    inputs = build(SEED, **TINY[name])
    if plant:
        plant(inputs)
    rec = mod.Recorder(on_op=on_op)
    run(inputs, rec)
    return rec


def plant_wrong_gp_expectation(inputs) -> None:
    # the first interval module is GP; expect the opposite
    key = "{},{}".format(*inputs["order"][0])
    inputs["corpus"].manifest["gp_expected"][key] = False


def main() -> int:
    problems = []
    untraced = {}
    for name in TINY:
        rec = run_tiny(workloads, name)
        untraced[name] = (len(rec.labels), rec.answers_digest())
        if any(rec.failed):
            problems.append(f"{name}: {sum(rec.failed)} ops failed on tiny inputs")
        print(f"untraced {name}: {len(rec.labels)} ops, answers {rec.answers_digest()}")

    rec = run_tiny(workloads, "gp_classify", plant=plant_wrong_gp_expectation)
    ratio = sum(rec.failed) / len(rec.failed)
    print(f"planted wrong expectation: failed_ops_ratio {ratio:.4f}")
    if ratio <= 0:
        problems.append("a planted wrong expectation did not fail any op")

    import tracing

    tracer = tracing.install()
    traced_workloads = importlib.reload(workloads)  # rebind the wrapped functions
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        wanted = {m["name"] for m in json.load(fh)["per_layer"]}
    for name in TINY:
        setup_agg = tracer.reset()
        rec = run_tiny(traced_workloads, name, on_op=tracer.set_op)
        got = (len(rec.labels), rec.answers_digest())
        print(f"traced   {name}: {got[0]} ops, answers {got[1]}")
        if got != untraced[name]:
            problems.append(f"{name}: traced run reports {got}, untraced {untraced[name]}")
        reported = set(tracing.metrics(tracer.agg, setup_agg, 1.0)) | {"trace.overhead_ratio", "trace.wall_s"}
        if reported != wanted:
            problems.append(f"per-layer metrics differ from BENCHMARK.json: {sorted(reported ^ wanted)}")
    for p in problems:
        print("FAIL:", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
