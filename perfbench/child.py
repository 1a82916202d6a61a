"""One benchmark child process: build one workload's inputs from its
seed and, unless only set-up is measured, run the job once.

    python3 perfbench/child.py --workload NAME --seed N --spawn-ns T --mode setup|job|traced

``T`` is the parent's ``time.monotonic_ns()`` just before it started
this process, so ``setup_s`` covers interpreter start, importing
``quivhom``, building the corpus and generating the inputs.  Every time
is reported raw and scaled to a reference host speed (``hostspeed.py``).
The child prints one JSON object on stdout.  ``run.py`` starts it with
``PYTHONPATH`` pointing at the checkout's ``src`` and every BLAS/OpenMP
thread count set to 1.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "job", "traced"), required=True)
    args = ap.parse_args()
    if sys.flags.optimize:
        print("refusing to run under python -O: quivhom still checks with assert", file=sys.stderr)
        return 2

    tracer = None
    if args.mode == "traced":
        import tracing

        # wrap before workloads.py binds the package's functions
        tracer = tracing.install()
    import hostspeed
    import workloads

    build, run = workloads.WORKLOADS[args.workload]
    inputs = build(args.seed)
    setup_raw_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    speed = hostspeed.Sampler()
    setup_scale = speed.burst()
    out = {
        "setup_s": setup_raw_s / setup_scale,
        "setup_raw_s": setup_raw_s,
        "fingerprint": inputs["fingerprint"],
    }
    if args.mode != "setup":
        setup_agg = tracer.reset() if tracer else None
        rec = workloads.Recorder(on_op=tracer.set_op if tracer else None, after_op=speed.maybe)
        if tracer:
            tracer.set_op(tracing.NO_OP)
        t0 = time.perf_counter()
        run(inputs, rec)
        wall_raw_s = time.perf_counter() - t0 - speed.spent_since(t0)
        scale = speed.factors(rec.ends, since=t0)
        op_s = [t / f for t, f in zip(rec.latency, scale)]
        outside_s = (wall_raw_s - sum(rec.latency)) / statistics.median(scale)
        out.update(
            wall_s=sum(op_s) + outside_s,
            wall_raw_s=wall_raw_s,
            op_s=op_s,
            attempted=len(rec.labels),
            failed=sum(rec.failed),
            failed_labels=[lab for lab, bad in zip(rec.labels, rec.failed) if bad][:10],
            answers=rec.answers_digest(),
        )
        if tracer:
            out["layers"] = tracing.metrics(tracer.agg, setup_agg, wall_raw_s)
            out_dir = os.path.join(HERE, "out")
            os.makedirs(out_dir, exist_ok=True)
            meta = {"workload": args.workload, "seed": args.seed, "wall_raw_s": wall_raw_s, "labels": rec.labels}
            tracer.dump(os.path.join(out_dir, f"spans-{args.workload}.npz"), meta)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
