"""quivhom benchmark: one command, three workloads, every answer checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the benchmark finds ``src/quivhom``
next to its own directory).  Each measurement is a fresh child process
(``child.py``) with BLAS/OpenMP thread counts set to 1, so no cache of
the package outlives one job and no work is warmed up.

Children run in rounds; another round starts while it can end within
``S`` seconds of the first (there is always one round).

--trace 0  a round is a set-up-only child and a job child.  ``setup_s``
           is the median over all children (topped up with set-up-only
           children to ``MIN_SETUP_SAMPLES``); ``wall_s`` is the median
           job, the op latency percentiles pool the ops of every job.
           Every time is scaled to a reference host speed (hostspeed.py).
--trace 1  a round is an untraced and a traced job.  The per-layer
           metrics are medians over the traced jobs, and the tracing
           overhead is traced over untraced wall time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any child that fails to
start, crashes or times out makes the benchmark exit with code 1
without that line.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_SETUP_SAMPLES = 7
DEADLINE_S = 170  # every child is stopped by then, so a run ends within 180 s
STARTED = time.monotonic()
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, mode: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(
            cmd + ["--spawn-ns", str(spawn_ns)],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, STARTED + DEADLINE_S - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child still running {DEADLINE_S}s after the benchmark started") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_jobs(workload: str, seed: int, seconds: float, modes: tuple[str, ...]) -> dict[str, list[dict]]:
    """Run one child per mode, as a round, and start another round while
    it can end within seconds of the first (there is always one round)."""
    done: dict[str, list[dict]] = {m: [] for m in modes}
    t0 = time.monotonic()
    last = 0.0
    while not done[modes[-1]] or time.monotonic() - t0 + last <= seconds:
        t_round = time.monotonic()
        for mode in modes:
            res = run_child(workload, seed, mode)
            if mode == "setup":
                done[mode].append(res)
                continue
            print(
                f"  {mode:6s} wall {res['wall_s']:.3f}s (raw {res['wall_raw_s']:.3f}s) "
                f"setup {res['setup_s']:.3f}s (raw {res['setup_raw_s']:.3f}s) "
                f"ops {res['attempted']} failed {res['failed']} rss {res['peak_rss_mb']:.1f}MB "
                f"answers {res['answers']}",
                flush=True,
            )
            if res["failed"]:
                print(f"    failed ops: {res['failed_labels']}", flush=True)
            done[mode].append(res)
        last = time.monotonic() - t_round
    return done


def consistent(results: list[dict], key: str) -> bool:
    return len({r[key] for r in results}) == 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("gp_classify", "functor_transport", "derived_oracle"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if sys.flags.optimize:
        print("refusing to run under python -O: quivhom still checks with assert", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "quivhom", "__init__.py")):
        print(f"no quivhom sources under {SRC}", file=sys.stderr)
        return 1
    if not compileall.compile_dir(os.path.join(SRC, "quivhom"), quiet=1):
        print("quivhom sources do not compile", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}", flush=True)
    try:
        if args.trace:
            runs = run_jobs(args.workload, args.seed, args.seconds, ("job", "traced"))
            jobs, traced = runs["job"], runs["traced"]
            setups = []
        else:
            runs = run_jobs(args.workload, args.seed, args.seconds, ("setup", "job"))
            jobs, setups, traced = runs["job"], runs["setup"], []
            while len(setups) + len(jobs) < MIN_SETUP_SAMPLES:
                setups.append(run_child(args.workload, args.seed, "setup"))
            print("  setup " + " ".join(f"{s['setup_s']:.3f}" for s in setups + jobs), flush=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    every = setups + jobs + traced
    timed = jobs + traced
    attempted = sum(r["attempted"] for r in timed)
    failed = sum(r["failed"] for r in timed)
    same_inputs = consistent(every, "fingerprint")
    same_answers = consistent(timed, "answers") and consistent(timed, "attempted")
    correct = failed == 0 and same_inputs and same_answers
    wall_s = statistics.median(r["wall_s"] for r in jobs)
    lat_ms = [1e3 * t for r in jobs for t in r["op_s"]]
    print(
        f"inputs {every[0]['fingerprint']} (same in all {len(every)} children: {same_inputs}); "
        f"answers {timed[0]['answers']} (same in all {len(timed)} jobs: {same_answers})"
    )
    print(
        f"failed_ops_ratio {failed / attempted:.4f} ({failed}/{attempted}); {len(jobs)} untraced jobs; "
        f"median job wall {wall_s:.3f}s (raw {statistics.median(r['wall_raw_s'] for r in jobs):.3f}s); "
        f"latency percentiles over {len(lat_ms)} ops"
    )

    if args.trace:
        layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        layers["trace.overhead_ratio"] = traced_wall / wall_s
        layers["trace.wall_s"] = traced_wall
        import tracing  # only for the units; the children did the tracing

        metrics = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups + jobs), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "ops_per_s": {"value": jobs[0]["attempted"] / wall_s, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
            "op_p90_ms": {"value": percentile(lat_ms, 90), "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in jobs), "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
