"""Runs one eirm benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload desk_game --seed 1 --seconds 20 --trace 0

Each round of a workload runs in a fresh worker process (worker.py) with the
BLAS thread count pinned to BLAS_THREADS. A run makes one round, then more
while the next is expected to end within --seconds; every round of a run
does the same work on the same inputs, made from --seed. Figures are
medians over rounds. With --trace 0 the run reports the end-to-end metrics,
with --trace 1 the per-layer metrics of a traced run. The last line of
standard output is the result object; the line before it names the machine.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
TIME_LIMIT_S = 170  # a run ends, result printed, within this

# workload -> extra set-up-only processes, so that set-up is sampled often
# enough for a median even when only one or two rounds fit in a run
WORKLOADS = {
    "desk_game": 2,
    "desk_baselines": 4,
    "paper_turns": 2,
    "sem_certify": 0,
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "steps/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "datasets.generate_s": "s",
    "datasets.feature_mb": "MB",
    "datasets.self_s": "s",
    "nn.forward_s": "s",
    "nn.forward_calls": "count",
    "nn.forward_rows": "rows",
    "nn.forward_gflop": "GFLOP",
    "nn.forward_gflops": "GFLOP/s",
    "nn.backward_s": "s",
    "nn.backward_calls": "count",
    "nn.adam_step_s": "s",
    "nn.adam_step_calls": "count",
    "nn.self_s": "s",
    "game.env_turn_s": "s",
    "game.env_turn_calls": "count",
    "game.phi_turn_s": "s",
    "game.phi_turn_calls": "count",
    "game.diagnostics_s": "s",
    "game.diagnostics_forward_rows": "rows",
    "game.diagnostics_fresh_ratio": "ratio",
    "game.test_eval_s": "s",
    "game.final_eval_s": "s",
    "game.trace_write_s": "s",
    "game.self_s": "s",
    "baselines.robust_diagnostics_s": "s",
    "baselines.pool_s": "s",
    "baselines.self_s": "s",
    "theory.verify_nash_s": "s",
    "theory.verify_invariance_s": "s",
    "theory.self_s": "s",
    "sem_game.train_s": "s",
    "sem_game.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
}


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, out: Path, deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out)]
    if args.trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=worker_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the {TIME_LIMIT_S} s limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, out: Path) -> tuple:
    """Returns (rounds, set-up samples)."""
    start = time.perf_counter()
    deadline = start + TIME_LIMIT_S
    rounds = []
    while True:
        rounds.append(run_worker(args, out / f"round{len(rounds)}", deadline))
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(rounds)
        if elapsed + per_round > min(args.seconds, TIME_LIMIT_S / 2):
            break
    setups = [r["setup_s"] for r in rounds]
    if not args.trace:
        for i in range(WORKLOADS[args.workload]):
            setups.append(run_worker(args, out / f"setup{i}", deadline, True)["setup_s"])
    return rounds, setups


def summarize(args, rounds: list, setups: list) -> dict:
    ops = [op for r in rounds for op in r["ops"]]
    for name, status, message in ops:
        if status != "ok":
            print(f"{status}: {name}: {message}", file=sys.stderr)
    med = statistics.median
    if args.trace:
        # the lower median is one round's own figure, so counts stay whole
        low = statistics.median_low
        values = {name: low(r["layers"][name] for r in rounds) for name in PER_LAYER}
        units = PER_LAYER
    else:
        values = {
            "setup_s": med(setups),
            "wall_s": med(r["wall_s"] for r in rounds),
            "steps_per_s": med(r["steps"] / r["train_s"] for r in rounds),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in rounds),
        }
        units = END_TO_END
    return {
        "correct": all(status != "wrong" for _, status, _ in ops),
        "attempted": len(ops),
        "failed": sum(status == "failed" for _, status, _ in ops),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "eirm" / "__init__.py").is_file():
        print(f"error: no eirm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = HERE / "out" / f"{args.workload}{'-trace' if args.trace else ''}"
    shutil.rmtree(out, ignore_errors=True)
    try:
        rounds, setups = measure(args, out)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = summarize(args, rounds, setups)
    machine = {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **rounds[0]["environment"],
        "rounds": len(rounds),
        "setup_samples": len(setups),
    }
    figures = [{k: r[k] for k in ("setup_s", "wall_s", "steps", "train_s", "peak_rss_mb")}
               for r in rounds]
    with open(out / "result.json", "w") as f:
        json.dump({"machine": machine, **result, "rounds": figures, "setups": setups}, f, indent=2)
    print(json.dumps({"machine": machine}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
