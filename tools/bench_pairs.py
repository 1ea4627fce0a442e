"""Run the benchmark in alternating pairs on two checkouts and write the results as JSON.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR OUT.json \
        --change "what the change does" --parent COMMIT [--claim WORKLOAD:METRIC]

For every workload in CHANGE_DIR's `BENCHMARK.json` and every seed in SEEDS,
runs `python3 perfbench/run.py --workload W --seed N --seconds 20 --trace 0`
once in each checkout, back to back; the parent runs first in the 1st, 3rd,
... pair and the change in the others. Then it makes one traced run
(`--trace 1`) per side and workload on the first seed, parent first. Runs go
one at a time, so no two of them share the machine.

OUT.json gets, per workload and end-to-end metric, every run's value with its
seed, the side that ran first and the run's round and set-up sample counts;
per side the median and quartiles; and the number of pairs the change won.
It also gets the failed-operation counts of every run, the machine line, and
the traced runs' per-layer figures with the call counts and times of the
SPANS functions, by calling function, from each traced run's first round.
It opens with the description of the change and its parent commit as given.
With --claim it also gets a claim block for that workload's metric: both
medians, the pairs the change won, the gap between the medians (positive
when the change is better) against the parent's interquartile range, and
whether the claim is met: the change won at least CLAIM_WON of the pairs and
the gap is larger than the parent's IQR.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys

import numpy as np

SEEDS = range(1111, 1121)  # draw new seeds for each comparison
SECONDS = 20
SPANS = ("nn.forward", "nn.predict", "nn.predict_parts", "game.evaluate")
SIDES = ("parent", "change")
RUN_COUNTS = ("rounds", "setup_samples")  # per-run entries of the machine line
CLAIM_WON = 0.9  # share of pairs a claimed gain must win

NOTE = (
    "One pair = the parent and the change run back to back on the same seed, each in "
    "its own checkout; 'first' names the side that ran first. Quartiles are numpy's "
    "linear-interpolation 25th and 75th percentiles. 'rounds' and 'setup_samples' are "
    "the counts from each run's machine line that its medians are taken over; the rest "
    "of the machine line is the same in every run. 'worse_by' is the change's median "
    "relative to the parent's, signed so that a positive value is worse."
)


def bench(checkout: str, workload: str, seed: int, trace: int) -> tuple:
    """Runs perfbench in checkout; returns (machine line, result line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd[1:])} in {checkout} exited with {proc.returncode}:\n{proc.stderr}")
    machine, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(machine)["machine"], json.loads(result)


def span_totals(checkout: str, workload: str) -> dict:
    """Calls and seconds of each SPANS function in the last traced run, by caller."""
    path = os.path.join(checkout, "perfbench", "out", f"{workload}-trace", "round0", "spans.csv")
    with open(path) as f:
        rows = list(csv.DictReader(f))
    totals = {}
    for row in rows:
        if row["name"] not in SPANS:
            continue
        s = float(row["end_s"]) - float(row["start_s"])
        parent = int(row["parent"])
        caller = rows[parent]["name"] if parent >= 0 else "(top level)"
        total = totals.setdefault(row["name"], {"calls": 0, "s": 0.0, "by_parent": {}})
        by = total["by_parent"].setdefault(caller, {"calls": 0, "s": 0.0})
        for entry in (total, by):
            entry["calls"] += 1
            entry["s"] += s
    return totals


def summary(values: dict, better: str) -> dict:
    """Medians, quartiles and pairs won of one metric's runs."""
    parent, change = (np.array([r["value"] for r in values[side]]) for side in SIDES)
    stats = {
        side: {"median": float(np.median(a)), "q1": float(np.percentile(a, 25)),
               "q3": float(np.percentile(a, 75))}
        for side, a in zip(SIDES, (parent, change))
    }
    won = change < parent if better == "lower" else change > parent
    ratio = stats["change"]["median"] / stats["parent"]["median"]
    return {
        **stats,
        "pairs": len(parent),
        "change_better_pairs": int(won.sum()),
        "ties": int((change == parent).sum()),
        "change_vs_parent_median": ratio,
        "worse_by": ratio - 1.0 if better == "lower" else 1.0 - ratio,
        "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
    }


def claim_block(workload: str, metric: str, better: str, summary_: dict) -> dict:
    """The claimed gain on one workload's metric, from that metric's summary."""
    parent, change = summary_["parent"]["median"], summary_["change"]["median"]
    gap = change - parent if better == "higher" else parent - change
    won = summary_["change_better_pairs"]
    return {
        "workload": workload,
        "metric": metric,
        "better": better,
        "parent_median": parent,
        "change_median": change,
        "change_vs_parent_median": summary_["change_vs_parent_median"],
        "parent_iqr": summary_["parent_iqr"],
        "median_gap": gap,
        "change_better_pairs": won,
        "pairs": summary_["pairs"],
        "met": bool(won >= CLAIM_WON * summary_["pairs"] and gap > summary_["parent_iqr"]),
    }


def _dump(obj, indent: int = 0) -> str:
    """JSON with each container that holds no container on one line."""
    items = obj.values() if isinstance(obj, dict) else obj
    if not isinstance(obj, (dict, list)) or not any(isinstance(v, (dict, list)) for v in items):
        return json.dumps(obj)
    pad = " " * (indent + 1)
    if isinstance(obj, dict):
        items = [f"{pad}{json.dumps(k)}: {_dump(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    items = [pad + _dump(v, indent + 1) for v in obj]
    return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="Run the benchmark in alternating pairs.")
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("out")
    parser.add_argument("--change", required=True, help="what the change does")
    parser.add_argument("--parent", required=True, help="the parent commit")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the claimed gain")
    args = parser.parse_args(argv)
    checkouts = dict(zip(SIDES, (args.parent_dir, args.change_dir)))
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    claim = args.claim.split(":") if args.claim else None
    if claim and (len(claim) != 2 or claim[0] not in [w["name"] for w in spec["workloads"]]
                  or claim[1] not in [m["name"] for m in metrics]):
        parser.error(f"--claim {args.claim}: not WORKLOAD:METRIC of BENCHMARK.json")
    machine = None
    workloads = {}
    for w in (w["name"] for w in spec["workloads"]):
        runs = {m["name"]: {side: [] for side in SIDES} for m in metrics}
        operations = {side: [] for side in SIDES}
        for i, seed in enumerate(SEEDS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                line, result = bench(checkouts[side], w, seed, 0)
                counts = {k: line.pop(k) for k in RUN_COUNTS}
                if machine is None:
                    machine = line
                elif line != machine:
                    sys.exit(f"machine line changed between runs: {line} != {machine}")
                tag = {"seed": seed, "first": order[0]}
                for m in metrics:
                    runs[m["name"]][side].append(
                        {**tag, "value": result["metrics"][m["name"]]["value"], **counts})
                operations[side].append({**tag, **{k: result[k] for k in ("attempted", "failed", "correct")}})
                print(f"{w} seed {seed} {side}: {json.dumps(result['metrics'])}", file=sys.stderr)
        workloads[w] = {
            "metrics": {
                m["name"]: {**{k: m[k] for k in ("unit", "better", "bound")},
                            "runs": runs[m["name"]],
                            "summary": summary(runs[m["name"]], m["better"])}
                for m in metrics
            },
            "operations": operations,
        }
    traced, spans = [], {}
    for w in workloads:
        for side in SIDES:
            _, result = bench(checkouts[side], w, SEEDS[0], 1)
            traced.append({"workload": w, "seed": SEEDS[0], "side": side, "first": SIDES[0],
                           "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            spans.setdefault(w, {})[side] = span_totals(checkouts[side], w)
    command = "python3 perfbench/run.py --workload W --seed N --seconds {} --trace {}"
    out = {
        "change": args.change,
        "parent": args.parent,
        "command": command.format(SECONDS, 0),
        "machine": machine,
        "seeds": f"{SEEDS[0]}-{SEEDS[-1]}, one pair per seed; the parent ran first in the 1st, 3rd, ... pair",
        "note": NOTE,
    }
    if claim:
        w, m = claim
        entry = workloads[w]["metrics"][m]
        out["claim"] = claim_block(w, m, entry["better"], entry["summary"])
    out.update({
        "workloads": workloads,
        "traced": {"command": command.format(SECONDS, 1), "runs": traced, "spans": spans},
    })
    with open(args.out, "w") as f:
        f.write(_dump(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
