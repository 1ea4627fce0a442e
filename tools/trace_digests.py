"""Print the sha256 of every trace CSV and results table of a short desk run,
and the SEM certificates.

    python3 tools/trace_digests.py OUT_DIR

Runs what `eirm run --preset desk` runs (the config read by `cli.load_config`
with the desk preset applied, then `cli.run_experiment`) for all six methods
on seeds 0-2, cut to 30 game iterations and 40 baseline steps, and writes its
outputs to OUT_DIR. It then prints `sha256  name` for every trace CSV,
`results.csv` and `results.md`, sorted by name. `manifest.json` is left out:
it records the wall time. Last it runs `eirm theory nash` and `eirm theory
invariance` at their default settings on SEM seeds 0-3 and prints every
`key=value` line of their reports (floats as `repr`), prefixed with the
subcommand and seed. The eirm it runs is the one in `src/` of the checkout
this file sits in, so the output of two checkouts that train, trace and
certify alike is identical, and comparing them is one `diff`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from eirm import cli  # noqa: E402

SEEDS = 3
MAX_ITERS = 30
BASELINE_ITERS = 40
SEM_SEEDS = 4


def run(out: str) -> list:
    """Runs the short desk sweep into out; returns the names of the files to digest."""
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "config.json")
    with open(path, "w") as f:
        json.dump({"methods": list(cli.METHODS), "n_seeds": SEEDS, "seed": 0}, f)
    cfg = cli.load_config(path, preset="desk")
    cfg.train = dataclasses.replace(cfg.train, max_iters=MAX_ITERS)
    cfg.baseline_iters = BASELINE_ITERS
    results = cli.run_experiment(cfg, out_dir=out)
    traces = [f"trace_{label}_seed{seed}.csv" for label in results for seed in range(SEEDS)]
    return sorted(traces + ["results.csv", "results.md"])


def certificates(out: str) -> list:
    """The `eirm theory` nash and invariance report lines of every SEM seed."""
    lines = []
    for seed in range(SEM_SEEDS):
        for sub in ("nash", "invariance"):
            path = os.path.join(out, f"theory_{sub}_seed{seed}.txt")
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["theory", sub, "--seed", str(seed), "--report", path])
            with open(path) as f:  # str() of a float is its repr
                lines += [f"{sub}_seed{seed}  {line.rstrip()}" for line in f]
    return lines


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/trace_digests.py OUT_DIR", file=sys.stderr)
        return 2
    out = argv[0]
    for name in run(out):
        with open(os.path.join(out, name), "rb") as f:
            print(f"{hashlib.sha256(f.read()).hexdigest()}  {name}")
    print("\n".join(certificates(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
