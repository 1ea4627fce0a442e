"""Print the sha256 of every trace CSV and results table of a short desk run
and of a short paper-width run, and the SEM certificates.

    python3 tools/trace_digests.py OUT_DIR

Runs what `eirm run --preset desk` runs (the config read by `cli.load_config`
with the desk preset applied, then `cli.run_experiment`) for all six methods
on seeds 0-2, cut to 30 game iterations and 40 baseline steps, and writes its
outputs to OUT_DIR. It then prints `sha256  name` for every trace CSV,
`results.csv` and `results.md`, sorted by name. `manifest.json` is left out:
it records the wall time. Last it runs `eirm theory nash` and `eirm theory
invariance` at their default settings on SEM seeds 0-3 and prints every
`key=value` line of their reports (floats as `repr`), prefixed with the
subcommand and seed, and then `sha256  sem_seed{S}_clf{E}` for the trained
parameters of each classifier that `train_sem_game` returns on those seeds
(the bytes of every float64 parameter, in `parameters()` order), so the
trained heads are checked directly and not only through the report floats.
Then it prints `sha256  oracle_seed{S}_{split}` for the grayscale oracle
splits (`oracle_env`, `oracle_test`) of the desk benchmark of seeds 0-2: the
bytes of the features, then the labels, then the spurious bits. Then it
prints `sha256  pool_seed{S}_{player}` for the trace recorder's pool of the
same benchmarks, as the game's players (F-IRM, V-IRM and ROBUST), ERM's
player (`pool_environments` of the training environments) and ORACLE's
player pool it with their test splits: each
slab's column list (int64, or `all`) and bytes, training slabs then tail
slabs, then `rows` and `test_rows` (int64, or `none`).
Then it runs the paper preset's networks (hidden widths 390, V-IRM's
representation 390 wide) for F-IRM, V-IRM, ERM, ROBUST and ORACLE on seed
0 with sizes PAPER_SIZES into OUT_DIR/paper, so each colour slab of the
trace pool spans several 672-row predict blocks: 1 game iteration and 3
baseline steps, termination off and a test accuracy on every row. It
prints `sha256  paper/name` for each of that run's trace CSVs and results
tables. Last it prints `sha256  pool_paper_seed0_{player}` for the trace
pools of that run's benchmark, digested as the desk pools are, so the
pool of slabs that span several predict blocks is checked directly.
The eirm it runs is the one in `src/` of the checkout
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

import numpy as np  # noqa: E402

from eirm import cli, datasets  # noqa: E402
from eirm.baselines import pool_environments  # noqa: E402
from eirm.game import CROSS_ENTROPY, TerminationRule, TraceRecorder  # noqa: E402
from eirm.sem_game import train_sem_game  # noqa: E402

SEEDS = 3
MAX_ITERS = 30
BASELINE_ITERS = 40
SEM_SEEDS = 4
PAPER_METHODS = ("F_IRM", "V_IRM", "ERM", "ROBUST", "ORACLE")
PAPER_SIZES = (6000, 6000, 2000)  # colour slabs of 2740 and 4520 distinct rows on seed 0


def run(out: str, preset: str, methods, n_seeds: int, baseline_iters: int, **train) -> list:
    """Runs `eirm run --preset preset` into out, cut to baseline_iters baseline
    steps and the TrainConfig fields in train; returns the names of the files to digest."""
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "config.json")
    with open(path, "w") as f:
        json.dump({"methods": list(methods), "n_seeds": n_seeds, "seed": 0}, f)
    cfg = cli.load_config(path, preset=preset)
    if preset == "paper":
        cfg.sizes = PAPER_SIZES
    cfg.train = dataclasses.replace(cfg.train, **train)
    cfg.baseline_iters = baseline_iters
    results = cli.run_experiment(cfg, out_dir=out)
    traces = [f"trace_{label}_seed{seed}.csv" for label in results for seed in range(n_seeds)]
    return sorted(traces + ["results.csv", "results.md"])


def digests(out: str, names, prefix: str = "") -> list:
    """`sha256  prefix+name` of each named file in out."""
    lines = []
    for name in names:
        with open(os.path.join(out, name), "rb") as f:
            lines.append(f"{hashlib.sha256(f.read()).hexdigest()}  {prefix}{name}")
    return lines


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


def sem_parameters() -> list:
    """The digest of each trained SEM classifier's parameters, per SEM seed."""
    lines = []
    for seed in range(SEM_SEEDS):
        model, _, _ = train_sem_game(seed=seed)
        for e, clf in enumerate(model.classifiers):
            h = hashlib.sha256()
            for p in clf.parameters():
                h.update(p.tobytes())
            lines.append(f"{h.hexdigest()}  sem_seed{seed}_clf{e}")
    return lines


def benchmarks(out: str, preset: str = "desk", n_seeds: int = SEEDS):
    """Yields (seed, benchmark) for each seed, built as `eirm run` with out's config builds it;
    the paper preset's on sizes PAPER_SIZES, as run() sets them."""
    cfg = cli.load_config(os.path.join(out, "config.json"), preset=preset)
    sizes = PAPER_SIZES if preset == "paper" else cfg.sizes
    for seed in range(n_seeds):
        yield seed, datasets.make_benchmark(
            cfg.benchmark, sizes, seed, flip_probs=cfg.flip_probs,
            height=cfg.height, width=cfg.width,
        )


def oracle_splits(out: str) -> list:
    """The digest of each desk seed's grayscale oracle splits."""
    lines = []
    for seed, bench in benchmarks(out):
        for name in ("oracle_env", "oracle_test"):
            split = getattr(bench, name)
            h = hashlib.sha256()
            for array in (split.features, split.labels, split.spurious_bits):
                h.update(array.tobytes())
            lines.append(f"{h.hexdigest()}  oracle_seed{seed}_{name}")
    return lines


def recorder_pools(out: str, preset: str = "desk", n_seeds: int = SEEDS,
                   prefix: str = "pool_") -> list:
    """The digest of each seed's trace pool, per kind of player."""
    lines = []
    for seed, bench in benchmarks(out, preset, n_seeds):
        players = {
            "game": (bench.train_envs, bench.test_env),
            "erm": ([pool_environments(bench.train_envs)], bench.test_env),
            "oracle": ([bench.oracle_env], bench.oracle_test),
        }
        for name, (envs, test) in players.items():
            recorder = TraceRecorder(envs, CROSS_ENTROPY, test, 1)
            h = hashlib.sha256()
            for slabs in (recorder.features, recorder.tail):
                for columns, block in zip(slabs.columns, slabs.blocks):
                    h.update(b"all" if columns is None else columns.astype(np.int64).tobytes())
                    h.update(block.tobytes())
            for rows in (recorder.rows, recorder.test_rows):
                h.update(b"none" if rows is None else rows.astype(np.int64).tobytes())
            lines.append(f"{h.hexdigest()}  {prefix}seed{seed}_{name}")
    return lines


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/trace_digests.py OUT_DIR", file=sys.stderr)
        return 2
    out = argv[0]
    print("\n".join(digests(out, run(out, "desk", cli.METHODS, SEEDS, BASELINE_ITERS,
                                      max_iters=MAX_ITERS))))
    print("\n".join(certificates(out)))
    print("\n".join(sem_parameters()))
    print("\n".join(oracle_splits(out)))
    print("\n".join(recorder_pools(out)))
    paper = os.path.join(out, "paper")
    names = run(paper, "paper", PAPER_METHODS, 1, 3, max_iters=1, test_every=1,
                termination=TerminationRule(enabled=False))
    print("\n".join(digests(paper, names, "paper/")))
    print("\n".join(recorder_pools(paper, "paper", 1, "pool_paper_")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
