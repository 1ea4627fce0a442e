"""One round of a benchmark workload in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--trace] [--setup-only]

run.py starts it with BLAS pinned and `src/` on PYTHONPATH. The clock starts
before numpy or eirm is imported, so set-up covers the imports. The last
line of standard output is one JSON object with the round's figures.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

MB = 1 << 20


def blas_versions() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {"numpy": np.__version__, "blas": openblas}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    import eirm

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, eirm)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(args.seed, args.out)
    result = {"setup_s": time.perf_counter() - START}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    steps, train_s = workload.run(state)
    result["wall_s"] = time.perf_counter() - START
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
    result["steps"] = steps
    result["train_s"] = train_s
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        layers["datasets.feature_mb"] = workload.feature_bytes(state) / MB
        layers["trace.wall_s"] = result["wall_s"]
        result["layers"] = layers
        tracer.write(os.path.join(args.out, "spans.csv"))
    result["ops"] = workload.check(state)
    result["environment"] = blas_versions()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
