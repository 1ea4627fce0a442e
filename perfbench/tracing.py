"""Spans around eirm's public functions, recorded from outside the package.

`install` replaces every public function of each eirm layer module (and
`TrainTrace.to_csv`) with a wrapper that records a span: name, start, end,
and the index of the enclosing span. Because modules import each other's
functions by name, a wrapper is put in place of the original in every eirm
namespace that holds it. Spans stay in memory; `layer_metrics` turns them
into the per-layer figures once a round has finished.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import time

LAYERS = ("datasets", "nn", "game", "baselines", "theory", "sem_game", "cli")

# Children of a training call that are not its own diagnostics.
_TURN_CALLS = {"game.env_turn", "game.phi_turn", "game.evaluate", "game.build_ensemble"}
_ROBUST_STEP_CALLS = {
    "nn.forward", "nn.backward", "nn.adam_step", "nn.regularization_loss",
    "game.evaluate", "game.build_ensemble",
}
_TRAINING = {"game.best_response_train", "baselines.train_robust_minmax"}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, info]
        self._stack = []
        self._last_seen = {}  # (training span, net id) -> fingerprint

    def wrap(self, name: str, fn, describe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            info = describe(self, parent, args, kwargs) if describe else None
            span = [name, time.perf_counter(), None, parent, info]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def parent_name(self, parent: int):
        return self.spans[parent][0] if parent >= 0 else None

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write("name,start_s,end_s,parent\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent, _ in self.spans:
                f.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


def _digest(arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(memoryview(a.copy(order="C")).cast("B"))
    return h.digest()


def _describe_forward(tracer: Tracer, parent: int, args, kwargs) -> dict:
    """Rows and flops of one nn.forward; freshness for diagnostic passes.

    A diagnostic pass is fresh when its network's parameters or its input
    changed since the same network's previous diagnostic pass in the same
    training call. The input is fingerprinted from a strided row sample.
    """
    net, batch = args[0], args[1]
    rows = batch.shape[0]
    flop = 2 * rows * sum(l.in_dim * l.out_dim for l in net.layers)
    info = {"rows": rows, "flop": flop, "diagnostic": False, "fresh": False}
    if tracer.parent_name(parent) == "game.best_response_train":
        step = max(1, rows // 256)
        mark = _digest([*net.parameters(), batch[::step]])
        key = (parent, id(net))
        info["diagnostic"] = True
        info["fresh"] = tracer._last_seen.get(key) != mark
        tracer._last_seen[key] = mark
    return info


def install(tracer: Tracer, package) -> None:
    """Wrap the public functions of every layer module of package."""
    modules = [importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS]
    namespaces = [vars(package), *(vars(m) for m in modules)]
    for short, module in zip(LAYERS, modules):
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            describe = _describe_forward if (short, name) == ("nn", "forward") else None
            wrapped = tracer.wrap(f"{short}.{name}", obj, describe)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is obj:
                        ns[key] = wrapped
    trace_cls = package.game.TrainTrace
    trace_cls.to_csv = tracer.wrap("game.TrainTrace.to_csv", trace_cls.to_csv)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of the recorded spans; times in seconds."""
    spans = tracer.spans
    dur = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += dur[i]

    def parent_of(i):
        p = spans[i][3]
        return spans[p][0] if p >= 0 else None

    total, calls = {}, {}
    self_s = {layer: 0.0 for layer in LAYERS}
    generate_s = diag_s = robust_diag_s = test_eval_s = final_eval_s = 0.0
    rows = flop = diag_rows = fresh_rows = 0
    for i, (name, _, _, parent, info) in enumerate(spans):
        layer = name.split(".", 1)[0]
        total[name] = total.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1
        self_s[layer] += dur[i] - child_time[i]
        pname = parent_of(i)
        if layer == "datasets" and (pname is None or not pname.startswith("datasets.")):
            generate_s += dur[i]
        if name == "nn.forward":
            rows += info["rows"]
            flop += info["flop"]
            if info["diagnostic"]:
                diag_rows += info["rows"]
                fresh_rows += info["rows"] if info["fresh"] else 0
        elif name == "game.evaluate":
            if pname in _TRAINING:
                test_eval_s += dur[i]
            else:
                final_eval_s += dur[i]
        if pname == "game.best_response_train":
            if name in _TURN_CALLS:
                diag_s -= dur[i]
        elif pname == "baselines.train_robust_minmax":
            if name in _ROBUST_STEP_CALLS:
                robust_diag_s -= dur[i]
        if name == "game.best_response_train":
            diag_s += dur[i]
        elif name == "baselines.train_robust_minmax":
            robust_diag_s += dur[i]

    forward_s = total.get("nn.forward", 0.0)
    metrics = {
        "datasets.generate_s": generate_s,
        "nn.forward_s": forward_s,
        "nn.forward_calls": calls.get("nn.forward", 0),
        "nn.forward_rows": rows,
        "nn.forward_gflop": flop / 1e9,
        "nn.forward_gflops": flop / 1e9 / forward_s if forward_s > 0 else 0.0,
        "nn.backward_s": total.get("nn.backward", 0.0),
        "nn.backward_calls": calls.get("nn.backward", 0),
        "nn.adam_step_s": total.get("nn.adam_step", 0.0),
        "nn.adam_step_calls": calls.get("nn.adam_step", 0),
        "game.env_turn_s": total.get("game.env_turn", 0.0),
        "game.env_turn_calls": calls.get("game.env_turn", 0),
        "game.phi_turn_s": total.get("game.phi_turn", 0.0),
        "game.phi_turn_calls": calls.get("game.phi_turn", 0),
        "game.diagnostics_s": diag_s,
        "game.diagnostics_forward_rows": diag_rows,
        "game.diagnostics_fresh_ratio": fresh_rows / diag_rows if diag_rows else 0.0,
        "game.test_eval_s": test_eval_s,
        "game.final_eval_s": final_eval_s,
        "game.trace_write_s": total.get("game.TrainTrace.to_csv", 0.0),
        "baselines.robust_diagnostics_s": robust_diag_s,
        "baselines.pool_s": total.get("baselines.pool_environments", 0.0),
        "theory.verify_nash_s": total.get("theory.verify_nash", 0.0),
        "theory.verify_invariance_s": total.get("theory.verify_invariance", 0.0),
        "sem_game.train_s": total.get("sem_game.train_sem_game", 0.0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
    return metrics
