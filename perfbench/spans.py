"""Span-recording shims for the traced benchmark run.

`Tracer.installed()` replaces each layer's public functions in the module
namespaces where they are called (for example `robustlab.attacks.forward_logits`
or `robustlab.training.pgd_attack`) with wrappers that record a span per call,
and puts the originals back on exit. No file of the package is changed.

Spans are aggregated in memory as they close: per span name the call count,
wall time and self time (wall time minus the part covered by child spans and
by the shims' own bookkeeping), per (parent, child) edge the call count and
wall time, plus work counters computed from argument shapes.
"""
from __future__ import annotations

import hashlib
import importlib
import os
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

LAYERS = ("tensor", "model", "datasets", "attacks", "training", "evaluate", "cli")
ROOT = "<op>"

# (module where the function is called, attribute) -> span name. A function
# is wrapped in every namespace it is called from, so calls inside the
# package (pgd_plus_verdict -> pgd_attack, alpha_sweep -> eval_robust,
# train -> sgd_step) are seen as well as the benchmark's own calls.
TARGETS = {
    ("robustlab.model", "linear"): "tensor.linear",
    ("robustlab.model", "activation"): "tensor.activation",
    ("robustlab.attacks", "scaled_softmax_cross_entropy"): "tensor.scaled_ce",
    ("robustlab.training", "scaled_softmax_cross_entropy"): "tensor.scaled_ce",
    ("robustlab.attacks", "sum_all"): "tensor.sum_all",
    ("robustlab.training", "weighted_mean"): "tensor.weighted_mean",
    ("robustlab.attacks", "backward"): "tensor.backward",
    ("robustlab.training", "backward"): "tensor.backward",
    ("robustlab.attacks", "forward_logits"): "model.forward",
    ("robustlab.training", "forward_logits"): "model.forward",
    ("robustlab.attacks", "predict"): "model.predict",
    ("robustlab.training", "predict"): "model.predict",
    ("robustlab.evaluate", "predict"): "model.predict",
    ("robustlab.model", "save_checkpoint"): "model.ckpt_save",
    ("robustlab.cli", "save_checkpoint"): "model.ckpt_save",
    ("robustlab.model", "load_checkpoint"): "model.ckpt_load",
    ("robustlab.cli", "load_checkpoint"): "model.ckpt_load",
    ("robustlab.datasets", "gen_gaussian_blobs"): "datasets.gen",
    ("robustlab.cli", "gen_gaussian_blobs"): "datasets.gen",
    ("robustlab.cli", "gen_two_moons"): "datasets.gen",
    ("robustlab.cli", "gen_rings"): "datasets.gen",
    ("robustlab.cli", "save_csv"): "datasets.csv_save",
    ("robustlab.cli", "load_csv"): "datasets.csv_load",
    ("robustlab.attacks", "pgd_attack"): "attacks.pgd_attack",
    ("robustlab.training", "pgd_attack"): "attacks.pgd_attack",
    ("robustlab.evaluate", "pgd_attack"): "attacks.pgd_attack",
    ("robustlab.cli", "pgd_attack"): "attacks.pgd_attack",
    ("robustlab.training", "friendly_adversarial_search"): "attacks.friendly",
    ("robustlab.evaluate", "pgd_plus_verdict"): "attacks.pgd_plus_verdict",
    ("robustlab.cli", "brute_force_attack"): "attacks.brute_force",
    ("robustlab.training", "train"): "training.train",
    ("robustlab.cli", "train"): "training.train",
    ("robustlab.training", "sgd_step"): "training.sgd_step",
    ("robustlab.training", "compute_weights"): "training.compute_weights",
    ("robustlab.cli", "write_history"): "training.write_history",
    ("robustlab.evaluate", "eval_robust"): "evaluate.eval_robust",
    ("robustlab.cli", "eval_robust"): "evaluate.eval_robust",
    ("robustlab.evaluate", "eval_natural"): "evaluate.eval_natural",
    ("robustlab.cli", "eval_natural"): "evaluate.eval_natural",
    ("robustlab.cli", "alpha_sweep"): "evaluate.alpha_sweep",
    ("robustlab.cli", "write_report"): "evaluate.report_write",
    ("robustlab.cli", "read_report"): "evaluate.report_read",
    ("robustlab.cli", "file_sha256"): "evaluate.hash",
    ("robustlab.cli", "dataset_sha256"): "evaluate.hash",
    ("robustlab.evaluate", "dataset_sha256"): "evaluate.hash",
    ("robustlab.cli", "main"): "cli.main",
}

PGD_RUNS = ("attacks.pgd_attack", "attacks.friendly")
# span -> (byte counter, position of the file path argument)
FILE_SPANS = {
    "model.ckpt_save": ("model.ckpt.bytes", 2),
    "model.ckpt_load": ("model.ckpt.bytes", 0),
    "datasets.csv_save": ("datasets.csv.bytes", 1),
    "datasets.csv_load": ("datasets.csv.bytes", 0),
}


class _Frame:
    __slots__ = ("name", "child_ns")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child_ns = 0


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr((part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.digest()


class Tracer:
    """Aggregated spans and counters for one traced process."""

    def __init__(self) -> None:
        self._stack = [_Frame(ROOT)]
        self.reset()

    def reset(self) -> None:
        self.spans: dict[str, list[int]] = {}  # name -> [calls, wall_ns, self_ns]
        self.edges: dict[tuple[str, str], list[int]] = {}  # (parent, child) -> [calls, wall_ns]
        self.counts: dict[str, float] = {}
        self.pgd_distinct = 0
        self._pgd_keys: set[bytes] = set()

    def take(self) -> dict:
        """Return everything recorded so far and start afresh."""
        out = {"spans": self.spans, "edges": self.edges, "counts": self.counts,
               "pgd_distinct": self.pgd_distinct}
        self.reset()
        return out

    def new_op(self) -> None:
        """Distinct PGD runs are counted within one op."""
        self._pgd_keys = set()

    def _count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _before(self, span: str, args, kwargs) -> None:
        if span == "tensor.linear":
            n, i = _arg(args, kwargs, 0, "x").shape
            o = _arg(args, kwargs, 1, "weight").shape[1]
            flops, nbytes = 2 * n * i * o + n * o, 8 * (n * i + i * o + o + n * o)
            if _arg(args, kwargs, 3, "tape") is not None:
                # the recorded VJP: g @ W.T, x.T @ g and the bias row sum
                flops += 4 * n * i * o + n * o
                nbytes += 8 * (3 * n * o + i * o + n * i + n * i + i * o + o)
            self._count("tensor.linear.flops", flops)
            self._count("tensor.linear.bytes", nbytes)
        elif span in ("model.forward", "model.predict"):
            self._count(span + ".rows", _arg(args, kwargs, 1, "x").shape[0])
        elif span in PGD_RUNS:
            model, x0 = args[0], args[1]
            y = _arg(args, kwargs, 2, "y")
            config = _arg(args, kwargs, 3, "config")
            self._count("attacks.pgd.grad_evals", x0.shape[0] * config.restarts * config.steps)
            # One trajectory per key: friendly search and pgd_attack on the
            # same key replay the same PGD run and differ only in the view.
            key = _digest(*(t.data for t in model.leaves()), x0.data, np.asarray(y),
                          config, kwargs.get("domain"), kwargs.get("seed", 0))
            if key not in self._pgd_keys:
                self._pgd_keys.add(key)
                self.pgd_distinct += 1
        elif span == "attacks.brute_force":
            point = _arg(args, kwargs, 1, "x0")
            dim = np.asarray(getattr(point, "data", point)).size
            self._count("attacks.brute_force.grid_points", int(_arg(args, kwargs, 4, "grid_resolution")) ** dim)

    def _after(self, span: str, args, kwargs) -> None:
        if span in FILE_SPANS:
            counter, position = FILE_SPANS[span]
            self._count(counter, os.path.getsize(_arg(args, kwargs, position, "path")))

    def wrap(self, span: str, fn):
        stack = self._stack

        def shim(*args, **kwargs):
            t0 = perf_counter_ns()
            self._before(span, args, kwargs)
            frame = _Frame(span)
            stack.append(frame)
            t1 = perf_counter_ns()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t2 = perf_counter_ns()
                stack.pop()
                parent = stack[-1].name
                wall = t2 - t1
                rec = self.spans.setdefault(span, [0, 0, 0])
                rec[0] += 1
                rec[1] += wall
                rec[2] += wall - frame.child_ns
                edge = self.edges.setdefault((parent, span), [0, 0])
                edge[0] += 1
                edge[1] += wall
                if done:
                    self._after(span, args, kwargs)
                # The parent's self time excludes this span and the shim's
                # own bookkeeping on both sides of it.
                stack[-1].child_ns += perf_counter_ns() - t0

        shim.__wrapped__ = fn
        return shim

    @contextmanager
    def installed(self):
        """Install every shim; restore the original attributes on exit.

        A target the package no longer has is skipped, so a later version
        that removes or renames a function still runs traced; the metrics
        of that span then read 0.
        """
        saved = []
        try:
            for (module_name, attr), span in TARGETS.items():
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _merge(a: dict, b: dict) -> dict:
    out = {k: list(v) for k, v in a.items()}
    for k, v in b.items():
        out[k] = [x + y for x, y in zip(out.get(k, [0] * len(v)), v)]
    return out


def layer_metrics(setup: dict, ops: dict, n_ops: int, op_seconds: float) -> dict:
    """Per-layer metrics from `Tracer.take()` of the set-up and of the ops.

    `*.calls`, `*.rows`, `*.self_s`, flops, bytes moved, gradient
    evaluations and grid points are per op. File and generator timings
    (`*.s`) and file sizes (`*.bytes`) are per call, set-up included.
    Shares are of the traced ops' summed wall time.
    """
    spans, counts = ops["spans"], ops["counts"]
    every = _merge(setup["spans"], spans)
    every_counts = _merge({k: [v] for k, v in setup["counts"].items()}, {k: [v] for k, v in counts.items()})

    def calls(*names):
        return sum(spans.get(n, (0, 0, 0))[0] for n in names) / n_ops

    def self_s(*names):
        return sum(spans.get(n, (0, 0, 0))[2] for n in names) / n_ops / 1e9

    def per_op(key):
        return counts.get(key, 0) / n_ops

    def per_call_s(*names):
        n = sum(every.get(k, (0, 0, 0))[0] for k in names)
        return sum(every.get(k, (0, 0, 0))[1] for k in names) / n / 1e9 if n else 0.0

    def per_call_bytes(key, *names):
        n = sum(every.get(k, (0, 0, 0))[0] for k in names)
        return every_counts.get(key, [0])[0] / n if n else 0.0

    tensor_ops = [n for n in spans if n.startswith("tensor.") and n != "tensor.backward"]
    pgd_runs = sum(spans.get(n, (0,))[0] for n in PGD_RUNS)
    train_wall = spans.get("training.train", (0, 0, 0))[1]
    craft_wall = sum(v[1] for (parent, child), v in ops["edges"].items()
                     if parent == "training.train" and child in PGD_RUNS)
    m = {
        "tensor.linear.calls": calls("tensor.linear"),
        "tensor.linear.self_s": self_s("tensor.linear"),
        "tensor.linear.flops": per_op("tensor.linear.flops"),
        "tensor.linear.bytes": per_op("tensor.linear.bytes"),
        "tensor.op.calls": calls(*tensor_ops),
        "tensor.op.self_s": self_s(*tensor_ops),
        "tensor.backward.calls": calls("tensor.backward"),
        "tensor.backward.self_s": self_s("tensor.backward"),
        "model.forward.calls": calls("model.forward"),
        "model.forward.rows": per_op("model.forward.rows"),
        "model.forward.self_s": self_s("model.forward"),
        "model.predict.calls": calls("model.predict"),
        "model.predict.rows": per_op("model.predict.rows"),
        "model.predict.self_s": self_s("model.predict"),
        "model.ckpt_save.s": per_call_s("model.ckpt_save"),
        "model.ckpt_load.s": per_call_s("model.ckpt_load"),
        "model.ckpt.bytes": per_call_bytes("model.ckpt.bytes", "model.ckpt_save", "model.ckpt_load"),
        "datasets.csv_save.s": per_call_s("datasets.csv_save"),
        "datasets.csv_load.s": per_call_s("datasets.csv_load"),
        "datasets.csv.bytes": per_call_bytes("datasets.csv.bytes", "datasets.csv_save", "datasets.csv_load"),
        "datasets.gen.s": per_call_s("datasets.gen"),
        "attacks.pgd.calls": pgd_runs / n_ops,
        "attacks.pgd.self_s": self_s(*PGD_RUNS, "attacks.pgd_plus_verdict"),
        "attacks.pgd.grad_evals": per_op("attacks.pgd.grad_evals"),
        "attacks.pgd.unique_ratio": ops["pgd_distinct"] / pgd_runs if pgd_runs else 1.0,
        "attacks.friendly.calls": calls("attacks.friendly"),
        "attacks.brute_force.calls": calls("attacks.brute_force"),
        "attacks.brute_force.self_s": self_s("attacks.brute_force"),
        "attacks.brute_force.grid_points": per_op("attacks.brute_force.grid_points"),
        "training.sgd_step.calls": calls("training.sgd_step"),
        "training.sgd_step.self_s": self_s("training.sgd_step"),
        "training.compute_weights.self_s": self_s("training.compute_weights"),
        "training.craft_share": craft_wall / train_wall if train_wall else 0.0,
        "evaluate.eval_robust.calls": calls("evaluate.eval_robust"),
        "evaluate.eval_robust.self_s": self_s("evaluate.eval_robust"),
        "evaluate.report_io.s": per_call_s("evaluate.report_write", "evaluate.report_read"),
        "cli.self_s": self_s("cli.main"),
    }
    shares = {layer: sum(v[2] for n, v in spans.items() if n.split(".")[0] == layer) / 1e9 / op_seconds
              for layer in LAYERS}
    m.update({f"share.{layer}": share for layer, share in shares.items()})
    m["share.unattributed"] = 1.0 - sum(shares.values())
    return m
