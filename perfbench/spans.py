"""Outside-in tracing of ctrlab's public functions.

The tracer replaces a function with a timing wrapper in every ctrlab module
that holds a reference to it, because callers look functions up where they
imported them: `harness` calls `model_forward` and `make_batches` through its
own globals, and `models` does the same for `lookup_forward`.  Patching only
the defining module would record nothing.

Each call becomes a span (name, start, end, parent).  A span's self time is
its duration minus the durations of its direct children; calls are
single-threaded and nested, so the children never overlap.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# Functions wrapped in a traced run, as <module>.<function> under ctrlab.
TRACED = (
    "data.generate_synthetic",
    "data.load_criteo_tsv",
    "data.make_batches",
    "embedding.lookup_forward",
    "embedding.accumulate_gradients",
    "models.model_forward",
    "models.mlp_forward",
    "models.mlp_backward",
    "models.lr_head_backward",
    "models.loss_and_backward",
    "clip.apply_clip",
    "optim.adam_step",
    "optim.adam_sparse_step",
    "harness.evaluate_model",
    "metrics.evaluate",
    "harness.train",
)

# make_batches is a generator: its span is one next(), the time a step waits for data.
GENERATORS = {"data.make_batches"}


def _lookup(qualname: str):
    module, attr = qualname.split(".")
    return getattr(importlib.import_module(f"ctrlab.{module}"), attr)


class Patch:
    """Replace functions by wrappers at every ctrlab binding; undo on exit."""

    def __init__(self, wrappers: dict):
        self.wrappers = wrappers  # qualname -> (original -> wrapper)
        self.undo = []

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "ctrlab" or name.startswith("ctrlab.")]
        for qualname, make in self.wrappers.items():
            original = _lookup(qualname)
            wrapper = make(original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self.undo.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self.undo):
            setattr(module, attr, original)
        self.undo.clear()


def _mlp_macs(layers) -> int:
    return sum(w.shape[0] * w.shape[1] for w, _ in layers)


class Tracer:
    """Span recorder plus the counters measured at the same call boundaries."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(float)
        self.step_ms = []  # one entry per training step, from make_batches boundaries

    def patch(self) -> Patch:
        return Patch({q: (lambda fn, q=q: self._wrap(q, fn)) for q in TRACED})

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)

        if name in GENERATORS:
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                last = None
                while True:
                    rec = [name, clock(), 0.0, stack[-1] if stack else -1]
                    if last is not None:
                        self.step_ms.append(1e3 * (rec[1] - last))
                    last = rec[1]
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    rec[2] = clock()
                    spans.append(rec)
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, out)
            return out
        return traced

    # Counters, taken from the arguments and results at the traced boundary.

    def _hook_data_load_criteo_tsv(self, args, kwargs, out):
        self.counts["criteo_rows"] += out.n_samples

    def _hook_embedding_accumulate_gradients(self, args, kwargs, out):
        self.counts["touched_rows"] += sum(len(ids) for ids in out.ids)

    def _hook_models_mlp_forward(self, args, kwargs, out):
        layers, x = args
        self.counts["mlp_flop"] += 2 * len(x) * _mlp_macs(layers)

    def _hook_models_mlp_backward(self, args, kwargs, out):
        layers, _, dlogit = args
        self.counts["mlp_flop"] += 4 * len(dlogit) * _mlp_macs(layers)
        # One training step runs the MLP forward once and backward once.
        self.counts["mlp_step_flop"] = 6 * len(dlogit) * _mlp_macs(layers)

    def _hook_clip_apply_clip(self, args, kwargs, out):
        before = args[2]
        self.counts["clip_touched"] += sum(len(ids) for ids in before.ids)
        if out is before:
            return
        for g_in, g_out in zip(before.grads, out.grads):
            shrunk = np.linalg.norm(g_out, axis=1) < np.linalg.norm(g_in, axis=1)
            self.counts["clip_clipped"] += int(shrunk.sum())

    def _hook_optim_adam_sparse_step(self, args, kwargs, out):
        table, sparse_grad = args[1], args[2]
        touched = sum(len(ids) for ids in sparse_grad.ids)
        dense_l2 = kwargs.get("dense_l2", args[5] if len(args) > 5 else True)
        self.counts["rows_stepped"] += sum(len(w) for w in table.weights) if dense_l2 else touched
        self.counts["rows_useful"] += touched

    # Summaries

    def per_function(self) -> dict[str, dict]:
        """Per traced function: calls, total and self seconds, per-call ms."""
        durations = defaultdict(list)
        self_s = defaultdict(float)
        child_s = [0.0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent = self.spans[i]
            dur = end - start
            durations[name].append(dur)
            self_s[name] += dur - child_s[i]
            if parent >= 0:
                child_s[parent] += dur
        out = {}
        for name in TRACED:
            d = durations.get(name, [])
            out[name] = {
                "calls": len(d),
                "total_s": float(sum(d)),
                "self_s": float(self_s.get(name, 0.0)),
                "ms": 1e3 * statistics.median(d) if d else 0.0,
            }
        return out


def adam_sparse_alloc_mb(run, calls: int = 6) -> float:
    """Median peak bytes newly allocated per optim.adam_sparse_step call, in MB.

    run() trains; tracemalloc follows numpy's allocations.  The pass stops
    after `calls` optimizer steps, since it needs no more than that.
    """

    class Enough(Exception):
        pass

    peaks = []

    def make(fn):
        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = fn(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            if len(peaks) >= calls:
                raise Enough
            return out
        return measured

    tracemalloc.start()
    try:
        with Patch({"optim.adam_sparse_step": make}):
            run()
    except Enough:
        pass
    finally:
        tracemalloc.stop()
    return statistics.median(peaks) / 2**20 if peaks else 0.0
