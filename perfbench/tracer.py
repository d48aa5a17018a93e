"""Span tracer for the framesense layers, and the traced CLI entry point.

Run as ``python3 perfbench/tracer.py SUMMARY.json CLI-ARGS...``.  It imports
``framesense.cli``, wraps every public module-level function of the layer
modules (``cli``, ``turbine``, ``detector``, ``mappings``, ``scenario``,
``frames``), runs ``framesense.cli.main(CLI-ARGS)`` and writes a summary of
the spans to SUMMARY.json.  The exit code is the CLI's.

Each wrapped call records a span: function name, parent span, start and end.
A wrapper replaces the function in its defining module and under every name
another layer module imported it as (``detector.basis_map``,
``cli.factor_readings``, ...), so calls through either path are seen.
Methods are not wrapped; their time counts toward the calling function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("cli", "turbine", "detector", "mappings", "scenario", "frames")

# parse_complex is called once per scenario reading entry (~8e5 times per
# theorems operation): a span around each would make the tracer, not the
# program, the largest cost.  iter_samples is a generator: a plain wrapper
# would time only its creation, and no metric reads it; the work it does
# between yields is seen through the stage functions it calls.  The time of
# both counts toward their callers' self time.
UNTRACED = {"frames.parse_complex", "turbine.iter_samples"}


def _dir_bytes(path) -> int:
    """Total size of the regular files directly inside ``path``."""
    with os.scandir(path) as entries:
        return sum(e.stat().st_size for e in entries if e.is_file())


def _count_generate(counts, args, kwargs, result):
    counts["turbine.samples"] += int(result.healths.shape[0] * result.healths.shape[1])


def _count_save(counts, args, kwargs, result):
    counts["turbine.save_bytes"] += _dir_bytes(result)


def _count_load(counts, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counts["turbine.load_bytes"] += _dir_bytes(path)


def _count_scored(counts, args, kwargs, result):
    dataset = args[0] if args else kwargs["dataset"]
    counts["detector.samples_scored"] += int(dataset.healths.shape[1])


def _count_span_certificate(counts, args, kwargs, result):
    vectors = args[0] if args else kwargs["vectors"]
    rows, dim = (int(x) for x in vectors.matrix.shape)
    # Factors of the full SVD span_certificate runs: U (rows x rows),
    # singular values, and V^H (dim x dim).  Computed from the shapes.
    item = vectors.matrix.dtype.itemsize
    svd_bytes = (rows * rows + dim * dim) * item + min(rows, dim) * 8
    counts["frames.span_certificate_rows"] += rows
    counts["frames.span_certificate_dim"] = max(counts["frames.span_certificate_dim"], dim)
    counts["frames.span_certificate_svd_bytes_computed"] += svd_bytes
    counts["span_certificate_inputs"].append([rows, dim])


# Work counts taken at the layer boundary from a call's arguments and result.
COUNTERS = {
    "turbine.generate_dataset": _count_generate,
    "turbine.save_dataset": _count_save,
    "turbine.load_dataset": _count_load,
    "detector.score_condition": _count_scored,
    "frames.span_certificate": _count_span_certificate,
}


def new_counts() -> dict:
    return {
        "turbine.samples": 0,
        "turbine.save_bytes": 0,
        "turbine.load_bytes": 0,
        "detector.samples_scored": 0,
        "frames.span_certificate_rows": 0,
        "frames.span_certificate_dim": 0,
        "frames.span_certificate_svd_bytes_computed": 0,
        "span_certificate_inputs": [],
    }


class Tracer:
    """Spans kept in memory as ``[name, parent, start, end, outer, layer_outer]``.

    ``outer`` marks a span with no enclosing span of the same function,
    ``layer_outer`` one with no enclosing span of the same layer; summing
    those gives busy times that count nested calls once.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = {}
        self.counts = new_counts()

    def enter(self, name: str) -> int:
        index = len(self.spans)
        layer = name.split(".", 1)[0]
        outer = self.active.get(name, 0) == 0
        layer_outer = self.active.get(layer, 0) == 0
        for key in (name, layer):
            self.active[key] = self.active.get(key, 0) + 1
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, outer, layer_outer])
        self.stack.append(index)
        return index

    def exit(self, index: int) -> None:
        span = self.spans[index]
        span[3] = time.perf_counter()
        self.stack.pop()
        self.active[span[0]] -= 1
        self.active[span[0].split(".", 1)[0]] -= 1

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(index)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        functions = {}
        layer_busy = {layer: 0.0 for layer in LAYERS}
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, parent, start, end, outer, layer_outer) in enumerate(self.spans):
            entry = functions.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            if outer:
                entry["busy_s"] += end - start
            if layer_outer:
                layer_busy[name.split(".", 1)[0]] += end - start
            entry["self_s"] += end - start - child_time[index]
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, entry in functions.items():
            layer_self[name.split(".", 1)[0]] += entry["self_s"]
        return {
            "functions": functions,
            "layer_self_s": layer_self,
            "layer_busy_s": layer_busy,
            "counts": self.counts,
            "spans": len(self.spans),
        }


def patch_layers(tracer: Tracer) -> list:
    """Wrap the layers' public functions everywhere the layers refer to them.

    Returns the qualified names of the wrapped functions.
    """
    modules = {layer: importlib.import_module(f"framesense.{layer}") for layer in LAYERS}
    holders = list(modules.values()) + [importlib.import_module("framesense")]
    patched = []
    for layer, module in modules.items():
        for attr, fn in list(vars(module).items()):
            if (
                attr.startswith("_")
                or not inspect.isfunction(fn)
                or fn.__module__ != module.__name__
                or f"{layer}.{attr}" in UNTRACED
            ):
                continue
            name = f"{layer}.{attr}"
            wrapper = tracer.wrap(name, fn)
            for holder in holders:
                for alias, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, alias, wrapper)
            patched.append(name)
    return sorted(patched)


def main(argv) -> int:
    summary_path, cli_args = argv[0], argv[1:]
    import framesense.cli

    tracer = Tracer()
    patched = patch_layers(tracer)
    try:
        rc = framesense.cli.main(cli_args)
    finally:
        doc = tracer.summary()
        doc["patched"] = patched
        with open(summary_path, "w") as fh:
            json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
