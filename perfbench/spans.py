"""Span tracer that instruments raydepth from outside.

Every layer function is wrapped where its callers look it up: each module
global (and the ``Tensor.backward`` class attribute) that refers to the
original function is replaced while the tracer is installed, and restored
afterwards.  A span records its layer name, start, end, parent span and
step id in flat arrays kept in memory; :meth:`Tracer.save` writes them out
once the run is over.

Step ids: -1 is set-up, -2 is harness work of a timed phase before its
first step, and ``n >= 0`` is everything from the start of step ``n`` to
the start of step ``n + 1``.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import pkgutil
import time
from array import array

import numpy as np

SETUP = -1
PRE_STEP = -2
STEP = "step"

# Public functions of ``raydepth.autodiff`` that are not tensor ops.
_NOT_OPS = {"as_tensor", "no_grad", "uniform_init", "gradient_check", "gradient_check_report"}

# (module, function) -> layer span name.  Several functions may share a layer.
LAYER_FUNCTIONS = {
    ("pipeline", "forward_frame"): "pipeline.forward_frame",
    ("cost_volume", "extract_image_features"): "cost_volume.encoder",
    ("cost_volume", "encode_cost_volume"): "cost_volume.unet",
    ("cost_volume", "downsample_sparse"): "cost_volume.volumes",
    ("cost_volume", "build_occupancy_volume"): "cost_volume.volumes",
    ("cost_volume", "build_residual_volume"): "cost_volume.volumes",
    ("cost_volume", "assemble_feature_volume"): "cost_volume.volumes",
    ("geometry", "align_volume"): "geometry.align",
    ("fusion", "fuse_volumes"): "fusion.fuse",
    ("regression", "to_unnormalized_probability"): "regression.head",
    ("regression", "regress_depth"): "regression.regress",
    ("regression", "confidence_map"): "regression.confidence",
    ("regression", "refine_depth"): "regression.refine",
    ("training", "frame_loss"): "training.loss",
    ("training", "optimizer_step"): "training.optimizer",
    ("harness", "sparse_inputs"): "harness.sparse_inputs",
    ("synth", "sample_sparse"): "synth.sample_sparse",
    ("synth", "render_frame"): "synth.render_frame",
    ("synth", "load_sequence"): "fileio.load_sequence",
    ("fileio", "write_pfm"): "fileio.write_pfm",
    ("metrics", "compute_metrics"): "metrics.compute",
}


def raydepth_modules():
    """Every submodule of the raydepth package, imported."""
    import raydepth

    mods = [raydepth]
    for info in pkgutil.iter_modules(raydepth.__path__):
        mods.append(importlib.import_module(f"raydepth.{info.name}"))
    return mods


def autodiff_ops():
    from raydepth import autodiff

    return sorted(
        name
        for name, fn in vars(autodiff).items()
        if inspect.isfunction(fn)
        and fn.__module__ == autodiff.__name__
        and not name.startswith("_")
        and name not in _NOT_OPS
    )


@contextlib.contextmanager
def patched(replacements):
    """Temporarily ``setattr`` each ``(owner, name, value)``; restore on exit."""
    saved = []
    try:
        for owner, name, value in replacements:
            saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


class Tracer:
    """In-memory spans plus per-phase counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.step_of = array("l")
        self._stack = []
        self.step = SETUP
        self.counts = {}
        self.peaks = {}
        self.violations = []
        self.meter_mark = 0

    # -- spans -------------------------------------------------------------

    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name_id):
        i = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.step_of.append(self.step)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def begin_step(self, n):
        self.step = n
        return self.open(self._id(STEP))

    def wrap(self, name, fn, measure=None):
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            i = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if measure is not None:
                measure(tracer, args, kwargs, result)
            return result

        return traced

    # -- counters ------------------------------------------------------------

    def add(self, name, value):
        if self.step >= 0:
            self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name, value):
        if self.step >= 0:
            self.peaks[name] = max(self.peaks.get(name, 0), value)

    # -- installation -----------------------------------------------------------

    def installed(self):
        """Context manager wrapping every layer function and autodiff op."""
        from raydepth import autodiff, fusion

        self.meter_mark = len(fusion.score_meter.calls)
        wrappers = {}
        for (mod, fname), layer in LAYER_FUNCTIONS.items():
            fn = getattr(importlib.import_module(f"raydepth.{mod}"), fname)
            wrappers[fn] = self.wrap(layer, fn, MEASURES.get(layer))
        for op in autodiff_ops():
            fn = getattr(autodiff, op)
            wrappers[fn] = self.wrap(f"autodiff.{op}", fn, MEASURES.get(f"autodiff.{op}"))
        replacements = []
        for mod in raydepth_modules():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    replacements.append((mod, attr, wrappers[value]))
        backward = autodiff.Tensor.backward
        replacements.append(
            (autodiff.Tensor, "backward", self.wrap("autodiff.backward", backward))
        )
        return patched(replacements)

    # -- output -------------------------------------------------------------------

    def arrays(self):
        def flat(buf):
            return np.frombuffer(buf, dtype=buf.typecode).copy()

        return {
            "names": np.array(self.names),
            "name_id": flat(self.name_id),
            "start": flat(self.start),
            "end": flat(self.end),
            "parent": flat(self.parent),
            "step": flat(self.step_of),
        }

    def malformed_spans(self):
        """Number of spans left open or not inside their parent's [start, end]."""
        a = self.arrays()
        start, end, parent = a["start"], a["end"], a["parent"]
        bad = end < start
        child = parent >= 0
        p = parent[child]
        bad[child] |= (start[child] < start[p]) | (end[child] > end[p])
        return int(bad.sum())

    def save(self, path):
        np.savez(path, **self.arrays())

    def summary(self, steps):
        """Per-layer totals over the timed phase, divided by ``steps``,
        self times inside step spans, and set-up totals."""
        a = self.arrays()
        names, nid, parent, step = a["names"], a["name_id"], a["parent"], a["step"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        root = np.arange(dur.size)
        root[has_parent] = parent[has_parent]
        while True:
            nxt = np.where(parent[root] >= 0, parent[root], root)
            if np.array_equal(nxt, root):
                break
            root = nxt
        step_id = self._ids.get(STEP, -1)
        in_step = nid[root] == step_id
        timed = step >= 0
        n = len(names)
        per_step = max(steps, 1)

        def per_name(mask, weights=None):
            w = None if weights is None else weights[mask]
            return np.bincount(nid[mask], weights=w, minlength=n)

        ms = per_name(timed, dur) * 1e3 / per_step
        calls = per_name(timed) / per_step
        self_ms = per_name(timed & in_step, self_time) * 1e3 / per_step
        setup_ms = per_name(step == SETUP, dur) * 1e3
        out = {
            key: {name: float(v[i]) for i, name in enumerate(names)}
            for key, v in (("ms", ms), ("calls", calls), ("self_ms", self_ms), ("setup_ms", setup_ms))
        }
        step_spans = (nid == step_id) & timed
        out["step_ms"] = 1e3 * dur[step_spans]
        out["self_sum_ms"] = sum(out["self_ms"].values())
        return out


# -- counters computed at layer boundaries -------------------------------------


def _conv3d(tracer, args, kwargs, out):
    """Computed, not measured: multiply-adds and minimal float64 traffic of
    the forward pass, plus the two backward correlations (kernel and input
    gradient) when the call was recorded for backward."""
    x, kernel = (np.asarray(getattr(a, "data", a)) for a in args[:2])
    xs, ks, os_ = x.size, kernel.size, out.data.size
    flop = 2.0 * (ks // kernel.shape[0]) * os_  # 2 * Cin * k^3 per output
    moved = 8.0 * (xs + ks + os_)
    if out.requires_grad:
        flop *= 3.0
        moved += 8.0 * (os_ + 2 * xs + 2 * ks)
    tracer.add("autodiff.conv3d.flop", flop)
    tracer.add("autodiff.conv3d.bytes", moved)


def _align(tracer, args, kwargs, out):
    tracer.add("geometry.align.valid", float(out.validity.sum()))
    tracer.add("geometry.align.attempted", float(out.validity.size))


def _fuse(tracer, args, kwargs, out):
    from raydepth import fusion

    d, _, h, w = args[0].features.shape
    expected = fusion.attention_entry_count(d, h, w, "ray")
    naive = fusion.attention_entry_count(d, h, w, "naive")
    calls = fusion.score_meter.calls[tracer.meter_mark:]
    tracer.meter_mark = len(fusion.score_meter.calls)
    for entries, _rays in calls:
        tracer.add("fusion.score_entries", entries)
        tracer.add("fusion.attention_calls", 1)
        tracer.peak("fusion.score_peak_bytes", 8 * entries)
        if tracer.step < 0:
            continue
        if entries != expected:
            tracer.violations.append(f"attention call with {entries} score entries, expected {expected}")
        if entries == 0 or naive / entries != h * w:
            tracer.violations.append(f"naive/measured entry ratio {naive}/{entries} != H*W = {h * w}")


def _write_pfm(tracer, args, kwargs, out):
    tracer.add("fileio.write_pfm.bytes", 4.0 * np.asarray(args[1]).size)


MEASURES = {
    "autodiff.conv3d": _conv3d,
    "geometry.align": _align,
    "fusion.fuse": _fuse,
    "fileio.write_pfm": _write_pfm,
}
