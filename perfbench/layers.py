"""Per-layer metrics of the traced run: name, unit, which way is better,
the end-to-end metric and workload each should move, the workloads where
it applies, and how it is computed from the spans and counters.

Unless the name says otherwise a value is per timed step: the layer's
total over the timed phase (inside steps and between them) divided by the
number of steps.  ``*.ms`` is inclusive time, ``*.self_ms`` excludes child
spans, and the two ``setup`` metrics are totals over set-up.  Counts marked
computed come from tensor shapes, not from hardware counters.
"""

from __future__ import annotations

import numpy as np

ALL = ("train_desk", "infer_2x", "gradcheck_tiny")
TRAIN = ("train_desk",)
INFER = ("infer_2x",)
TRAIN_INFER = ("train_desk", "infer_2x")
STEP_MS = "step_ms_* on infer_2x and train_desk; little change on gradcheck_tiny"

# name, unit, better, what it should move, workloads where it is non-zero
LAYERS = [
    ("autodiff.conv3d.calls", "count", "lower", STEP_MS, ALL),
    ("autodiff.conv3d.ms", "ms", "lower", STEP_MS, ALL),
    ("autodiff.conv3d.gflop", "GFLOP", "lower", "computed; " + STEP_MS, ALL),
    ("autodiff.conv3d.mb_moved", "MB", "lower", "computed; " + STEP_MS, ALL),
    ("autodiff.conv2d.calls", "count", "lower", STEP_MS, ALL),
    ("autodiff.conv2d.ms", "ms", "lower", STEP_MS, ALL),
    ("autodiff.conv_transpose3d.ms", "ms", "lower", STEP_MS, ALL),
    ("autodiff.matmul.calls", "count", "lower", STEP_MS, ALL),
    ("autodiff.matmul.ms", "ms", "lower", STEP_MS, ALL),
    ("autodiff.softmax_lastdim.ms", "ms", "lower", STEP_MS, ALL),
    ("autodiff.weighted_gather.ms", "ms", "lower", STEP_MS, ALL),
    ("autodiff.backward.ms", "ms", "lower", "step_ms_* on train_desk; zero on infer_2x", TRAIN),
    ("autodiff.op_calls", "count", "lower", "step_ms_* on gradcheck_tiny; negligible on infer_2x", ALL),
    ("cost_volume.encoder.ms", "ms", "lower", "step_ms_* on infer_2x and train_desk", ALL),
    ("cost_volume.unet.ms", "ms", "lower", "step_ms_* on infer_2x and train_desk", ALL),
    ("cost_volume.volumes.ms", "ms", "lower", "step_ms_* on infer_2x and train_desk", ALL),
    ("geometry.align.calls", "count", "lower", "step_ms_* on all workloads (frame 0 bypasses)", ALL),
    ("geometry.align.ms", "ms", "lower", "step_ms_* on all workloads (frame 0 bypasses)", ALL),
    ("geometry.align.valid_fraction", "ratio", "higher", "health signal; moves no time", ALL),
    ("fusion.fuse.ms", "ms", "lower", "step_ms_* on infer_2x", ALL),
    ("fusion.score_entries", "count", "lower", "peak_rss_mb on infer_2x", ALL),
    ("fusion.score_peak_bytes", "bytes", "lower", "peak_rss_mb on infer_2x", ALL),
    ("regression.head.ms", "ms", "lower", "step_ms_* on all workloads", ALL),
    ("regression.regress.ms", "ms", "lower", "step_ms_* on all workloads", ALL),
    ("regression.refine.ms", "ms", "lower", "step_ms_* on infer_2x only (refinement off elsewhere)", INFER),
    ("training.loss.ms", "ms", "lower", "step_ms_* on train_desk", ("train_desk", "gradcheck_tiny")),
    ("training.optimizer.ms", "ms", "lower", "step_ms_* on train_desk", TRAIN),
    ("pipeline.forward_frame.self_ms", "ms", "lower", "step_ms_* on all workloads (glue)", ALL),
    ("harness.sparse_inputs.ms", "ms", "lower", "steps_per_s on train_desk", TRAIN_INFER),
    ("synth.sample_sparse.ms", "ms", "lower", "steps_per_s on train_desk", TRAIN_INFER),
    ("synth.render_frame.ms", "ms", "lower", "setup_s on all workloads (set-up total)", ALL),
    ("fileio.write_pfm.calls", "count", "lower", "steps_per_s on infer_2x", INFER),
    ("fileio.write_pfm.ms", "ms", "lower", "steps_per_s on infer_2x", INFER),
    ("fileio.write_pfm.mb", "MB", "lower", "steps_per_s on infer_2x", INFER),
    ("fileio.load_sequence.ms", "ms", "lower", "setup_s on train_desk and infer_2x (set-up total)", TRAIN_INFER),
    ("metrics.compute.ms", "ms", "lower", "steps_per_s on infer_2x", INFER),
    ("trace.overhead_ms", "ms", "lower", "tracing overhead: traced minus untraced step_ms_p50", ALL),
]

_SETUP_TOTALS = {"synth.render_frame.ms": "synth.render_frame", "fileio.load_sequence.ms": "fileio.load_sequence"}


def layer_values(summary, tracer, untraced_ms, traced_ms):
    """Every metric of :data:`LAYERS` from a traced run's span summary."""
    ms, calls, counts, peaks = summary["ms"], summary["calls"], tracer.counts, tracer.peaks
    steps = max(len(traced_ms), 1)
    op_calls = sum(v for k, v in calls.items() if k.startswith("autodiff.") and k != "autodiff.backward")
    attempted = counts.get("geometry.align.attempted", 0)
    values = {
        "autodiff.conv3d.gflop": counts.get("autodiff.conv3d.flop", 0) / steps / 1e9,
        "autodiff.conv3d.mb_moved": counts.get("autodiff.conv3d.bytes", 0) / steps / 1e6,
        "autodiff.op_calls": op_calls,
        "geometry.align.valid_fraction": counts.get("geometry.align.valid", 0) / attempted if attempted else 0.0,
        "fusion.score_entries": counts.get("fusion.score_entries", 0) / steps,
        "fusion.score_peak_bytes": peaks.get("fusion.score_peak_bytes", 0),
        "pipeline.forward_frame.self_ms": summary["self_ms"].get("pipeline.forward_frame", 0.0),
        "fileio.write_pfm.mb": counts.get("fileio.write_pfm.bytes", 0) / steps / 1e6,
        "trace.overhead_ms": float(np.median(traced_ms) - np.median(untraced_ms)),
    }
    for name, span in _SETUP_TOTALS.items():
        values[name] = summary["setup_ms"].get(span, 0.0)
    for name, *_ in LAYERS:
        if name in values:
            continue
        span, kind = name.rsplit(".", 1)
        values[name] = float((ms if kind == "ms" else calls).get(span, 0.0))
    return {name: float(values[name]) for name, *_ in LAYERS}
