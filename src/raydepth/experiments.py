"""Desk-scale experiment protocols shared by the runnable scripts and the
tests: single-frame overfitting, fused-vs-single-view comparison, and
sparsity robustness.  All of them run on the procedural scenes, so every
number is reproducible from a seed, and all of them train through
training's one epoch loop and evaluate through harness's one streaming
loop."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import synth, training
from .config import OptimizerConfig, PlanesConfig, RunConfig, validate_config
from .harness import sparse_inputs, stream_frames, train_frames
from .pipeline import init_parameters

DESK_PLANES = PlanesConfig(count=8, d_min=1.0, d_max=6.0)


def desk_config(**overrides):
    """Small-but-trainable defaults: 8 planes over [1, 6] m, 8 channels,
    no refinement (the refinement module is exercised separately)."""
    base = dict(
        planes=DESK_PLANES,
        channels=8,
        image_channels=(2, 2, 2),
        downscale=4,
        refinement=False,
        optimizer=OptimizerConfig(learning_rate=1e-3, weight_decay=1e-4, epochs=40),
    )
    base.update(overrides)
    return validate_config(RunConfig(**base))


def render_frames(seed, width=64, height=48, count=8, step=0.04):
    """All frames of the default scene for a seed, with dense ground truth."""
    spec, K = synth.default_scene(seed, width=width, height=height, frame_count=count, step=step)
    return [synth.render_frame(spec, t, K) for t in range(count)], K


def evaluate_sequence(cfg, params, frames, K):
    """Stream the sequence through the trained model; per-frame MAE against
    the dense ground truth within the plane range."""
    return [m.mae for _, _, m in stream_frames(cfg, params, frames, K)]


# -- protocols -------------------------------------------------------------------


def overfit_run(seed=0, steps=500, sparse_count=30):
    """One 32x32 frame, 8 planes, 8 channels, ``steps`` optimizer steps.

    Returns (final MAE on ground-truth pixels, per-step total-loss trace).
    """
    cfg = desk_config(
        sparse_count=sparse_count,
        optimizer=OptimizerConfig(
            learning_rate=3e-4, weight_decay=1e-4, epochs=steps, milestones=(200, 300, 400, 450)
        ),
        seed=seed,
    )
    frames, K = render_frames(seed, width=32, height=32, count=1)
    params = init_parameters(cfg)
    state = training.init_optimizer(params, cfg.optimizer)
    gt = [dense for _, dense, _ in frames]
    inputs = sparse_inputs(cfg, frames)
    params, trace = training.train_sequence(lambda _: inputs, gt, K, params, state, cfg)
    (mae,) = evaluate_sequence(cfg, params, frames, K)
    return mae, [row.total for row in trace.rows]


def fusion_benefit_run(seed, epochs=40):
    """Train fused and single-view models on one 8-frame sequence at 0.1%
    sparsity; mean MAE over frames 2..8 for each mode."""
    frames, K = render_frames(seed)
    out = {}
    for mode in ("fused", "single_view"):
        cfg = desk_config(
            mode=mode,
            sparse_count=None,
            sparse_fraction=0.001,
            optimizer=OptimizerConfig(
                learning_rate=1e-3, weight_decay=1e-4, epochs=epochs, milestones=(30 * 8,)
            ),
            seed=seed,
        )
        params, _ = train_frames(cfg, frames, K)
        maes = evaluate_sequence(cfg, params, frames, K)
        out[mode] = float(np.mean(maes[1:]))
    return out["fused"], out["single_view"]


def sparsity_robustness_run(seeds=(0, 1), train_fraction=0.005, eval_fractions=(0.005, 0.0015, 0.0005), epochs=40):
    """Train at one sparsity, evaluate the same model at sparser inputs.
    Returns {fraction: mean MAE across seeds and frames}."""
    totals = {f: [] for f in eval_fractions}
    for seed in seeds:
        frames, K = render_frames(seed)
        cfg = desk_config(
            sparse_count=None,
            sparse_fraction=train_fraction,
            optimizer=OptimizerConfig(
                learning_rate=1e-3, weight_decay=1e-4, epochs=epochs, milestones=(30 * 8,)
            ),
            seed=seed,
        )
        params, _ = train_frames(cfg, frames, K)
        for frac in eval_fractions:
            totals[frac].extend(evaluate_sequence(replace(cfg, sparse_fraction=frac), params, frames, K))
    return {f: float(np.mean(v)) for f, v in totals.items()}
