"""Sequence-level drivers shared by the CLI, the experiment protocols and the
test suite: the one no-grad streaming frame loop, the training driver that
resamples sparse inputs every epoch, and the full-pipeline gradient check."""

from __future__ import annotations

import os

from . import autodiff as ad
from . import synth, training
from .errors import ParameterError
from .fileio import write_pfm
from .metrics import compute_metrics, write_metrics_csv
from .pipeline import forward_frame, init_parameters, planes_for


def sparse_sample_count(cfg, dense):
    if cfg.sparse_count is not None:
        return min(cfg.sparse_count, dense.valid_count)
    return max(1, round(cfg.sparse_fraction * dense.valid_count))


def sparse_inputs(cfg, frames, epoch=None):
    """Per-frame sparse maps drawn from the dense ground truth; seeds are
    (seed, frame) for inference and (seed, epoch, frame) during training."""
    out = []
    for t, (img, dense, pose) in enumerate(frames):
        seed = [cfg.seed, t] if epoch is None else [cfg.seed, epoch, t]
        out.append((img, synth.sample_sparse(dense, sparse_sample_count(cfg, dense), seed), pose))
    return out


def stream_frames(cfg, params, frames, K):
    """Stream in-memory (img, dense, pose) frames through the pipeline without
    recording a graph, carrying the fused volume from frame to frame.

    Yields (t, FrameResult, Metrics against the dense ground truth within
    the plane range).
    Recording is off only inside each forward call, so a paused or abandoned
    generator leaves its caller's graph recording as it was.
    """
    state = None
    for t, (img, sparse, pose) in enumerate(sparse_inputs(cfg, frames)):
        with ad.no_grad():
            result, state = forward_frame(img, sparse, pose, state, params, cfg, K)
        yield t, result, compute_metrics(result.output, frames[t][1], cfg.planes.d_min, cfg.planes.d_max)


def run_inference(cfg, params, out_dir=None):
    """Stream the config's sequence directory through the pipeline.

    Writes depth_%04d.pfm, conf_%04d.pfm, and metrics.csv when ``out_dir``
    is given.  Returns (per-frame metrics, per-frame output DepthMaps).
    """
    if cfg.paths.sequence_dir is None:
        raise ParameterError("inference needs paths.sequence_dir")
    frames, K = synth.load_sequence(cfg.paths.sequence_dir)
    rows, outputs = [], []
    for t, result, m in stream_frames(cfg, params, frames, K):
        outputs.append(result.output)
        rows.append((t, m))
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            write_pfm(os.path.join(out_dir, f"depth_{t:04d}.pfm"), result.output.depth.data)
            write_pfm(os.path.join(out_dir, f"conf_{t:04d}.pfm"), result.confidence.data)
    if out_dir is not None:
        write_metrics_csv(os.path.join(out_dir, "metrics.csv"), rows)
    return rows, outputs


def train_frames(cfg, frames, K, epochs=None):
    """Train on in-memory (img, dense, pose) frames, drawing fresh sparse
    inputs every epoch; returns the params and the loss trace."""
    params = init_parameters(cfg)
    opt_state = training.init_optimizer(params, cfg.optimizer)
    gt = [dense for _, dense, _ in frames]
    return training.train_sequence(
        lambda epoch: sparse_inputs(cfg, frames, epoch=epoch), gt, K, params, opt_state, cfg, epochs=epochs
    )


def run_training(cfg, epochs=None):
    """Train on the config's sequence directory; see train_frames."""
    if cfg.paths.sequence_dir is None:
        raise ParameterError("training needs paths.sequence_dir")
    frames, K = synth.load_sequence(cfg.paths.sequence_dir)
    return train_frames(cfg, frames, K, epochs=epochs)


def gradcheck_loss_builder(cfg, n_frames=2):
    """Deterministic tiny clip plus a closure mapping params to the summed
    per-frame training loss; used by the full-pipeline gradient check.

    The carried volume keeps its graph, so the loss backpropagates through
    all ``n_frames`` (full BPTT): the function finite differences probe.
    """
    size = 4 * cfg.downscale
    spec, K = synth.default_scene(cfg.seed, width=size, height=size, frame_count=n_frames, step=0.05)
    planes = planes_for(cfg)
    frames = [synth.render_frame(spec, t, K) for t in range(n_frames)]
    inputs = sparse_inputs(cfg, frames)

    def loss_fn(params):
        state = None
        total = None
        for (img, sparse, pose), (_, dense, _) in zip(inputs, frames):
            result, state = forward_frame(img, sparse, pose, state, params, cfg, K)
            loss, _ = training.frame_loss(result, dense, planes)
            total = loss if total is None else total + loss
        return total

    return loss_fn


def run_gradcheck(cfg, n_frames=2, step=1e-5):
    """Max relative error between reverse-mode and central-difference
    gradients of the full pipeline loss over ``n_frames`` frames, per
    parameter."""
    loss_fn = gradcheck_loss_builder(cfg, n_frames=n_frames)
    params = init_parameters(cfg)
    return ad.gradient_check_report(loss_fn, params, step=step)
