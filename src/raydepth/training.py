"""Losses with soft plane labels, decoupled-weight-decay Adam, the
per-sequence training loop, and numpy ``.npz`` checkpoints."""

from __future__ import annotations

import csv
import zipfile
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor
from .cost_volume import CostVolume
from .errors import CheckpointError, DimensionError, EmptySupervisionError, TrainingError
from .pipeline import forward_frame, planes_for

CE_EPS = 1e-12


# -- soft labels ----------------------------------------------------------------


def soft_labels(values, planes):
    """Vectorized soft labels: mass split between the two planes bracketing
    each ground-truth depth.  Out-of-range depths clamp to an endpoint
    one-hot; returns (labels, clamped_count)."""
    values = np.asarray(values, dtype=np.float64)
    clamped = int(np.sum((values < planes.d_min) | (values > planes.d_max)))
    v = np.clip(values, planes.d_min, planes.d_max)
    frac = (v - planes.d_min) / planes.spacing
    i0 = np.clip(np.floor(frac).astype(np.int64), 0, planes.count - 2)
    left = planes.depths[i0]
    right = planes.depths[i0 + 1]
    w_hi = np.clip((v - left) / (right - left), 0.0, 1.0)
    labels = np.zeros((values.size, planes.count))
    rows = np.arange(values.size)
    labels[rows, i0] = 1.0 - w_hi
    labels[rows, i0 + 1] += w_hi
    return labels, clamped


# -- losses -----------------------------------------------------------------------


def _supervision_mask(pred_shape, gt):
    if gt.depth.shape != pred_shape:
        raise DimensionError(f"prediction {pred_shape} vs ground truth {gt.depth.shape}")
    if gt.valid_count == 0:
        raise EmptySupervisionError("no valid ground-truth pixels to supervise")
    return gt.valid.astype(np.float64)


def l1_loss(pred, gt):
    """Mean absolute depth error over valid ground-truth pixels."""
    mask = _supervision_mask(pred.depth.shape, gt)
    diff = ad.tabs(pred.depth - Tensor(gt.depth)) * mask
    return diff.sum() / gt.valid_count


def ce_loss(prob, gt, planes):
    """Soft-label cross entropy between predicted plane distributions and
    ground truth, averaged over valid pixels."""
    mask = _supervision_mask(prob.probs.shape[1:], gt)
    hh, ww = np.nonzero(gt.valid)
    labels, _ = soft_labels(gt.depth[hh, ww], planes)
    label_vol = np.zeros(prob.probs.shape)
    label_vol[:, hh, ww] = labels.T
    logp = ad.tlog(prob.probs + CE_EPS)
    return -(Tensor(label_vol) * logp).sum() / gt.valid_count


def frame_loss(result, gt, planes):
    """One frame's loss, L1 plus cross entropy, and both parts.

    The L1 term sees the frame's output depth, which is the refined one when
    refinement is on; the cross entropy sees the pre-refinement probability
    volume.
    """
    parts = {
        "l1": l1_loss(result.output, gt),
        "ce": ce_loss(result.prob, gt, planes),
    }
    return parts["l1"] + parts["ce"], parts


# -- optimizer ----------------------------------------------------------------------


@dataclass
class OptimizerState:
    learning_rate: float
    weight_decay: float
    milestones: frozenset = field(default_factory=frozenset)
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def init_optimizer(params, opt_cfg):
    state = OptimizerState(
        learning_rate=opt_cfg.learning_rate,
        weight_decay=opt_cfg.weight_decay,
        milestones=frozenset(opt_cfg.milestones),
    )
    for path, p in params.items():
        state.m[path] = np.zeros_like(p.data)
        state.v[path] = np.zeros_like(p.data)
    return state


def optimizer_step(params, state):
    """Bias-corrected adaptive-moment update with decoupled weight decay,
    halving the learning rate at configured step milestones."""
    state.step_count += 1
    if state.step_count in state.milestones:
        state.learning_rate *= 0.5
    lr, wd = state.learning_rate, state.weight_decay
    b1, b2 = state.beta1, state.beta2
    t = state.step_count
    for path, p in params.items():
        if p.grad is None:
            raise TrainingError(f"missing gradient for parameter {path!r}")
        g = p.grad
        p.data = p.data * (1.0 - lr * wd)
        state.m[path] = b1 * state.m[path] + (1.0 - b1) * g
        state.v[path] = b2 * state.v[path] + (1.0 - b2) * g * g
        m_hat = state.m[path] / (1.0 - b1**t)
        v_hat = state.v[path] / (1.0 - b2**t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return state


# -- training loop --------------------------------------------------------------------


@dataclass(frozen=True)
class LossRow:
    epoch: int
    frame: int
    l1: float
    ce: float
    total: float


@dataclass
class LossTrace:
    rows: list = field(default_factory=list)  # LossRow per optimizer step

    @property
    def epoch_means(self):
        """Mean total loss of each epoch, in epoch order."""
        totals = {}
        for row in self.rows:
            totals.setdefault(row.epoch, []).append(row.total)
        return [float(np.mean(v)) for v in totals.values()]


def train_sequence(epoch_frames, gt, K, params, opt_state, cfg, epochs=None):
    """Stream each epoch's frames in temporal order, one optimizer step per
    frame, carrying the detached fused volume across frames within an epoch.

    ``epoch_frames(epoch)`` returns that epoch's (RGBImage, SparseDepthMap,
    Pose) triples, so callers choose fixed or per-epoch resampled sparse
    inputs; ``gt`` holds the per-frame supervision maps.  Returns the params
    and the loss trace.
    """
    if not gt:
        raise TrainingError("need at least one frame")
    epochs = cfg.optimizer.epochs if epochs is None else epochs
    planes = planes_for(cfg)
    trace = LossTrace()
    for epoch in range(epochs):
        frames = epoch_frames(epoch)
        if len(frames) != len(gt):
            raise TrainingError(f"{len(frames)} frames but {len(gt)} ground-truth maps")
        state = None
        for index, (img, sparse, pose) in enumerate(frames):
            params.zero_grad()
            result, state = forward_frame(img, sparse, pose, state, params, cfg, K)
            # Each step's backward stops at the frame boundary: it never runs
            # the closures of an earlier frame, whose weights the optimizer
            # has already moved.
            state.volume = CostVolume(planes, state.volume.features.detach())
            loss, parts = frame_loss(result, gt[index], planes)
            loss.backward()
            for _, p in params.items():
                # params a frame never touches (cross attention at frame 1,
                # single-view mode) have an exactly-zero gradient
                if p.grad is None:
                    p.grad = np.zeros_like(p.data)
            optimizer_step(params, opt_state)
            trace.rows.append(LossRow(epoch, index, parts["l1"].item(), parts["ce"].item(), loss.item()))
    return params, trace


def write_loss_trace(path, trace):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([col.name for col in fields(LossRow)])
        for row in trace.rows:
            writer.writerow([x if isinstance(x, int) else f"{x:.12g}" for x in astuple(row)])


# -- checkpoints -----------------------------------------------------------------------


def save_checkpoint(path, params):
    """A numpy ``.npz`` archive: one float64 array per parameter path."""
    with open(path, "wb") as f:
        np.savez(f, allow_pickle=False, **{name: np.asarray(p.data, np.float64) for name, p in params.items()})


def load_checkpoint(path):
    """Read a ``save_checkpoint`` archive.  Any other file, a member that is
    not float64, or a non-finite entry is a CheckpointError naming ``path``."""
    try:
        archive = np.load(path, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("a single array, not an archive")
        with archive:
            arrays = {name: archive[name] for name in archive.files}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"{path} is not a checkpoint archive; re-run train to write one") from exc
    params = ParameterStore()
    for name, data in arrays.items():
        if data.dtype != np.float64:
            raise CheckpointError(f"{path}: parameter {name!r} is {data.dtype}, not float64")
        if not np.isfinite(data).all():
            raise CheckpointError(f"{path}: parameter {name!r} has non-finite entries")
        params.add(name, data)
    return params


def check_same_parameters(expected, loaded):
    """Raise unless the loaded checkpoint has exactly the expected paths."""
    missing = [p for p in expected.paths() if p not in loaded]
    unexpected = [p for p in loaded.paths() if p not in expected]
    if missing or unexpected:
        raise CheckpointError(
            f"checkpoint does not match the configured model; missing={missing}, unexpected={unexpected}"
        )
    for path, p in expected.items():
        if loaded[path].data.shape != p.data.shape:
            raise CheckpointError(
                f"parameter {path!r} has shape {loaded[path].data.shape}, expected {p.data.shape}"
            )
