"""Ray-wise fusion of cost volumes.

Each pixel's viewing ray crosses the volume once per hypothesis plane, so a
(D, C, H, W) volume holds H*W ray features of shape (D, C).  Fusion treats
the D plane features of a ray as tokens: self-attention refines each
volume's rays independently, then cross-attention (query = current ray)
pulls in the aligned previous volume.  Attention score buffers are therefore
D x D per ray -- D^2 * H * W entries per frame -- instead of the
(D*H*W)^2 entries a whole-volume attention would need.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, leaky_relu, uniform_init
from .cost_volume import CostVolume
from .errors import DimensionError, ParameterError


class ScoreAllocationMeter:
    """Tracks attention score-buffer allocations (entries of Q K^T)."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.peak_entries = 0
        self.total_entries = 0
        self.calls = []

    def record(self, entries, rays):
        self.calls.append((entries, rays))
        self.total_entries += entries
        self.peak_entries = max(self.peak_entries, entries)

    @property
    def peak_bytes(self):
        return self.peak_entries * 8


score_meter = ScoreAllocationMeter()


@functools.lru_cache(maxsize=16)
def _encoding_table(count, dim):
    """The read-only (count, dim) table of :func:`depth_positional_encoding`."""
    pos = np.arange(count)[:, None]
    j = np.arange(dim // 2)[None, :]
    angle = pos / np.power(10000.0, 2.0 * j / dim)
    pe = np.empty((count, dim))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    pe.flags.writeable = False
    return pe


def depth_positional_encoding(count, dim):
    """Sinusoidal encoding of plane indices 0..count-1 into ``dim`` channels:
    a fresh untracked Tensor over a shared read-only table."""
    if dim % 2 != 0:
        raise ParameterError(f"positional encoding needs an even channel count, got {dim}")
    return Tensor(_encoding_table(count, dim))


@dataclass(eq=False)
class AttentionBlockParams:
    """Linear projections of one attention block."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor


def attention(q, k, v, params):
    """Scaled dot-product attention with learned projections on queries,
    keys, values, and output.

    Inputs are (..., D, C); leading axes batch independent rays.
    """
    c = q.shape[-1]
    for name, t in (("q", q), ("k", k), ("v", v)):
        if t.shape[-1] != c:
            raise DimensionError(f"attention {name} channel {t.shape[-1]} != {c}")
    for name, w in (("wq", params.wq), ("wk", params.wk), ("wv", params.wv), ("wo", params.wo)):
        if w.shape != (c, c):
            raise DimensionError(f"attention {name} must be ({c}, {c}), got {w.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise DimensionError(f"key count {k.shape[-2]} != value count {v.shape[-2]}")
    q2 = ad.matmul(q, params.wq)
    k2 = ad.matmul(k, params.wk)
    v2 = ad.matmul(v, params.wv)
    scores = ad.matmul(q2, ad.transpose(k2, tuple(range(k2.ndim - 2)) + (k2.ndim - 1, k2.ndim - 2)))
    scores = scores * (1.0 / np.sqrt(c))
    score_meter.record(scores.size, math.prod(scores.shape[:-2]))
    weights = ad.softmax_lastdim(scores)
    return ad.matmul(ad.matmul(weights, v2), params.wo)


def attention_entry_count(d, h, w, mode):
    """Score-buffer entries needed to fuse one frame."""
    if d <= 0 or h <= 0 or w <= 0:
        raise ParameterError(f"extents must be positive, got {(d, h, w)}")
    if mode == "ray":
        return d * d * h * w
    if mode == "naive":
        return d * d * h * h * w * w
    raise ParameterError(f"unknown attention mode {mode!r}")


# -- parameters ---------------------------------------------------------------


def add_fusion_params(store, rng, channels):
    c = channels
    for i in range(2):
        store.add(
            f"fusion.pre{i}.weight", uniform_init(rng, (c, c, 3, 3, 3), c * 27, c * 27)
        )
        store.add(f"fusion.pre{i}.bias", np.zeros(c))
    for name in ("self_cur", "self_prev", "cross"):
        for w in ("wq", "wk", "wv", "wo"):
            store.add(f"fusion.{name}.{w}", uniform_init(rng, (c, c), c, c))


def fusion_blocks(params):
    def block(name):
        return AttentionBlockParams(
            wq=params[f"fusion.{name}.wq"],
            wk=params[f"fusion.{name}.wk"],
            wv=params[f"fusion.{name}.wv"],
            wo=params[f"fusion.{name}.wo"],
        )

    return block("self_cur"), block("self_prev"), block("cross")


def pre_fusion_convs(v, params):
    """Two shared 3-D conv layers applied to a volume before fusion."""
    x = ad.transpose(v.features, (1, 0, 2, 3))
    x = leaky_relu(ad.conv3d(x, params["fusion.pre0.weight"], params["fusion.pre0.bias"]))
    x = ad.conv3d(x, params["fusion.pre1.weight"], params["fusion.pre1.bias"])
    return CostVolume(v.planes, ad.transpose(x, (1, 0, 2, 3)), validity=v.validity)


def _to_rays(features):
    d, c, h, w = features.shape
    return ad.reshape(ad.transpose(features, (2, 3, 0, 1)), (h * w, d, c))


def _from_rays(rays, shape):
    d, c, h, w = shape
    return ad.transpose(ad.reshape(rays, (h, w, d, c)), (2, 3, 0, 1))


def _fuse(current, previous_aligned, params, whole_volume):
    """The fusion core.  Tokens are grouped per ray, (H*W, D, C), or with
    ``whole_volume`` into one group of every voxel, (1, D*H*W, C); attention
    runs within each group, so only the score-buffer size differs.  The
    result is added back to the pre-fused current volume."""
    d, c, h, w = current.features.shape
    if previous_aligned is not None and previous_aligned.features.shape != (d, c, h, w):
        raise DimensionError(
            f"volume shapes disagree: {current.features.shape} vs {previous_aligned.features.shape}"
        )
    groups = (1, h * w * d) if whole_volume else (h * w, d)
    sa_block, sa_prev_block, cross_block = fusion_blocks(params)
    pe = depth_positional_encoding(d, c)

    def tokens(features):
        x = _to_rays(features) + pe
        return ad.reshape(x, groups + (c,)) if whole_volume else x

    g_cur = pre_fusion_convs(current, params)
    x_cur = tokens(g_cur.features)
    fused = attention(x_cur, x_cur, x_cur, sa_block)
    if previous_aligned is not None:
        x_prev = tokens(pre_fusion_convs(previous_aligned, params).features)
        sa_prev = attention(x_prev, x_prev, x_prev, sa_prev_block)
        fused = attention(fused, sa_prev, sa_prev, cross_block)
    if whole_volume:
        fused = ad.reshape(fused, (h * w, d, c))
    return CostVolume(current.planes, _from_rays(fused, (d, c, h, w)) + g_cur.features)


def fuse_volumes(current, previous_aligned, params):
    """Fuse the current cost volume with the aligned previous one, ray by ray.

    With ``previous_aligned`` None (first frame / single-view mode) only the
    current volume's self-attention runs.
    """
    return _fuse(current, previous_aligned, params, False)


def fuse_volumes_naive(current, previous_aligned, params):
    """Whole-volume attention: the same fusion core with every voxel of a
    volume in one token group, so score buffers hold (D*H*W)^2 entries.
    Where H = W = 1 the two groupings coincide; elsewhere each token attends
    to more keys than its own ray's.  Only meant for small benchmark sizes."""
    return _fuse(current, previous_aligned, params, True)
