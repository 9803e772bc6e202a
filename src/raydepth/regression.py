"""From fused cost volume to completed depth: per-plane pixel-shuffle logits,
softmax depth regression, a max-probability confidence map, and an optional
iterative spatial-propagation refinement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, leaky_relu, uniform_init
from .errors import DimensionError, ParameterError
from .geometry import DepthPlaneSet

NEIGHBOR_OFFSETS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
# The pipeline's refinement stage: hidden width of the affinity network and
# number of propagation steps.
REFINE_CHANNELS = 8
REFINE_ITERATIONS = 6


@dataclass(eq=False)
class ProbabilityVolume:
    planes: DepthPlaneSet
    probs: Tensor

    def __post_init__(self):
        if self.probs.ndim != 3 or self.probs.shape[0] != self.planes.count:
            raise DimensionError(
                f"probability volume must be ({self.planes.count}, H, W), got {self.probs.shape}"
            )
        data = self.probs.data
        if data.min() < 0 or np.abs(data.sum(axis=0) - 1.0).max() > 1e-9:
            raise ParameterError("probability rays must be nonnegative and sum to 1")


@dataclass(eq=False)
class DepthMap:
    width: int
    height: int
    depth: Tensor

    def __post_init__(self):
        if not isinstance(self.depth, Tensor):
            self.depth = Tensor(self.depth)
        if self.depth.shape != (self.height, self.width):
            raise DimensionError(
                f"depth must be ({self.height}, {self.width}), got {self.depth.shape}"
            )


def add_regression_params(store, rng, channels, upscale):
    r2 = upscale * upscale
    store.add(
        "head.prob.weight",
        uniform_init(rng, (r2, channels, 3, 3, 3), channels * 27, r2 * 27),
    )
    store.add("head.prob.bias", np.zeros(r2))


def to_unnormalized_probability(v, params, upscale):
    """One 3-D conv to r^2 channels per plane, then a per-plane pixel shuffle
    up to full resolution; returns (D, r*H', r*W') logits."""
    r = int(upscale)
    kernel = params["head.prob.weight"]
    bias = params["head.prob.bias"]
    if kernel.shape[0] < r * r:
        raise ParameterError(
            f"pixel shuffle by {r} needs {r * r} conv channels, kernel has {kernel.shape[0]}"
        )
    d, c, h, w = v.features.shape
    x = ad.transpose(v.features, (1, 0, 2, 3))
    logits = ad.conv3d(x, kernel, bias)  # (r^2, D, H, W)
    x = ad.transpose(logits, (1, 0, 2, 3))  # (D, r^2, H, W)
    x = ad.reshape(x, (d, r, r, h, w))
    x = ad.transpose(x, (0, 3, 1, 4, 2))  # (D, H, r, W, r)
    return ad.reshape(x, (d, h * r, w * r))


def regress_depth(p_unnorm, planes):
    """Softmax over the plane axis, then the probability-weighted plane depth."""
    d, h, w = p_unnorm.shape
    if d != planes.count:
        raise DimensionError(f"logits have {d} planes, plane set has {planes.count}")
    probs = ad.transpose(ad.softmax_lastdim(ad.transpose(p_unnorm, (1, 2, 0))), (2, 0, 1))
    depth = (probs * planes.depths[:, None, None]).sum(axis=0)
    return DepthMap(w, h, depth), ProbabilityVolume(planes, probs)


def confidence_map(p):
    """Per-pixel confidence: the maximum plane probability of the ray."""
    return ad.tmax(p.probs, axis=0)


# -- spatial propagation refinement --------------------------------------------


def add_refine_params(store, rng, channels):
    cin = 6  # rgb + depth + sparse + confidence
    store.add("refine.a0.weight", uniform_init(rng, (channels, cin, 3, 3), cin * 9, channels * 9))
    store.add("refine.a0.bias", np.zeros(channels))
    store.add("refine.a1.weight", uniform_init(rng, (8, channels, 3, 3), channels * 9, 8 * 9))
    store.add("refine.a1.bias", np.zeros(8))


def refine_depth(d, conf, img, sparse, params, iterations):
    """Iterative 8-neighbor propagation with learned affinities.

    Neighbor weights are the absolute conv outputs, normalized so that the
    self weight (1 minus their sum) stays nonnegative: every iteration is a
    convex combination, so a constant depth field is a fixed point and the
    update is stable for any parameter values.  At pixels with a valid
    sparse sample the propagated value is pulled back toward the input
    depth, weighted by confidence.
    """
    if iterations < 0:
        raise ParameterError(f"iterations must be >= 0, got {iterations}")
    if iterations == 0:
        return DepthMap(d.width, d.height, d.depth)
    stack = ad.concat(
        [
            Tensor(img.channels),
            ad.reshape(d.depth, (1, d.height, d.width)),
            Tensor(sparse.depth[None, :, :]),
            ad.reshape(conf, (1, d.height, d.width)),
        ],
        axis=0,
    )
    hidden = leaky_relu(ad.conv2d(stack, params["refine.a0.weight"], params["refine.a0.bias"]))
    raw = ad.tabs(ad.conv2d(hidden, params["refine.a1.weight"], params["refine.a1.bias"]))
    abs_sum = raw.sum(axis=0, keepdims=True)
    affinity = raw / ad.clamp_min(abs_sum, 1.0)
    self_weight = ad.reshape(1.0 - affinity.sum(axis=0, keepdims=True), d.depth.shape)

    anchor = (sparse.valid.astype(np.float64))[None, :, :]
    pull = ad.reshape(conf, (1, d.height, d.width)) * anchor
    pull = ad.reshape(pull, d.depth.shape)
    keep = 1.0 - pull
    initial = d.depth

    current = d.depth
    for _ in range(iterations):
        padded = ad.edge_pad2d(current)
        acc = self_weight * current
        for k, (dy, dx) in enumerate(NEIGHBOR_OFFSETS):
            shifted = padded[1 + dy : 1 + dy + d.height, 1 + dx : 1 + dx + d.width]
            acc = acc + affinity[k] * shifted
        current = acc * keep + initial * pull
    return DepthMap(d.width, d.height, current)
