"""Per-frame forward pass: cost volume creation, temporal fusion against the
carried volume, depth regression, and optional refinement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cost_volume as cv
from . import fusion, regression
from .autodiff import ParameterStore, Tensor
from .cost_volume import CostVolume
from .geometry import Pose, align_volume, make_planes, relative_pose, scale_intrinsics


@dataclass(eq=False)
class FrameState:
    """Recurrent state carried across frames: the fused volume at the
    previous viewpoint, with whatever graph its forward recorded."""

    volume: CostVolume
    pose: Pose


@dataclass(eq=False)
class FrameResult:
    regressed: regression.DepthMap
    refined: regression.DepthMap | None
    prob: regression.ProbabilityVolume
    confidence: Tensor

    @property
    def output(self):
        return self.refined if self.refined is not None else self.regressed


def planes_for(cfg):
    return make_planes(cfg.planes.count, cfg.planes.d_min, cfg.planes.d_max)


def init_parameters(cfg, seed=None):
    """All learnable parameters, deterministically seeded."""
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    store = ParameterStore()
    cv.add_image_encoder_params(store, rng, cfg.image_channels)
    cv.add_unet_params(store, rng, 2 + sum(cfg.image_channels), cfg.channels)
    fusion.add_fusion_params(store, rng, cfg.channels)
    regression.add_regression_params(store, rng, cfg.channels, cfg.downscale)
    if cfg.refinement:
        regression.add_refine_params(store, rng, regression.REFINE_CHANNELS)
    return store


def forward_frame(img, sparse, pose, state, params, cfg, K):
    """Run one frame through the pipeline.

    Returns the frame's outputs and the state to carry to the next frame.
    ``state`` is None on the first frame; in single-view mode the previous
    volume is ignored and only self-attention runs.  The carried volume is
    the live fused one, so a loss summed over frames backpropagates through
    every frame; a caller that wants a shorter window detaches it.
    """
    planes = planes_for(cfg)
    k_vol = scale_intrinsics(K, cfg.downscale)

    s_vol = cv.downsample_sparse(sparse, cfg.downscale)
    occupancy = cv.build_occupancy_volume(s_vol, planes)
    residual = cv.build_residual_volume(s_vol, planes)
    image_feat = cv.extract_image_features(img, params, cfg.image_channels, cfg.downscale)
    sparse_feat, image_feat = cv.assemble_feature_volume(occupancy, residual, image_feat)
    current = cv.encode_cost_volume(sparse_feat, image_feat, params, planes)

    previous = None
    if cfg.mode == "fused" and state is not None:
        cur_to_prev = relative_pose(state.pose, pose)
        previous = align_volume(state.volume, cur_to_prev, k_vol, planes)

    fused = fusion.fuse_volumes(current, previous, params)

    logits = regression.to_unnormalized_probability(fused, params, cfg.downscale)
    depth, prob = regression.regress_depth(logits, planes)
    conf = regression.confidence_map(prob)
    refined = None
    if cfg.refinement:
        refined = regression.refine_depth(depth, conf, img, sparse, params, regression.REFINE_ITERATIONS)
    result = FrameResult(regressed=depth, refined=refined, prob=prob, confidence=conf)
    return result, FrameState(fused, pose)
