"""Defined outputs of `forward_frame` on edge inputs: a fused frame with no
sparse samples, and a previous volume moved wholly out of the frustum."""

import numpy as np
import pytest

from raydepth import autodiff as ad
from raydepth import geometry as geo
from raydepth import pipeline, synth
from raydepth.config import PlanesConfig, RunConfig, validate_config
from raydepth.cost_volume import SparseDepthMap

D_MIN, D_MAX = 1.0, 6.0


@pytest.fixture(scope="module")
def clip():
    cfg = validate_config(
        RunConfig(
            planes=PlanesConfig(count=4, d_min=D_MIN, d_max=D_MAX),
            channels=4,
            image_channels=(1, 1, 1),
            downscale=4,
        )
    )
    spec, K = synth.default_scene(0, width=16, height=16, frame_count=2, step=0.05)
    frames = [synth.render_frame(spec, t, K) for t in range(2)]
    sparse = [synth.sample_sparse(dense, 10, [0, t]) for t, (_, dense, _) in enumerate(frames)]
    return cfg, K, frames, sparse, pipeline.init_parameters(cfg)


def first_state(cfg, K, frames, sparse, params):
    img, _, pose = frames[0]
    with ad.no_grad():
        return pipeline.forward_frame(img, sparse[0], pose, None, params, cfg, K)[1]


def assert_depth_defined(result):
    for depth in (result.regressed, result.refined):
        assert np.isfinite(depth.depth.data).all()
        assert depth.depth.data.min() >= D_MIN and depth.depth.data.max() <= D_MAX


class TestEdgeInputs:
    def test_fused_frame_without_sparse_samples(self, clip):
        cfg, K, frames, sparse, params = clip
        empty = SparseDepthMap(16, 16, np.zeros((16, 16)), np.zeros((16, 16), dtype=bool))
        state = first_state(cfg, K, frames, sparse, params)
        img, _, pose = frames[1]
        with ad.no_grad():
            result, _ = pipeline.forward_frame(img, empty, pose, state, params, cfg, K)
        assert_depth_defined(result)

    def test_previous_volume_out_of_frustum(self, clip):
        cfg, K, frames, sparse, params = clip
        state = first_state(cfg, K, frames, sparse, params)
        img, _, pose = frames[1]
        far = geo.Pose(pose.rotation, pose.translation + np.array([100.0, 0.0, 0.0]))
        aligned = geo.align_volume(
            state.volume,
            geo.relative_pose(state.pose, far),
            geo.scale_intrinsics(K, cfg.downscale),
            pipeline.planes_for(cfg),
        )
        assert aligned.validity.size > 0 and not aligned.validity.any()
        with ad.no_grad():
            result, _ = pipeline.forward_frame(img, sparse[1], far, state, params, cfg, K)
        assert_depth_defined(result)
