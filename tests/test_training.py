"""Soft labels, losses, the AdamW update, checkpoints, and a short
end-to-end training smoke run."""

import collections
import hashlib
import io
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raydepth import autodiff as ad
from raydepth import training as tr
from raydepth.autodiff import Tensor
from raydepth.config import OptimizerConfig, RunConfig, PlanesConfig
from raydepth.cost_volume import SparseDepthMap
from raydepth.errors import CheckpointError, EmptySupervisionError, TrainingError
from raydepth.geometry import make_planes
from raydepth.pipeline import init_parameters
from raydepth.regression import DepthMap, ProbabilityVolume

PLANES = make_planes(4, 1.0, 4.0)


def sparse(depth, valid):
    depth = np.asarray(depth, dtype=np.float64)
    return SparseDepthMap(depth.shape[1], depth.shape[0], depth, np.asarray(valid, bool))


class TestSoftLabel:
    def test_exact_plane_hit_is_one_hot(self):
        (label,), clamped = tr.soft_labels([2.0], PLANES)
        np.testing.assert_array_equal(label, [0, 1, 0, 0])
        assert clamped == 0

    def test_midpoint_splits_evenly(self):
        (label,), _ = tr.soft_labels([2.5], PLANES)
        np.testing.assert_allclose(label, [0, 0.5, 0.5, 0])
        np.testing.assert_allclose(label @ PLANES.depths, 2.5, atol=1e-12)

    def test_quarter_split(self):
        (label,), _ = tr.soft_labels([1.25], PLANES)
        np.testing.assert_allclose(label, [0.75, 0.25, 0, 0])
        np.testing.assert_allclose(label @ PLANES.depths, 1.25, atol=1e-12)

    def test_out_of_range_clamps_and_is_counted(self):
        (label,), clamped = tr.soft_labels([9.0], PLANES)
        np.testing.assert_array_equal(label, [0, 0, 0, 1])
        assert clamped == 1
        (label,), clamped = tr.soft_labels([0.1], PLANES)
        np.testing.assert_array_equal(label, [1, 0, 0, 0])
        assert clamped == 1

    @given(st.floats(min_value=1.0, max_value=4.0))
    @settings(max_examples=200, deadline=None)
    def test_expectation_identity_and_support(self, gt):
        (label,), clamped = tr.soft_labels([gt], PLANES)
        assert clamped == 0
        assert abs(label @ PLANES.depths - gt) < 1e-9
        assert abs(label.sum() - 1.0) < 1e-12
        assert (label > 0).sum() <= 2


class TestLosses:
    def test_l1_zero_on_exact_match(self):
        gt = sparse([[2.0, 3.0]], [[True, True]])
        pred = DepthMap(2, 1, Tensor([[2.0, 3.0]]))
        assert tr.l1_loss(pred, gt).item() == 0.0

    def test_l1_single_pixel(self):
        gt = sparse([[1.0, 5.0]], [[True, False]])
        pred = DepthMap(2, 1, Tensor([[2.0, 100.0]]))
        assert tr.l1_loss(pred, gt).item() == 1.0

    def test_l1_mean_oracle(self):
        gt = sparse([[1.0, 1.0]], [[True, True]])
        pred = DepthMap(2, 1, Tensor([[2.0, 4.0]]))
        assert tr.l1_loss(pred, gt).item() == 2.0

    def test_losses_ignore_invalid_pixels(self):
        gt_a = sparse([[2.0, 7.7]], [[True, False]])
        gt_b = sparse([[2.0, 1.1]], [[True, False]])
        pred = DepthMap(2, 1, Tensor([[2.5, 3.0]]))
        assert tr.l1_loss(pred, gt_a).item() == tr.l1_loss(pred, gt_b).item()

    def test_empty_supervision_rejected(self):
        gt = sparse([[1.0]], [[False]])
        pred = DepthMap(1, 1, Tensor([[2.0]]))
        with pytest.raises(EmptySupervisionError):
            tr.l1_loss(pred, gt)

    def _prob(self, p):
        arr = np.asarray(p, dtype=np.float64).reshape(-1, 1, 1)
        return ProbabilityVolume(PLANES, Tensor(arr))

    def test_ce_zero_at_matching_one_hot(self):
        gt = sparse([[2.0]], [[True]])
        prob = self._prob([1e-12, 1.0 - 3e-12, 1e-12, 1e-12])
        assert tr.ce_loss(prob, gt, PLANES).item() < 1e-9

    def test_ce_uniform_against_one_hot_is_log4(self):
        gt = sparse([[2.0]], [[True]])
        prob = self._prob([0.25, 0.25, 0.25, 0.25])
        np.testing.assert_allclose(tr.ce_loss(prob, gt, PLANES).item(), np.log(4.0), atol=1e-9)

    def test_ce_soft_label_floor_is_label_entropy(self):
        gt = sparse([[2.5]], [[True]])  # label (0, .5, .5, 0)
        prob = self._prob([0.0, 0.5, 0.5, 0.0])
        np.testing.assert_allclose(tr.ce_loss(prob, gt, PLANES).item(), np.log(2.0), atol=1e-9)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_gibbs_inequality(self, seed):
        rng = np.random.default_rng(seed)
        gt_depth = rng.uniform(1.0, 4.0)
        (label,), _ = tr.soft_labels([gt_depth], PLANES)
        p = rng.dirichlet(np.ones(4))
        gt = sparse([[gt_depth]], [[True]])
        ce = tr.ce_loss(self._prob(p), gt, PLANES).item()
        entropy = -np.sum(label[label > 0] * np.log(label[label > 0]))
        assert ce >= entropy - 1e-9


class TestOptimizer:
    def _single(self, value, lr=1e-3, wd=0.0):
        params = ad.ParameterStore()
        params.add("w", [value])
        state = tr.init_optimizer(params, OptimizerConfig(learning_rate=lr, weight_decay=wd))
        return params, state

    def test_zero_gradient_no_decay_keeps_parameters(self):
        params, state = self._single(1.5)
        params["w"].grad = np.zeros(1)
        tr.optimizer_step(params, state)
        np.testing.assert_array_equal(params["w"].data, [1.5])

    def test_first_step_moves_by_learning_rate(self):
        # closed-form single step: bias correction makes the update lr * sign(g)
        params, state = self._single(0.0)
        params["w"].grad = np.ones(1)
        tr.optimizer_step(params, state)
        np.testing.assert_allclose(params["w"].data, [-1e-3], rtol=1e-7)

    def test_decoupled_decay_formula(self):
        params, state = self._single(2.0, lr=1e-3, wd=1e-4)
        params["w"].grad = np.zeros(1)
        tr.optimizer_step(params, state)
        np.testing.assert_allclose(params["w"].data, [2.0 * (1.0 - 1e-7)], rtol=1e-15)

    def test_missing_gradient_names_parameter(self):
        params, state = self._single(1.0)
        with pytest.raises(TrainingError, match="'w'"):
            tr.optimizer_step(params, state)

    def test_milestones_halve_learning_rate(self):
        params, state = self._single(0.0)
        state = tr.init_optimizer(
            params, OptimizerConfig(learning_rate=1.0, weight_decay=0.0, milestones=(2,))
        )
        params["w"].grad = np.ones(1)
        tr.optimizer_step(params, state)
        assert state.learning_rate == 1.0
        params["w"].grad = np.ones(1)
        tr.optimizer_step(params, state)
        assert state.learning_rate == 0.5

    def test_converges_on_quadratic(self):
        params = ad.ParameterStore()
        params.add("w", [4.0])
        state = tr.init_optimizer(params, OptimizerConfig(learning_rate=0.1, weight_decay=0.0))
        for _ in range(200):
            params.zero_grad()
            loss = (params["w"] * params["w"]).sum()
            loss.backward()
            tr.optimizer_step(params, state)
        assert abs(params["w"].data[0]) < 0.05


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        from raydepth.pipeline import init_parameters

        params = init_parameters(RunConfig())
        assert len(params) == 42
        path = tmp_path / "ck.bin"
        tr.save_checkpoint(path, params)
        loaded = tr.load_checkpoint(path)
        assert loaded.paths() == params.paths()
        for p in params.paths():
            assert loaded[p].data.dtype == np.float64
            assert loaded[p].data.tobytes() == params[p].data.tobytes()

    @pytest.mark.parametrize(
        "make,member",
        [
            pytest.param(lambda good: good[:-8], None, id="truncated"),
            pytest.param(lambda good: b"NOPE" + bytes(16), None, id="not-an-archive"),
            pytest.param(lambda good: b"", None, id="empty"),
            pytest.param(lambda good: pickle.dumps({"w": np.ones(2)}), None, id="pickle"),
            pytest.param(lambda good: saved_bytes(np.save, np.ones(2)), None, id="bare-npy"),
            pytest.param(lambda good: saved_bytes(np.savez, w=np.array([1.0, None], dtype=object)), None,
                         id="object-member"),
            pytest.param(lambda good: saved_bytes(np.savez, w=np.ones(2, np.float32)), "'w'", id="float32-member"),
            pytest.param(lambda good: saved_bytes(np.savez, w=np.array([1.0, np.nan])), "'w'", id="nan-entry"),
            pytest.param(lambda good: saved_bytes(np.savez, w=np.array([-np.inf, 1.0])), "'w'", id="inf-entry"),
        ],
    )
    def test_malformed_file_names_path(self, tmp_path, make, member):
        params = ad.ParameterStore()
        params.add("w", np.ones((4, 4)))
        path = tmp_path / "ck.bin"
        tr.save_checkpoint(path, params)
        path.write_bytes(make(path.read_bytes()))
        with pytest.raises(CheckpointError, match=re.escape(str(path))) as excinfo:
            tr.load_checkpoint(path)
        if member is not None:
            assert member in str(excinfo.value)

    def test_mismatch_lists_names(self, tmp_path):
        a = ad.ParameterStore()
        a.add("present", np.ones(2))
        b = ad.ParameterStore()
        b.add("other", np.ones(2))
        with pytest.raises(CheckpointError, match="present.*other"):
            tr.check_same_parameters(a, b)

    def test_default_model_layout_is_pinned(self, tmp_path):
        """A checkpoint holds each parameter's path and shape, so archives
        written by earlier versions load as long as this layout holds."""
        params = init_parameters(RunConfig())
        sizes = collections.Counter()
        for path, p in params.items():
            sizes[path.split(".")[0]] += p.size
        assert len(params) == 42 and sum(sizes.values()) == 113_688
        assert sizes == {"unet": 88_400, "fusion": 16_928, "head": 6_928, "refine": 1_024, "encoder": 408}
        assert params["unet.enc0.weight"].shape == (16, 14, 3, 3, 3)
        # SHA-256 of one "path shape" line per parameter, in path order
        layout = "".join(f"{path} {p.shape}\n" for path, p in params.items())
        assert hashlib.sha256(layout.encode()).hexdigest() == (
            "491d2093286ae9ba01f477e29106007eb698d2186d47cddafe18b782c282cc68"
        )
        path = tmp_path / "ck.npz"
        tr.save_checkpoint(path, params)
        tr.check_same_parameters(init_parameters(RunConfig()), tr.load_checkpoint(path))


def saved_bytes(save, *args, **kwargs):
    buf = io.BytesIO()
    save(buf, *args, **kwargs)
    return buf.getvalue()


def tiny_config():
    return RunConfig(
        planes=PlanesConfig(count=4, d_min=1.0, d_max=5.0),
        channels=4,
        image_channels=(1, 1, 1),
        downscale=4,
        optimizer=OptimizerConfig(learning_rate=3e-3, weight_decay=1e-4, epochs=2),
    )


def tiny_frames(cfg, n_frames=2, size=(16, 16), seed=0):
    from raydepth import synth

    w, h = size
    spec, K = synth.default_scene(seed, width=w, height=h, frame_count=n_frames, step=0.03)
    frames, gts = [], []
    for t in range(n_frames):
        img, dense, pose = synth.render_frame(spec, t, K)
        frames.append((img, synth.sample_sparse(dense, 8, seed + 100 + t), pose))
        gts.append(dense)
    return frames, gts, K


class TestTrainSequence:
    def test_zero_epochs_keeps_parameters(self):
        from raydepth.pipeline import init_parameters

        cfg = tiny_config()
        frames, gts, K = tiny_frames(cfg, n_frames=1)
        params = init_parameters(cfg, seed=0)
        before = {p: params[p].data.copy() for p in params.paths()}
        state = tr.init_optimizer(params, cfg.optimizer)
        params, trace = tr.train_sequence(lambda _: frames, gts, K, params, state, cfg, epochs=0)
        assert trace.epoch_means == []
        for p in params.paths():
            np.testing.assert_array_equal(params[p].data, before[p])

    def test_trace_length_matches_epochs(self):
        from raydepth.pipeline import init_parameters

        cfg = tiny_config()
        frames, gts, K = tiny_frames(cfg)
        params = init_parameters(cfg, seed=0)
        state = tr.init_optimizer(params, cfg.optimizer)
        params, trace = tr.train_sequence(lambda _: frames, gts, K, params, state, cfg, epochs=3)
        assert len(trace.epoch_means) == 3
        assert len(trace.rows) == 3 * len(frames)
        assert np.isfinite(trace.epoch_means).all()

    def test_loss_decreases_with_training(self):
        from raydepth.pipeline import init_parameters

        cfg = tiny_config()
        frames, gts, K = tiny_frames(cfg, n_frames=1)
        params = init_parameters(cfg, seed=0)
        state = tr.init_optimizer(params, cfg.optimizer)
        params, trace = tr.train_sequence(lambda _: frames, gts, K, params, state, cfg, epochs=30)
        assert trace.epoch_means[-1] < trace.epoch_means[0]

    def test_loss_trace_csv(self, tmp_path):
        trace = tr.LossTrace(rows=[tr.LossRow(0, 0, 0.5, 0.25, 0.75)])
        path = tmp_path / "trace.csv"
        tr.write_loss_trace(path, trace)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,frame,l1,ce,total"
        assert lines[1] == "0,0,0.5,0.25,0.75"

    def test_epoch_frames_called_once_per_epoch(self):
        from raydepth.pipeline import init_parameters

        cfg = tiny_config()
        frames, gts, K = tiny_frames(cfg)
        params = init_parameters(cfg, seed=0)
        state = tr.init_optimizer(params, cfg.optimizer)
        asked = []

        def epoch_frames(epoch):
            asked.append(epoch)
            return frames

        _, trace = tr.train_sequence(epoch_frames, gts, K, params, state, cfg, epochs=2)
        assert asked == [0, 1]
        assert [(row.epoch, row.frame) for row in trace.rows] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_frame_count_mismatch_rejected(self):
        from raydepth.pipeline import init_parameters

        cfg = tiny_config()
        frames, gts, K = tiny_frames(cfg)
        params = init_parameters(cfg, seed=0)
        state = tr.init_optimizer(params, cfg.optimizer)
        with pytest.raises(TrainingError, match="1 frames but 2"):
            tr.train_sequence(lambda _: frames[:1], gts, K, params, state, cfg, epochs=1)

    def test_carried_volume_is_detached_after_each_frame(self, monkeypatch):
        from raydepth.pipeline import init_parameters

        cfg = tiny_config()
        frames, gts, K = tiny_frames(cfg, n_frames=3)
        params = init_parameters(cfg, seed=0)
        state = tr.init_optimizer(params, cfg.optimizer)
        forward_frame = tr.forward_frame
        incoming = []

        def spy(img, sparse, pose, carried, *args):
            incoming.append(carried)
            return forward_frame(img, sparse, pose, carried, *args)

        monkeypatch.setattr(tr, "forward_frame", spy)
        tr.train_sequence(lambda _: frames, gts, K, params, state, cfg, epochs=1)
        assert incoming[0] is None and len(incoming) == 3
        for carried in incoming[1:]:
            assert carried.volume.features.op is None
            assert not carried.volume.features.requires_grad

    def test_epoch_means_derived_from_rows(self):
        trace = tr.LossTrace(
            rows=[tr.LossRow(0, 0, 0, 0, 1.0), tr.LossRow(0, 1, 0, 0, 3.0), tr.LossRow(1, 0, 0, 0, 5.0)]
        )
        assert trace.epoch_means == [2.0, 5.0]

    def test_refinement_weights_get_trained(self):
        # the depth losses see the refined depth, so one step moves the
        # refinement weights by more than their weight decay
        from raydepth.pipeline import init_parameters

        cfg = tiny_config()
        assert cfg.refinement
        frames, gts, K = tiny_frames(cfg, n_frames=1)
        params = init_parameters(cfg, seed=0)
        before = {p: params[p].data.copy() for p in params.paths() if p.startswith("refine.")}
        state = tr.init_optimizer(params, cfg.optimizer)
        tr.train_sequence(lambda _: frames, gts, K, params, state, cfg, epochs=1)
        decay = 1.0 - cfg.optimizer.learning_rate * cfg.optimizer.weight_decay
        moved = max(np.abs(params[p].data - before[p] * decay).max() for p in before)
        assert moved > 0.1 * cfg.optimizer.learning_rate
