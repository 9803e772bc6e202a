"""Ray-wise fusion: attention against a brute-force oracle, positional
encodings, score-buffer accounting, locality, and determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raydepth import autodiff as ad
from raydepth import fusion
from raydepth.autodiff import Tensor
from raydepth.cost_volume import CostVolume
from raydepth.errors import DimensionError, ParameterError
from raydepth.geometry import make_planes


def manual_attention(q, k, v, wq, wk, wv, wo):
    """Independent softmax-weighted-sum oracle (plain numpy, per formula)."""
    qq, kk, vv = q @ wq, k @ wk, v @ wv
    scores = qq @ kk.T / np.sqrt(q.shape[-1])
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    return (weights @ vv) @ wo


def block(c, mode="identity", rng=None):
    if mode == "identity":
        ws = [np.eye(c)] * 4
    elif mode == "zero_out":
        ws = [np.eye(c), np.eye(c), np.eye(c), np.zeros((c, c))]
    else:
        ws = [rng.normal(size=(c, c)) for _ in range(4)]
    return fusion.AttentionBlockParams(*(Tensor(w) for w in ws))


def fusion_store(c, seed=0):
    store = ad.ParameterStore()
    fusion.add_fusion_params(store, np.random.default_rng(seed), c)
    return store


def volume(d, c, h, w, seed=0, planes=None):
    planes = planes or make_planes(d, 1.0, 4.0)
    rng = np.random.default_rng(seed)
    return CostVolume(planes, Tensor(rng.normal(size=(d, c, h, w))))


def delta_preconvs(store, c):
    """Pre-fusion convs become the identity for nonnegative features."""
    for name in ("pre0", "pre1"):
        k = np.zeros((c, c, 3, 3, 3))
        for i in range(c):
            k[i, i, 1, 1, 1] = 1.0
        store[f"fusion.{name}.weight"].data[...] = k
        store[f"fusion.{name}.bias"].data[...] = 0.0


class TestPositionalEncoding:
    def test_row_zero_alternates_zero_one(self):
        pe = fusion.depth_positional_encoding(4, 6).data
        np.testing.assert_array_equal(pe[0], [0, 1, 0, 1, 0, 1])

    def test_bounded_by_one(self):
        pe = fusion.depth_positional_encoding(32, 16).data
        assert pe.min() >= -1.0 and pe.max() <= 1.0

    def test_closed_form_entry(self):
        pe = fusion.depth_positional_encoding(4, 4).data
        np.testing.assert_allclose(pe[1, 0], np.sin(1.0), atol=1e-15)
        np.testing.assert_allclose(pe[1, 1], np.cos(1.0), atol=1e-15)
        np.testing.assert_allclose(pe[1, 2], np.sin(1.0 / 100.0), atol=1e-15)

    def test_odd_channels_rejected(self):
        with pytest.raises(ParameterError):
            fusion.depth_positional_encoding(4, 5)

    def test_each_call_gives_a_fresh_tensor_over_read_only_values(self):
        a, b = fusion.depth_positional_encoding(8, 6), fusion.depth_positional_encoding(8, 6)
        assert a is not b and not a.requires_grad
        assert a.data.tobytes() == b.data.tobytes()
        with pytest.raises(ValueError):
            a.data[0, 0] = 1.0


class TestAttention:
    def test_single_token_identity_projections_returns_value(self):
        v = np.array([[2.0, -1.0, 0.5]])
        out = fusion.attention(Tensor(v), Tensor(v * 0 + 1), Tensor(v), block(3))
        np.testing.assert_allclose(out.data, v, atol=1e-15)

    def test_identical_keys_average_values(self):
        # brute-force oracle: two equal keys give 0.5/0.5 weights
        q = np.array([[1.0, 0.0]])
        k = np.array([[0.3, 0.7], [0.3, 0.7]])
        v = np.array([[2.0, 4.0], [2.0, 4.0]])
        out = fusion.attention(Tensor(q), Tensor(k), Tensor(v), block(2))
        np.testing.assert_allclose(out.data, [[2.0, 4.0]], atol=1e-15)

    def test_zero_output_projection_annihilates(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 3)))
        out = fusion.attention(x, x, x, block(3, "zero_out"))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(1)
        blk = block(5, "random", rng)
        q, k, v = rng.normal(size=(3, 5)), rng.normal(size=(7, 5)), rng.normal(size=(7, 5))
        out = fusion.attention(Tensor(q), Tensor(k), Tensor(v), blk)
        expect = manual_attention(q, k, v, *(w.data for w in (blk.wq, blk.wk, blk.wv, blk.wo)))
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_batched_matches_per_ray(self):
        rng = np.random.default_rng(2)
        blk = block(4, "random", rng)
        x = rng.normal(size=(6, 3, 4))
        batched = fusion.attention(Tensor(x), Tensor(x), Tensor(x), blk).data
        for i in range(6):
            single = fusion.attention(Tensor(x[i]), Tensor(x[i]), Tensor(x[i]), blk).data
            np.testing.assert_array_equal(batched[i], single)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            fusion.attention(
                Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4))), block(3)
            )


class TestEntryCount:
    def test_paper_scale_counts(self):
        assert fusion.attention_entry_count(16, 8, 8, "ray") == 16384
        assert fusion.attention_entry_count(16, 8, 8, "naive") == 1048576

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=50, deadline=None)
    def test_ratio_is_pixel_count(self, d, h, w):
        ray = fusion.attention_entry_count(d, h, w, "ray")
        naive = fusion.attention_entry_count(d, h, w, "naive")
        assert naive == ray * h * w

    def test_bad_mode_rejected(self):
        with pytest.raises(ParameterError):
            fusion.attention_entry_count(2, 2, 2, "volumetric")


class TestPreFusionConvs:
    def test_zero_params_zero_volume(self):
        store = fusion_store(3)
        for name in ("pre0", "pre1"):
            store[f"fusion.{name}.weight"].data[...] = 0.0
        out = fusion.pre_fusion_convs(volume(2, 3, 4, 4, seed=1), store)
        np.testing.assert_array_equal(out.features.data, 0.0)

    def test_shape_preserved(self):
        out = fusion.pre_fusion_convs(volume(2, 3, 4, 5, seed=2), fusion_store(3))
        assert out.features.shape == (2, 3, 4, 5)

    def test_gradient_check(self):
        store = fusion_store(2, seed=3)
        rng = np.random.default_rng(4)
        store.add("feat", rng.normal(size=(2, 2, 3, 3)))
        planes = make_planes(2, 1.0, 4.0)
        w = rng.normal(size=(2, 2, 3, 3))

        def f(s):
            v = CostVolume(planes, s["feat"])
            return (fusion.pre_fusion_convs(v, s).features * w).sum()

        assert ad.gradient_check(f, store) < 1e-4


class TestFuseVolumes:
    def test_zero_projections_residual_identity(self):
        c = 4
        store = fusion_store(c, seed=5)
        for name in ("self_cur", "self_prev", "cross"):
            for w in ("wq", "wk", "wv", "wo"):
                store[f"fusion.{name}.{w}"].data[...] = 0.0
        cur, prev = volume(4, c, 3, 3, seed=6), volume(4, c, 3, 3, seed=7)
        fused = fusion.fuse_volumes(cur, prev, store)
        pre = fusion.pre_fusion_convs(cur, store)
        np.testing.assert_array_equal(fused.features.data, pre.features.data)

    def test_two_token_hand_oracle(self):
        # D=2, C=2, one ray, identity projections, identity pre-convs; the
        # residual adds the current volume back
        c, d = 2, 2
        store = fusion_store(c, seed=8)
        delta_preconvs(store, c)
        for name in ("self_cur", "self_prev", "cross"):
            for i, w in enumerate(("wq", "wk", "wv", "wo")):
                store[f"fusion.{name}.{w}"].data[...] = np.eye(c)
        planes = make_planes(d, 1.0, 2.0)
        f_cur = np.array([[[[0.4]], [[0.1]]], [[[0.2]], [[0.3]]]])  # (2,2,1,1) > 0
        f_prev = np.array([[[[0.5]], [[0.2]]], [[[0.1]], [[0.4]]]])
        cur = CostVolume(planes, Tensor(f_cur))
        prev = CostVolume(planes, Tensor(f_prev))
        fused = fusion.fuse_volumes(cur, prev, store)

        pe = fusion.depth_positional_encoding(d, c).data
        eye = np.eye(c)
        x_cur = f_cur[:, :, 0, 0] + pe
        x_prev = f_prev[:, :, 0, 0] + pe
        sa_cur = manual_attention(x_cur, x_cur, x_cur, eye, eye, eye, eye)
        sa_prev = manual_attention(x_prev, x_prev, x_prev, eye, eye, eye, eye)
        expect = manual_attention(sa_cur, sa_prev, sa_prev, eye, eye, eye, eye) + f_cur[:, :, 0, 0]
        np.testing.assert_allclose(fused.features.data[:, :, 0, 0], expect, atol=1e-12)

    def test_first_frame_is_self_attention_plus_residual(self):
        store = fusion_store(4, seed=9)
        cur = volume(3, 4, 2, 2, seed=10)
        out = fusion.fuse_volumes(cur, None, store)
        # reproduce by hand from the building blocks
        pre = fusion.pre_fusion_convs(cur, store)
        pe = fusion.depth_positional_encoding(3, 4)
        rays = ad.reshape(ad.transpose(pre.features, (2, 3, 0, 1)), (4, 3, 4)) + pe
        blk, _, _ = fusion.fusion_blocks(store)
        sa = fusion.attention(rays, rays, rays, blk)
        expect = ad.transpose(ad.reshape(sa, (2, 2, 3, 4)), (2, 3, 0, 1)).data + pre.features.data
        np.testing.assert_allclose(out.features.data, expect, atol=1e-12)

    def test_per_ray_locality(self):
        store = fusion_store(2, seed=11)
        base = volume(3, 2, 7, 7, seed=12)
        bumped = CostVolume(base.planes, Tensor(base.features.data.copy()))
        bumped.features.data[:, :, 0, 0] += 5.0  # beyond the 2-cell conv reach of (6, 6)
        prev = volume(3, 2, 7, 7, seed=13)
        out_a = fusion.fuse_volumes(base, prev, store)
        out_b = fusion.fuse_volumes(bumped, prev, store)
        np.testing.assert_array_equal(
            out_a.features.data[:, :, 6, 6], out_b.features.data[:, :, 6, 6]
        )
        assert not np.allclose(out_a.features.data[:, :, 0, 0], out_b.features.data[:, :, 0, 0])

    def test_gradients_through_fusion(self):
        c = 4
        store = fusion_store(c, seed=18)
        rng = np.random.default_rng(19)
        store.add("cur", rng.normal(size=(4, c, 2, 2)))
        store.add("prev", rng.normal(size=(4, c, 2, 2)))
        planes = make_planes(4, 1.0, 4.0)
        w = rng.normal(size=(4, c, 2, 2))

        def f(s):
            fused = fusion.fuse_volumes(
                CostVolume(planes, s["cur"]), CostVolume(planes, s["prev"]), s
            )
            return (fused.features * w).sum()

        assert ad.gradient_check(f, store) < 1e-4

    def test_shape_mismatch_rejected(self):
        store = fusion_store(2)
        with pytest.raises(DimensionError):
            fusion.fuse_volumes(volume(2, 2, 3, 3), volume(2, 2, 4, 4, seed=1), store)

    def test_whole_volume_grouping_equals_ray_grouping_on_one_ray(self):
        # with H = W = 1 both paths hold the same D tokens in one group
        store = fusion_store(4, seed=34)
        cur, prev = volume(5, 4, 1, 1, seed=35), volume(5, 4, 1, 1, seed=36)
        for p in (prev, None):
            ray = fusion.fuse_volumes(cur, p, store).features.data
            naive = fusion.fuse_volumes_naive(cur, p, store).features.data
            np.testing.assert_allclose(naive, ray, rtol=1e-12, atol=0)


class TestScoreMeter:
    def test_ray_mode_peak_is_d2_times_rays(self):
        d, c, h, w = 5, 2, 3, 4
        store = fusion_store(c, seed=26)
        cur, prev = volume(d, c, h, w, seed=27), volume(d, c, h, w, seed=28)
        fusion.score_meter.reset()
        fusion.fuse_volumes(cur, prev, store)
        assert fusion.score_meter.peak_entries == d * d * h * w
        assert fusion.score_meter.total_entries == 3 * d * d * h * w
        assert fusion.score_meter.peak_bytes == d * d * h * w * 8

    def test_naive_mode_allocates_squared_tokens(self):
        d, c, h, w = 4, 2, 3, 3
        store = fusion_store(c, seed=31)
        cur, prev = volume(d, c, h, w, seed=32), volume(d, c, h, w, seed=33)
        fusion.score_meter.reset()
        fusion.fuse_volumes_naive(cur, prev, store)
        naive_entries = fusion.attention_entry_count(d, h, w, "naive")
        assert fusion.score_meter.peak_entries == naive_entries
        fusion.score_meter.reset()
        fusion.fuse_volumes(cur, prev, store)
        assert fusion.score_meter.peak_entries == naive_entries // (h * w)
