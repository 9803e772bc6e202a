"""Feature-volume construction and the 3-D U-Net encoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raydepth import autodiff as ad
from raydepth import cost_volume as cv
from raydepth.errors import DimensionError, NumericError, ParameterError
from raydepth.geometry import make_planes

PLANES = make_planes(4, 1.0, 4.0)


def sparse_map(depth, valid):
    depth = np.asarray(depth, dtype=np.float64)
    return cv.SparseDepthMap(depth.shape[1], depth.shape[0], depth, np.asarray(valid, bool))


class TestTypes:
    def test_invalid_entries_forced_to_zero(self):
        s = sparse_map([[2.0, 7.0]], [[True, False]])
        np.testing.assert_array_equal(s.depth, [[2.0, 0.0]])

    def test_nonpositive_valid_depth_rejected(self):
        with pytest.raises(ParameterError):
            sparse_map([[0.0]], [[True]])

    def test_image_range_enforced(self):
        with pytest.raises(ParameterError):
            cv.RGBImage(2, 2, np.full((3, 2, 2), 1.5))

    def test_nan_image_value_rejected(self):
        channels = np.full((3, 2, 2), 0.5)
        channels[1, 0, 1] = np.nan
        with pytest.raises(NumericError):
            cv.RGBImage(2, 2, channels)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_valid_depth_rejected(self, value):
        with pytest.raises(NumericError):
            sparse_map([[2.0, value]], [[True, True]])

    def test_cost_volume_plane_count_checked(self):
        with pytest.raises(DimensionError):
            cv.CostVolume(PLANES, ad.Tensor(np.zeros((3, 2, 4, 4))))


class TestOccupancy:
    def test_exact_plane_hit(self):
        s = sparse_map([[2.0]], [[True]])
        occ = cv.build_occupancy_volume(s, PLANES).data
        np.testing.assert_array_equal(occ[:, 0, 0, 0], [0, 1, 0, 0])

    def test_invalid_pixel_is_all_zero(self):
        s = sparse_map([[2.0]], [[False]])
        occ = cv.build_occupancy_volume(s, PLANES).data
        np.testing.assert_array_equal(occ[:, 0, 0, 0], [0, 0, 0, 0])

    def test_nearest_plane_oracle(self):
        # nearest-neighbor oracle over the plane list: |2.4 - d_i| minimized at d=2
        s = sparse_map([[2.4]], [[True]])
        occ = cv.build_occupancy_volume(s, PLANES).data
        np.testing.assert_array_equal(occ[:, 0, 0, 0], [0, 1, 0, 0])

    def test_tie_goes_to_lower_plane(self):
        s = sparse_map([[2.5]], [[True]])
        occ = cv.build_occupancy_volume(s, PLANES).data
        np.testing.assert_array_equal(occ[:, 0, 0, 0], [0, 1, 0, 0])

    @given(st.floats(min_value=0.5, max_value=4.5), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_columns_one_hot_or_zero(self, depth, valid):
        s = sparse_map([[depth]], [[valid]])
        occ = cv.build_occupancy_volume(s, PLANES).data
        total = occ[:, 0, 0, 0].sum()
        assert total == (1.0 if valid else 0.0)
        assert set(np.unique(occ)) <= {0.0, 1.0}


class TestResidual:
    def test_zero_at_matching_plane(self):
        s = sparse_map([[3.0]], [[True]])
        res = cv.build_residual_volume(s, PLANES).data
        assert res[2, 0, 0, 0] == 0.0

    def test_invalid_pixel_zero_column(self):
        s = sparse_map([[3.0]], [[False]])
        res = cv.build_residual_volume(s, PLANES).data
        np.testing.assert_array_equal(res[:, 0, 0, 0], np.zeros(4))

    def test_formula_oracle(self):
        s = sparse_map([[3.0]], [[True]])
        res = cv.build_residual_volume(s, PLANES).data
        np.testing.assert_allclose(res[:, 0, 0, 0], [2 / 3, 1 / 3, 0, -1 / 3])

    def test_antisymmetric_about_matched_plane(self):
        s = sparse_map([[3.0]], [[True]])
        res = cv.build_residual_volume(s, PLANES).data[:, 0, 0, 0]
        assert res[1] == -res[3]


class TestDownsample:
    def test_min_valid_depth_per_cell(self):
        depth = np.array([[5.0, 2.0], [0.0, 3.0]])
        valid = np.array([[True, True], [False, True]])
        out = cv.downsample_sparse(sparse_map(depth, valid), 2)
        assert out.depth[0, 0] == 2.0 and out.valid[0, 0]

    def test_empty_cell_invalid(self):
        out = cv.downsample_sparse(sparse_map(np.zeros((2, 2)), np.zeros((2, 2), bool)), 2)
        assert not out.valid.any()


class TestImageEncoder:
    def _params(self, widths=(2, 2, 2), seed=0):
        store = ad.ParameterStore()
        cv.add_image_encoder_params(store, np.random.default_rng(seed), widths)
        return store

    def test_zero_image_zero_features(self):
        img = cv.RGBImage(16, 8, np.zeros((3, 8, 16)))
        out = cv.extract_image_features(img, self._params(), (2, 2, 2), 4)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_output_shape_contract(self):
        rng = np.random.default_rng(1)
        img = cv.RGBImage(64, 48, rng.uniform(size=(3, 48, 64)))
        out = cv.extract_image_features(img, self._params((4, 4, 4)), (4, 4, 4), 4)
        assert out.shape == (12, 12, 16)

    @pytest.mark.parametrize("downscale", [1, 2, 4])
    def test_all_downscales_reach_volume_resolution(self, downscale):
        img = cv.RGBImage(16, 8, np.random.default_rng(2).uniform(size=(3, 8, 16)))
        out = cv.extract_image_features(img, self._params(), (2, 2, 2), downscale)
        assert out.shape == (6, 8 // downscale, 16 // downscale)

    def test_indivisible_dimensions_rejected(self):
        img = cv.RGBImage(18, 8, np.zeros((3, 8, 18)))
        with pytest.raises(DimensionError):
            cv.extract_image_features(img, self._params(), (2, 2, 2), 4)

    def test_receptive_field_locality(self):
        # receptive-field oracle from layer geometry: three 3x3 convs with
        # strides (1, 2, 2) plus a 4x4 mean pool reach at most 13 full-res
        # pixels from the center of an output cell, so pixels further than
        # that cannot influence it.
        params = self._params()
        rng = np.random.default_rng(3)
        base = rng.uniform(0.2, 0.8, size=(3, 16, 32))
        img_a = cv.RGBImage(32, 16, base)
        far = base.copy()
        far[:, :, 28:] = rng.uniform(size=(3, 16, 4))
        img_b = cv.RGBImage(32, 16, far)
        out_a = cv.extract_image_features(img_a, params, (2, 2, 2), 4).data
        out_b = cv.extract_image_features(img_b, params, (2, 2, 2), 4).data
        # cell column 0 covers pixels 0..3; nearest change at pixel 28 is
        # 25 pixels away from the cell's farthest covered pixel
        np.testing.assert_array_equal(out_a[:, :, 0], out_b[:, :, 0])
        assert not np.allclose(out_a[:, :, -1], out_b[:, :, -1])


class TestAssembly:
    def test_channel_layout_and_replication(self):
        rng = np.random.default_rng(4)
        vo = ad.Tensor(rng.uniform(size=(4, 1, 3, 5)))
        vr = ad.Tensor(rng.uniform(size=(4, 1, 3, 5)))
        vi = ad.Tensor(rng.uniform(size=(6, 3, 5)))
        out = cv.assemble_feature_volume(vo, vr, vi).data
        assert out.shape == (4, 8, 3, 5)
        np.testing.assert_array_equal(out[:, 0], vo.data[:, 0])
        np.testing.assert_array_equal(out[:, 1], vr.data[:, 0])
        for i in range(4):
            np.testing.assert_array_equal(out[i, 2:], vi.data)

    def test_single_plane_is_plain_concat(self):
        vo = ad.Tensor(np.ones((1, 1, 2, 2)))
        vr = ad.Tensor(np.zeros((1, 1, 2, 2)))
        vi = ad.Tensor(np.full((2, 2, 2), 0.5))
        out = cv.assemble_feature_volume(vo, vr, vi).data
        assert out.shape == (1, 4, 2, 2)

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            cv.assemble_feature_volume(
                ad.Tensor(np.zeros((2, 1, 3, 3))),
                ad.Tensor(np.zeros((2, 1, 3, 3))),
                ad.Tensor(np.zeros((2, 4, 4))),
            )


class TestUNet:
    def _params(self, cin, c, seed=0):
        store = ad.ParameterStore()
        cv.add_unet_params(store, np.random.default_rng(seed), cin, c)
        return store

    def test_shape_contract(self):
        planes = make_planes(16, 0.5, 8.0)
        feat = ad.Tensor(np.random.default_rng(5).normal(size=(16, 5, 12, 16)))
        out = cv.encode_cost_volume(feat, self._params(5, 6), planes)
        assert out.features.shape == (16, 6, 12, 16)

    def test_zero_parameters_zero_volume(self):
        store = ad.ParameterStore()
        cv.add_unet_params(store, np.random.default_rng(0), 3, 4)
        for _, p in store.items():
            p.data[...] = 0.0
        feat = ad.Tensor(np.random.default_rng(6).normal(size=(4, 3, 4, 4)))
        out = cv.encode_cost_volume(feat, store, PLANES)
        np.testing.assert_array_equal(out.features.data, 0.0)

    def test_indivisible_extents_rejected(self):
        feat = ad.Tensor(np.zeros((4, 3, 6, 8)))
        with pytest.raises(DimensionError):
            cv.encode_cost_volume(feat, self._params(3, 4), PLANES)

    def test_gradients_match_finite_differences(self):
        store = self._params(4, 4, seed=7)
        rng = np.random.default_rng(8)
        feat_store = ad.ParameterStore()
        feat_store.add("feat", rng.normal(size=(4, 4, 4, 4)))
        for path, p in store.items():
            feat_store.add(path, p.data)
        w = rng.normal(size=(4, 4, 4, 4))

        def f(s):
            out = cv.encode_cost_volume(s["feat"], s, PLANES)
            return (out.features * w).sum()

        assert ad.gradient_check(f, feat_store) < 1e-4

    def test_feature_volume_translation_consistency(self):
        # shifting image and sparse map by the downscale factor shifts the
        # assembled feature volume by one cell on interior cells
        widths, r = (2, 2, 2), 4
        store = ad.ParameterStore()
        cv.add_image_encoder_params(store, np.random.default_rng(9), widths)
        rng = np.random.default_rng(10)
        base = rng.uniform(0.1, 0.9, size=(3, 32, 48))
        depth = rng.uniform(1.2, 3.8, size=(32, 48))
        valid = rng.uniform(size=(32, 48)) < 0.3

        def build(img_arr, dep, val):
            img = cv.RGBImage(48, 32, img_arr)
            s = cv.downsample_sparse(cv.SparseDepthMap(48, 32, np.where(val, dep, 0), val), r)
            vo = cv.build_occupancy_volume(s, PLANES)
            vr = cv.build_residual_volume(s, PLANES)
            vi = cv.extract_image_features(img, store, widths, r)
            return cv.assemble_feature_volume(vo, vr, vi).data

        ref = build(base, depth, valid)
        shifted = build(
            np.roll(base, r, axis=2), np.roll(depth, r, axis=1), np.roll(valid, r, axis=1)
        )
        # interior cells: stay clear of the wrap column and the encoder's
        # receptive-field reach (13 full-res pixels ~ 4 cells)
        np.testing.assert_allclose(shifted[:, :, :, 5:-5], ref[:, :, :, 4:-6], atol=1e-12)
