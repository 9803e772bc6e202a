"""Camera math and volume alignment, checked against closed-form formulas and
an independent per-voxel trilinear warp oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raydepth import autodiff as ad
from raydepth import geometry as geo
from raydepth.cost_volume import CostVolume
from raydepth.errors import DimensionError, NumericError, ParameterError

K = geo.CameraIntrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=100, height=100)
IDENTITY = geo.Pose(np.eye(3), np.zeros(3))


def small_pose(rng, max_angle=0.05, max_shift=0.05):
    """Random small SE(3) motion via a first-order rotation, re-orthonormalized."""
    w = rng.uniform(-max_angle, max_angle, 3)
    skew = np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]])
    q, _ = np.linalg.qr(np.eye(3) + skew)
    q *= np.sign(np.diag(q))[None, :]
    if np.linalg.det(q) < 0:
        q[:, 2] *= -1
    return geo.Pose(q, rng.uniform(-max_shift, max_shift, 3))


def warp_oracle(vol, cur_to_prev, K, planes):
    """Per-voxel brute-force inverse warp with its own trilinear interpolation."""
    d, c, h, w = vol.shape
    out = np.zeros_like(vol)
    valid = np.zeros((d, h, w), dtype=bool)
    for i in range(d):
        for hh in range(h):
            for ww in range(w):
                depth = planes.depths[i]
                pt = np.array(
                    [(ww - K.cx) * depth / K.fx, (hh - K.cy) * depth / K.fy, depth]
                )
                pp = cur_to_prev.rotation @ pt + cur_to_prev.translation
                if pp[2] <= 0:
                    continue
                u = K.fx * pp[0] / pp[2] + K.cx
                v = K.fy * pp[1] / pp[2] + K.cy
                z = pp[2]
                if not (0 <= u <= w - 1 and 0 <= v <= h - 1 and planes.d_min <= z <= planes.d_max):
                    continue
                valid[i, hh, ww] = True
                f = (z - planes.d_min) / planes.spacing
                f0 = min(int(np.floor(f)), d - 2)
                v0 = min(int(np.floor(v)), h - 2)
                u0 = min(int(np.floor(u)), w - 2)
                df, dv, du = f - f0, v - v0, u - u0
                acc = np.zeros(c)
                for a in (0, 1):
                    for b in (0, 1):
                        for e in (0, 1):
                            wgt = (
                                (df if a else 1 - df)
                                * (dv if b else 1 - dv)
                                * (du if e else 1 - du)
                            )
                            acc += wgt * vol[f0 + a, :, v0 + b, u0 + e]
                out[i, :, hh, ww] = acc
    return out, valid


class TestPlanes:
    def test_integer_spacing(self):
        planes = geo.make_planes(4, 1.0, 4.0)
        np.testing.assert_array_equal(planes.depths, [1.0, 2.0, 3.0, 4.0])

    def test_sixteen_plane_default_range(self):
        planes = geo.make_planes(16, 0.001, 10.0)
        assert planes.depths[0] == 0.001
        assert planes.depths[-1] == 10.0
        np.testing.assert_allclose(planes.spacing, (10.0 - 0.001) / 15, rtol=0)
        np.testing.assert_allclose(np.diff(planes.depths), planes.spacing, atol=1e-12)

    def test_two_planes_are_endpoints(self):
        planes = geo.make_planes(2, 0.3, 2.7)
        np.testing.assert_array_equal(planes.depths, [0.3, 2.7])

    @pytest.mark.parametrize("args", [(1, 1.0, 2.0), (4, -1.0, 2.0), (4, 2.0, 1.0), (4, 0.0, 1.0)])
    def test_invalid_arguments(self, args):
        with pytest.raises(ParameterError):
            geo.make_planes(*args)


class TestProjection:
    def test_principal_point_is_optical_axis(self):
        np.testing.assert_array_equal(geo.backproject(50.0, 50.0, 3.0, K), [0, 0, 3.0])

    def test_unit_offset_at_unit_depth(self):
        np.testing.assert_allclose(geo.backproject(150.0, 50.0, 1.0, K), [1, 0, 1])

    def test_formula_point(self):
        np.testing.assert_allclose(geo.backproject(250.0, -50.0, 2.0, K), [4, -2, 2])
        u, v, front = geo.project([4.0, -2.0, 2.0], K)
        np.testing.assert_allclose((u, v), (250.0, -50.0))
        assert front

    def test_formula_point_asymmetric_intrinsics(self):
        k2 = geo.CameraIntrinsics(fx=100.0, fy=80.0, cx=40.0, cy=30.0, width=100, height=60)
        np.testing.assert_allclose(geo.backproject(140.0, 110.0, 2.0, k2), [2, 2, 2])
        u, v, front = geo.project([2.0, 2.0, 2.0], k2)
        np.testing.assert_allclose((u, v), (140.0, 110.0))
        assert front

    def test_axis_point_projects_to_principal(self):
        u, v, front = geo.project([0.0, 0.0, 5.0], K)
        assert (u, v, front) == (50.0, 50.0, True)

    def test_broadcasts_over_leading_axes(self):
        u, v = np.meshgrid(np.arange(3.0), np.arange(2.0))
        depth = np.array([[1.0], [2.0]])
        pts = geo.backproject(u, v, depth, K)
        assert pts.shape == (2, 3, 3)
        for i in range(2):
            for j in range(3):
                np.testing.assert_array_equal(
                    pts[i, j], geo.backproject(u[i, j], v[i, j], depth[i, 0], K)
                )
        uu, vv, front = geo.project(pts, K)
        assert uu.shape == vv.shape == front.shape == (2, 3)
        assert front.all()

    def test_nonpositive_depth_rejected(self):
        with pytest.raises(ParameterError):
            geo.backproject(1.0, 1.0, 0.0, K)
        with pytest.raises(ParameterError):
            geo.backproject(np.ones(3), np.ones(3), np.array([1.0, -1.0, 2.0]), K)

    def test_behind_camera_flagged_with_finite_coordinates(self):
        pts = np.array([[1.0, 2.0, -1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 4.0]])
        u, v, front = geo.project(pts, K)
        np.testing.assert_array_equal(front, [False, False, True])
        assert np.isfinite(u).all() and np.isfinite(v).all()

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=99.0),
                st.floats(min_value=0.0, max_value=99.0),
                st.floats(min_value=0.01, max_value=10.0),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_identity(self, pixels):
        u, v, d = np.array(pixels).T
        pts = geo.backproject(u, v, d, K)
        uu, vv, front = geo.project(pts, K)
        assert front.all()
        assert np.all(np.abs(uu - u) < 1e-12 * np.maximum(1, np.abs(u)))
        assert np.all(np.abs(vv - v) < 1e-12 * np.maximum(1, np.abs(v)))
        np.testing.assert_array_equal(pts[:, 2], d)


class TestRelativePose:
    def test_same_pose_gives_identity(self):
        rng = np.random.default_rng(0)
        p = small_pose(rng)
        rel = geo.relative_pose(p, p)
        np.testing.assert_allclose(rel.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(rel.translation, 0.0, atol=1e-12)

    def test_translation_only(self):
        prev = geo.Pose(np.eye(3), [0.0, 0.0, 1.0])
        cur = IDENTITY
        rel = geo.relative_pose(cur, prev)
        np.testing.assert_allclose(rel.translation, [0, 0, 1])
        # compose-and-verify: previous camera center expressed in current frame
        np.testing.assert_allclose(rel.apply([0.0, 0.0, 0.0]), prev.translation)

    def test_inverse_pair_composes_to_identity(self):
        rng = np.random.default_rng(1)
        a, b = small_pose(rng, 0.3, 0.5), small_pose(rng, 0.3, 0.5)
        fwd = geo.relative_pose(a, b)
        bwd = geo.relative_pose(b, a)
        np.testing.assert_allclose(fwd.rotation @ bwd.rotation, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(fwd.apply(bwd.apply(np.zeros(3))), 0.0, atol=1e-9)

    def test_invalid_rotation_rejected(self):
        with pytest.raises(ParameterError):
            geo.Pose(np.eye(3) * 2.0, np.zeros(3))
        with pytest.raises(ParameterError):
            geo.Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_nan_translation_rejected(self):
        with pytest.raises(NumericError):
            geo.Pose(np.eye(3), [0.0, np.nan, 0.0])


class TestAlignVolume:
    def setup_method(self):
        self.planes = geo.make_planes(4, 1.0, 4.0)
        # principal point on an exact pixel so the optical axis hits (3, 3)
        self.kvol = geo.CameraIntrinsics(8.0, 8.0, 3.0, 3.0, 6, 6)

    def _volume(self, seed=0):
        rng = np.random.default_rng(seed)
        return CostVolume(self.planes, ad.Tensor(rng.normal(size=(4, 3, 6, 6))))

    def test_identity_pose_is_exact_identity(self):
        v = self._volume()
        out = geo.align_volume(v, IDENTITY, self.kvol, self.planes)
        np.testing.assert_allclose(out.features.data, v.features.data, atol=1e-12)
        assert out.validity.all()

    def test_axial_translation_shifts_planes(self):
        # camera moves one plane spacing toward the scene: plane i now sees
        # what plane i+1 saw, exactly on the optical axis
        v = self._volume(1)
        shift = geo.Pose(np.eye(3), [0.0, 0.0, self.planes.spacing])
        out = geo.align_volume(v, shift, self.kvol, self.planes)
        cu, cv = int(self.kvol.cx), int(self.kvol.cy)
        for i in range(3):
            np.testing.assert_allclose(
                out.features.data[i, :, cv, cu], v.features.data[i + 1, :, cv, cu], atol=1e-9
            )

    def test_constant_volume_stays_constant_where_valid(self):
        ones = CostVolume(self.planes, ad.Tensor(np.ones((4, 3, 6, 6))))
        pose = small_pose(np.random.default_rng(2))
        out = geo.align_volume(ones, pose, self.kvol, self.planes)
        assert out.validity.any()
        np.testing.assert_allclose(out.features.data[:, 0][out.validity], 1.0, atol=1e-12)
        np.testing.assert_array_equal(out.features.data[:, 0][~out.validity], 0.0)

    def test_matches_bruteforce_oracle_across_poses(self):
        self._check_against_oracle(self.kvol)

    def test_matches_bruteforce_oracle_with_asymmetric_intrinsics(self):
        self._check_against_oracle(geo.CameraIntrinsics(8.0, 6.5, 2.5, 3.25, 6, 6))

    def _check_against_oracle(self, kvol):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            v = self._volume(seed)
            pose = small_pose(rng)
            out = geo.align_volume(v, pose, kvol, self.planes)
            expect, valid = warp_oracle(v.features.data, pose, kvol, self.planes)
            np.testing.assert_allclose(out.features.data, expect, atol=1e-9)
            np.testing.assert_array_equal(out.validity, valid)

    def test_linearity_in_volume(self):
        rng = np.random.default_rng(3)
        a, b = self._volume(4), self._volume(5)
        pose = small_pose(rng)
        mix = CostVolume(self.planes, ad.Tensor(2.5 * a.features.data - 1.25 * b.features.data))
        out_mix = geo.align_volume(mix, pose, self.kvol, self.planes)
        out_a = geo.align_volume(a, pose, self.kvol, self.planes)
        out_b = geo.align_volume(b, pose, self.kvol, self.planes)
        np.testing.assert_allclose(
            out_mix.features.data,
            2.5 * out_a.features.data - 1.25 * out_b.features.data,
            atol=1e-9,
        )

    def test_gradient_matches_finite_differences(self):
        pose = small_pose(np.random.default_rng(6))
        store = ad.ParameterStore()
        rng = np.random.default_rng(7)
        store.add("vol", rng.normal(size=(4, 2, 6, 6)))
        w = rng.normal(size=(4, 2, 6, 6))

        def f(s):
            v = CostVolume(self.planes, s["vol"])
            out = geo.align_volume(v, pose, self.kvol, self.planes)
            return (out.features * w).sum()

        assert ad.gradient_check(f, store) < 1e-4

    def test_resolution_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            geo.align_volume(self._volume(), IDENTITY, K, self.planes)


class TestCameraFile(object):
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        poses = [small_pose(rng, 0.4, 2.0) for _ in range(3)]
        path = tmp_path / "poses.txt"
        geo.save_cameras(path, poses)
        assert all(len(line.split()) == 12 for line in path.read_text().splitlines())
        loaded = geo.load_cameras(path)
        assert len(loaded) == 3
        for p0, p1 in zip(poses, loaded):
            np.testing.assert_array_equal(p0.rotation, p1.rotation)
            np.testing.assert_array_equal(p0.translation, p1.translation)

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("1 0 0 0 1 0 0 0 1 0 0 0\n\n1 2 3\n")
        with pytest.raises(ParameterError, match="poses.txt:3: expected 12 values"):
            geo.load_cameras(path)

    def test_non_numeric_value_reports_position(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("1 0 0 0 1 0 0 0 1 0 0 0\n1 0 0 0 1 0 0 0 1 abc 0 0\n")
        with pytest.raises(ParameterError, match="poses.txt:2: could not convert"):
            geo.load_cameras(path)

    def test_line_with_intrinsics_rejected(self, tmp_path):
        # the older 16-value line also held fx fy cx cy; intrinsics.txt is their one source
        path = tmp_path / "poses.txt"
        path.write_text("1 0 0 0 1 0 0 0 1 0 0 0 100 100 50 50\n")
        with pytest.raises(ParameterError, match="poses.txt:1: expected 12 values"):
            geo.load_cameras(path)

    def test_scale_intrinsics(self):
        k4 = geo.scale_intrinsics(K, 4)
        assert (k4.fx, k4.fy, k4.cx, k4.cy, k4.width, k4.height) == (25.0, 25.0, 12.5, 12.5, 25, 25)
