"""Renderer checks against closed-form geometry: plane/sphere depths,
reprojection consistency between frames, and sparse sampling."""

import json
import re
import warnings

import numpy as np
import pytest

from raydepth import synth
from raydepth.errors import ConfigError, ParameterError
from raydepth.geometry import CameraIntrinsics, backproject, project, relative_pose

K = CameraIntrinsics(fx=40.0, fy=40.0, cx=16.0, cy=12.0, width=32, height=24)


LIGHT = np.array([-0.35, -0.45, -0.82]) / np.linalg.norm([-0.35, -0.45, -0.82])


def single_primitive_scene(prim):
    return synth.SceneSpec(
        seed=0,
        primitives=[prim],
        room_bounds=([-6.0, -6.0, -6.0], [6.0, 6.0, 6.0]),
        trajectory=synth.Trajectory("lateral", 1, 0.0),
    )


def oracle_hit(prim, o, d):
    """First intersection past 1e-9 along o + t d, one ray at a time, and the
    camera-facing unit normal of the surface there; None on a miss."""
    if isinstance(prim, synth.Box):
        lo, hi = prim.bounds()
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (lo - o) / d
            t2 = (hi - o) / d
        tn = np.minimum(t1, t2).max()
        tf = np.maximum(t1, t2).min()
        if not tf >= tn:
            return None
        t = tn if tn > 1e-9 else tf
        if not t > 1e-9:
            return None
        p = o + t * d
        normal = np.zeros(3)
        normal[np.argmin(np.minimum(np.abs(p - lo), np.abs(p - hi)))] = 1.0
    else:
        oc = o - prim.center
        a = d @ d
        b = 2 * oc @ d
        c = oc @ oc - prim.radius**2
        disc = b * b - 4 * a * c
        if disc < 0:
            return None
        roots = [r for r in ((-b - np.sqrt(disc)) / (2 * a), (-b + np.sqrt(disc)) / (2 * a)) if r > 1e-9]
        if not roots:
            return None
        t = roots[0]
        normal = (o + t * d - prim.center) / prim.radius
    return t, (-normal if normal @ d > 0 else normal)


def oracle_frame(spec, frame, K):
    """Per-pixel loop: nearest hit depth, validity and checker x Lambert color."""
    pose = synth.camera_pose(spec, frame)
    depth = np.zeros((K.height, K.width))
    color = np.zeros((3, K.height, K.width))
    for h in range(K.height):
        for w in range(K.width):
            d = pose.rotation @ np.array([(w - K.cx) / K.fx, (h - K.cy) / K.fy, 1.0])
            hits = [(hit, prim) for prim in spec.primitives if (hit := oracle_hit(prim, pose.translation, d))]
            if not hits:
                continue
            (t, normal), prim = min(hits, key=lambda item: item[0][0])
            parity = np.floor((pose.translation + t * d) / prim.checker_scale).sum()
            checker = 1.0 if parity % 2 == 0 else 0.55
            brightness = 0.3 + 0.7 * max(0.0, normal @ LIGHT)
            depth[h, w] = t
            color[:, h, w] = np.clip(prim.color * checker * brightness, 0.0, 1.0)
    return depth, depth > 0, color


def wall_scene(z0=3.0, frame_count=3, kind="lateral", step=0.05):
    wall = synth.Box([0.0, 0.0, z0 + 0.3], [8.0, 8.0, 0.3], checker_scale=0.7)
    return synth.SceneSpec(
        seed=0,
        primitives=[wall],
        room_bounds=([-9.0, -9.0, 0.0], [9.0, 9.0, 8.0]),
        trajectory=synth.Trajectory(kind, frame_count, step),
    )


class TestRenderFrame:
    def test_frontoparallel_wall_constant_depth(self):
        img, dense, pose = synth.render_frame(wall_scene(z0=3.0), 0, K)
        assert dense.valid.all()
        np.testing.assert_allclose(dense.depth, 3.0, atol=1e-12)

    def test_dolly_moves_depth_by_step(self):
        spec = wall_scene(z0=3.0, kind="dolly", step=0.25)
        _, d0, _ = synth.render_frame(spec, 0, K)
        _, d1, _ = synth.render_frame(spec, 1, K)
        np.testing.assert_allclose(d1.depth, d0.depth - 0.25, atol=1e-12)

    def test_sphere_center_pixel_depth(self):
        # ray-sphere quadratic oracle: on-axis hit at z0 - r
        z0, r = 3.0, 0.8
        kc = CameraIntrinsics(fx=40.0, fy=40.0, cx=16.0, cy=12.0, width=32, height=24)
        sphere = synth.Sphere([0.0, 0.0, z0], r)
        spec = synth.SceneSpec(
            seed=0,
            primitives=[sphere],
            room_bounds=([-5.0, -5.0, 0.0], [5.0, 5.0, 6.0]),
            trajectory=synth.Trajectory("lateral", 1, 0.0),
        )
        _, dense, _ = synth.render_frame(spec, 0, kc)
        np.testing.assert_allclose(dense.depth[12, 16], z0 - r, atol=1e-12)

    def test_depth_matches_independent_intersection_oracle(self):
        # every pixel of the third frame on each trajectory
        for kind in ("lateral", "dolly", "orbit"):
            spec, kc = synth.default_scene(3, width=16, height=12, frame_count=3, trajectory=kind)
            _, dense, _ = synth.render_frame(spec, 2, kc)
            depth, valid, _ = oracle_frame(spec, 2, kc)
            np.testing.assert_array_equal(dense.valid, valid)
            np.testing.assert_allclose(dense.depth, depth, rtol=0, atol=1e-9)

    def test_color_matches_independent_shading_oracle(self):
        for kind in ("lateral", "dolly", "orbit"):
            spec, kc = synth.default_scene(3, width=16, height=12, frame_count=3, trajectory=kind)
            img, _, _ = synth.render_frame(spec, 2, kc)
            _, _, color = oracle_frame(spec, 2, kc)
            np.testing.assert_allclose(img.channels, color, rtol=0, atol=1e-12)

    def test_hit_from_inside_shades_camera_facing_face(self):
        # camera at the origin inside each primitive; checker_scale 100 keeps
        # every hit on a light square, so the color is 0.8 * brightness
        k8 = CameraIntrinsics(fx=4.0, fy=4.0, cx=4.0, cy=3.0, width=8, height=6)
        box = synth.Box([0.0, 0.0, 2.0], [1.0, 3.0, 3.0], checker_scale=100.0)
        sphere = synth.Sphere([0.0, 0.0, 0.5], 2.0, checker_scale=100.0)
        # pixel (3, 7) leaves the box through x = 1; pixel (3, 4) meets the
        # sphere's far root on the optical axis
        for prim, (h, w), normal in [(box, (3, 7), [-1.0, 0.0, 0.0]), (sphere, (3, 4), [0.0, 0.0, -1.0])]:
            spec = single_primitive_scene(prim)
            img, dense, _ = synth.render_frame(spec, 0, k8)
            expected = 0.8 * (0.3 + 0.7 * max(0.0, np.dot(normal, LIGHT)))
            np.testing.assert_allclose(img.channels[:, h, w], expected, rtol=0, atol=1e-12)
            depth, valid, color = oracle_frame(spec, 0, k8)
            assert valid.all()
            np.testing.assert_allclose(dense.depth, depth, rtol=0, atol=1e-9)
            np.testing.assert_allclose(img.channels, color, rtol=0, atol=1e-12)
        assert round(0.8 * (0.3 + 0.7 * -LIGHT[0]), 4) == 0.4363
        assert round(0.8 * (0.3 + 0.7 * -LIGHT[2]), 4) == 0.6998

    def test_ray_parallel_to_slab_through_its_plane(self):
        # row 3 has direction y = 0 and starts on the box's y = 0 plane, so
        # its slab test is 0/0: those rays miss, the rows below hit the box
        k8 = CameraIntrinsics(fx=4.0, fy=4.0, cx=4.0, cy=3.0, width=8, height=6)
        spec = single_primitive_scene(synth.Box([0.0, 1.0, 3.0], [1.0, 1.0, 0.5]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            img, dense, _ = synth.render_frame(spec, 0, k8)
        assert not dense.valid[:4].any()
        np.testing.assert_array_equal(img.channels[:, :4], 0.0)
        assert dense.valid[4:, 3:6].all()
        np.testing.assert_allclose(dense.depth[4:, 3:6], 2.5, rtol=0, atol=1e-12)

    def test_background_invalid_and_dark(self):
        sphere = synth.Sphere([0.0, 0.0, 3.0], 0.4)
        spec = synth.SceneSpec(
            seed=0,
            primitives=[sphere],
            room_bounds=([-5.0, -5.0, 0.0], [5.0, 5.0, 6.0]),
            trajectory=synth.Trajectory("lateral", 1, 0.0),
        )
        img, dense, _ = synth.render_frame(spec, 0, K)
        assert not dense.valid[0, 0]
        assert dense.depth[0, 0] == 0.0
        np.testing.assert_array_equal(img.channels[:, 0, 0], 0.0)

    def test_frame_index_beyond_trajectory(self):
        with pytest.raises(ParameterError):
            synth.render_frame(wall_scene(frame_count=2), 2, K)

    def test_primitive_outside_room_rejected(self):
        with pytest.raises(ParameterError):
            synth.SceneSpec(
                seed=0,
                primitives=[synth.Box([0, 0, 10.0], [1, 1, 1])],
                room_bounds=([-2, -2, 0], [2, 2, 4]),
                trajectory=synth.Trajectory("lateral", 1, 0.0),
            )


class TestReprojectionConsistency:
    @pytest.mark.parametrize("kind,step", [("lateral", 0.08), ("dolly", 0.1), ("orbit", 0.01)])
    def test_unoccluded_wall_reprojects_consistently(self, kind, step):
        spec = wall_scene(z0=3.0, frame_count=2, kind=kind, step=step)
        _, d0, p0 = synth.render_frame(spec, 0, K)
        _, d1, p1 = synth.render_frame(spec, 1, K)
        rel = relative_pose(p1, p0)  # frame0 camera coords -> frame1
        v, u = np.nonzero(d0.valid[2:-2, 2:-2])
        v, u = v + 2, u + 2
        pts = rel.apply(backproject(u, v, d0.depth[v, u], K))
        uu, vv, front = project(pts, K)
        u0, v0 = np.floor(uu).astype(np.int64), np.floor(vv).astype(np.int64)
        inside = front & (u0 >= 0) & (u0 < K.width - 1) & (v0 >= 0) & (v0 < K.height - 1)
        u0, v0, z = u0[inside], v0[inside], pts[inside, 2]
        du, dv = uu[inside] - u0, vv[inside] - v0
        corners = [(0, 0), (0, 1), (1, 0), (1, 1)]
        hit = np.all([d1.valid[v0 + a, u0 + b] for a, b in corners], axis=0)
        landed = sum(
            d1.depth[v0 + a, u0 + b] * (dv if a else 1 - dv) * (du if b else 1 - du)
            for a, b in corners
        )
        assert hit.sum() > 50
        assert np.all(np.abs(landed - z)[hit] < 1e-6)


class TestSampleSparse:
    def _dense(self, seed=0):
        _, dense, _ = synth.render_frame(wall_scene(), 0, K)
        return dense

    def test_full_count_returns_everything(self):
        dense = self._dense()
        out = synth.sample_sparse(dense, dense.valid_count, seed=1)
        np.testing.assert_array_equal(out.valid, dense.valid)

    def test_exact_count_kept(self):
        dense = self._dense()
        out = synth.sample_sparse(dense, 300, seed=2)
        assert out.valid_count == 300

    def test_same_seed_same_mask(self):
        dense = self._dense()
        a = synth.sample_sparse(dense, 50, seed=3)
        b = synth.sample_sparse(dense, 50, seed=3)
        np.testing.assert_array_equal(a.valid, b.valid)

    def test_values_preserved_exactly(self):
        dense = self._dense()
        out = synth.sample_sparse(dense, 100, seed=4)
        np.testing.assert_array_equal(out.depth[out.valid], dense.depth[out.valid])

    def test_overcount_warns_and_keeps_all(self):
        dense = self._dense()
        with pytest.warns(UserWarning):
            out = synth.sample_sparse(dense, dense.valid_count + 1, seed=5)
        assert out.valid_count == dense.valid_count


class TestSceneFilesAndSequences:
    def test_scene_json_roundtrip(self, tmp_path):
        spec, kc = synth.default_scene(7)
        path = tmp_path / "scene.json"
        synth.save_scene(path, spec, kc)
        spec2, k2 = synth.load_scene(path)
        assert synth.scene_to_dict(spec2, k2) == synth.scene_to_dict(spec, kc)
        img_a, dense_a, pose_a = synth.render_frame(spec, 0, kc)
        img_b, dense_b, pose_b = synth.render_frame(spec2, 0, k2)
        np.testing.assert_array_equal(img_a.channels, img_b.channels)
        np.testing.assert_array_equal(dense_a.depth, dense_b.depth)

    def test_generate_and_load_sequence(self, tmp_path):
        spec, kc = synth.default_scene(1, width=32, height=24, frame_count=3)
        out = tmp_path / "seq"
        n = synth.generate_sequence(spec, kc, out)
        assert n == 3
        assert sorted(p.name for p in out.iterdir()) == [
            "frame_0000.pfm", "frame_0000.ppm",
            "frame_0001.pfm", "frame_0001.ppm",
            "frame_0002.pfm", "frame_0002.ppm",
            "intrinsics.txt", "poses.txt",
        ]
        frames, k2 = synth.load_sequence(out)
        assert len(frames) == 3
        img, dense, pose = frames[0]
        assert (img.width, img.height) == (32, 24)
        _, dense_ref, pose_ref = synth.render_frame(spec, 0, kc)
        np.testing.assert_allclose(dense.depth, dense_ref.depth.astype(np.float32), atol=1e-6)
        np.testing.assert_array_equal(pose.rotation, pose_ref.rotation)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("1 2 3\n", id="three-values"),
            pytest.param("40 40 16 12 32 24 1\n", id="seven-values"),
            pytest.param("40 40 16 12 32.5 24\n", id="non-integer-width"),
            pytest.param("40 40 16 12 32 abc\n", id="non-numeric-height"),
            pytest.param("nan 40 16 12 32 24\n", id="non-finite-focal"),
        ],
    )
    def test_malformed_intrinsics_names_file(self, tmp_path, text):
        spec, kc = synth.default_scene(1, width=32, height=24, frame_count=1)
        out = tmp_path / "seq"
        synth.generate_sequence(spec, kc, out)
        (out / "intrinsics.txt").write_text(text)
        with pytest.raises(ParameterError, match=re.escape(str(out / "intrinsics.txt"))):
            synth.load_sequence(out)

    def test_sequence_intrinsics_come_from_intrinsics_file(self, tmp_path):
        spec, kc = synth.default_scene(1, width=32, height=24, frame_count=2)
        out = tmp_path / "seq"
        synth.generate_sequence(spec, kc, out)
        assert all(len(line.split()) == 12 for line in (out / "poses.txt").read_text().splitlines())
        (out / "intrinsics.txt").write_text("30 31 15.5 11.5 32 24\n")
        _, k2 = synth.load_sequence(out)
        assert (k2.fx, k2.fy, k2.cx, k2.cy, k2.width, k2.height) == (30.0, 31.0, 15.5, 11.5, 32, 24)

    def test_low_coverage_rejected(self, tmp_path):
        tiny = synth.SceneSpec(
            seed=0,
            primitives=[synth.Sphere([0.0, 0.0, 3.0], 0.2)],
            room_bounds=([-5, -5, 0], [5, 5, 6]),
            trajectory=synth.Trajectory("lateral", 1, 0.0),
        )
        with pytest.raises(ParameterError, match="coverage|hit"):
            synth.generate_sequence(tiny, K, tmp_path / "seq")

    def test_default_scene_full_coverage(self):
        for seed in range(4):
            spec, kc = synth.default_scene(seed, width=32, height=24, frame_count=2)
            for t in range(2):
                _, dense, _ = synth.render_frame(spec, t, kc)
                assert dense.valid.mean() >= 0.5


def _scene_dict():
    """A valid 16x16 scene file: a wall, three boxes, then two spheres."""
    spec, kc = synth.default_scene(0, width=16, height=16, frame_count=2, step=0.05)
    return synth.scene_to_dict(spec, kc)


def _edited(edit):
    raw = _scene_dict()
    return edit(raw) or raw


class TestSceneLoader:
    @pytest.mark.parametrize(
        "edit,path",
        [
            pytest.param(lambda r: r["primitives"][0].update(checker_scal=0.3),
                         "unknown key 'primitives[0].checker_scal'", id="primitive-typo"),
            pytest.param(lambda r: r["primitives"][1].update(colour=[1, 0, 0]),
                         "unknown key 'primitives[1].colour'", id="primitive-colour"),
            pytest.param(lambda r: r.update(trajectroy=r["trajectory"]),
                         "unknown key 'trajectroy'", id="top-level-typo"),
            pytest.param(lambda r: r["primitives"][4].update(radius=True),
                         "key 'primitives[4].radius'", id="radius-bool"),
            pytest.param(lambda r: r.update(seed=1.5), "key 'seed'", id="seed-float"),
            pytest.param(lambda r: r["trajectory"].update(frame_count="2"),
                         "key 'trajectory.frame_count'", id="frame-count-string"),
            pytest.param(lambda r: r["camera"].update(fx="57"), "key 'camera.fx'", id="fx-string"),
            pytest.param(lambda r: r["trajectory"].update(speed=1.0),
                         "unknown key 'trajectory.speed'", id="trajectory-unknown-key"),
            pytest.param(lambda r: r["camera"].update(skew=0.0),
                         "unknown key 'camera.skew'", id="camera-unknown-key"),
            pytest.param(lambda r: r.pop("primitives") and None,
                         "missing key 'primitives'", id="no-primitives"),
            pytest.param(lambda r: r["primitives"][0].pop("kind") and None,
                         "key 'primitives[0].kind'", id="no-kind"),
            pytest.param(lambda r: r["primitives"][0].update(center="abc"),
                         "key 'primitives[0].center'", id="center-string"),
            pytest.param(lambda r: r["primitives"][0].update(center=[0.0, 0.0]),
                         "key 'primitives[0].center'", id="center-two-entries"),
            pytest.param(lambda r: [r], "the root must be", id="list-root"),
            pytest.param(lambda r: r["primitives"][4].update(radius=float("nan")),
                         "key 'primitives[4].radius'", id="radius-nan"),
            pytest.param(lambda r: r["camera"].update(fx=float("inf")), "key 'camera.fx'", id="fx-infinity"),
            pytest.param(lambda r: r["camera"].update(fx=float("nan")), "key 'camera.fx'", id="fx-nan"),
            pytest.param(lambda r: r["primitives"][0]["center"].__setitem__(0, float("-inf")),
                         "key 'primitives[0].center'", id="center-minus-infinity"),
            pytest.param(lambda r: r.update(primitives=[]), "'primitives'", id="empty-primitives"),
            pytest.param(lambda r: r.update(primitives=[], trajectory={"kind": "orbit", "frame_count": 2, "step": 0.1}),
                         "'primitives'", id="empty-primitives-orbit"),
        ],
    )
    def test_fault_names_key_path(self, tmp_path, edit, path):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(_edited(edit)))
        with pytest.raises(ConfigError, match=re.escape(path)) as excinfo:
            synth.load_scene(scene)
        # a misfit echoes at most 80 characters of the value, however large it is
        assert len(str(excinfo.value)) <= 160

    def test_malformed_json(self, tmp_path):
        scene = tmp_path / "scene.json"
        scene.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed JSON"):
            synth.load_scene(scene)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("trajectory", ["lateral", "dolly", "orbit"])
    @pytest.mark.parametrize("camera", [True, False], ids=["camera", "no-camera"])
    def test_roundtrip(self, seed, trajectory, camera):
        spec, kc = synth.default_scene(seed, trajectory=trajectory, step=0.03)
        raw = synth.scene_to_dict(spec, kc if camera else None)
        spec2, k2 = synth.scene_from_dict(json.loads(json.dumps(raw)))
        assert synth.scene_to_dict(spec2, k2) == raw
        assert (k2 is None) == (not camera)

    def test_roundtrip_renders_bitwise(self):
        spec, kc = synth.default_scene(4, trajectory="orbit", step=0.03)
        spec2, k2 = synth.scene_from_dict(json.loads(json.dumps(synth.scene_to_dict(spec, kc))))
        img_a, dense_a, pose_a = synth.render_frame(spec, 0, kc)
        img_b, dense_b, pose_b = synth.render_frame(spec2, 0, k2)
        np.testing.assert_array_equal(img_a.channels, img_b.channels)
        np.testing.assert_array_equal(dense_a.depth, dense_b.depth)
        np.testing.assert_array_equal(pose_a.rotation, pose_b.rotation)
