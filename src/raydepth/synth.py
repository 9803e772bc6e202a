"""Procedural RGB-D video: closed-form ray casting against textured boxes and
spheres along analytic camera trajectories, so every rendered depth has an
exact geometric value.  Background pixels are invalid (depth 0)."""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import fileio
from .config import dump_value, load_value, read_json, write_json
from .cost_volume import RGBImage, SparseDepthMap
from .errors import ParameterError
from .geometry import CameraIntrinsics, Pose, backproject, load_cameras, save_cameras

_EPS = 1e-9
_LIGHT = np.array([-0.35, -0.45, -0.82])
_LIGHT_DIR = _LIGHT / np.linalg.norm(_LIGHT)
_AMBIENT = 0.3
_CHECKER_DARK = 0.55

# A 3-vector as scene files give it; each class stores it as a float64 array.
Vec3 = tuple[float, float, float]


@dataclass(eq=False)
class Box:
    center: Vec3
    half_extents: Vec3
    checker_scale: float = 0.4
    color: Vec3 = (0.8, 0.8, 0.8)

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        self.half_extents = np.asarray(self.half_extents, dtype=np.float64)
        self.color = np.asarray(self.color, dtype=np.float64)
        if np.any(self.half_extents <= 0):
            raise ParameterError("box half extents must be positive")

    def bounds(self):
        return self.center - self.half_extents, self.center + self.half_extents


@dataclass(eq=False)
class Sphere:
    center: Vec3
    radius: float
    checker_scale: float = 0.4
    color: Vec3 = (0.8, 0.8, 0.8)

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        self.color = np.asarray(self.color, dtype=np.float64)
        if self.radius <= 0:
            raise ParameterError("sphere radius must be positive")

    def bounds(self):
        return self.center - self.radius, self.center + self.radius


@dataclass(eq=False)
class Trajectory:
    kind: str
    frame_count: int
    step: float

    def __post_init__(self):
        if self.kind not in ("lateral", "dolly", "orbit"):
            raise ParameterError(f"unknown trajectory kind {self.kind!r}")
        if self.frame_count < 1:
            raise ParameterError("trajectory needs at least one frame")


@dataclass(eq=False)
class SceneSpec:
    primitives: list[Box | Sphere]
    room_bounds: tuple[Vec3, Vec3]
    trajectory: Trajectory
    seed: int = 0

    def __post_init__(self):
        lo = np.asarray(self.room_bounds[0], dtype=np.float64)
        hi = np.asarray(self.room_bounds[1], dtype=np.float64)
        self.room_bounds = (lo, hi)
        if not self.primitives:
            raise ParameterError("'primitives' must not be empty")
        for prim in self.primitives:
            plo, phi = prim.bounds()
            if np.any(plo < lo - 1e-9) or np.any(phi > hi + 1e-9):
                raise ParameterError("primitive extends outside the room bounds")

    def centroid(self):
        return np.mean([p.center for p in self.primitives], axis=0)


def _look_at(eye, target):
    z = target - eye
    z = z / np.linalg.norm(z)
    x = np.cross([0.0, 1.0, 0.0], z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    return Pose(np.stack([x, y, z], axis=1), eye)


def camera_pose(spec, frame_index):
    """Analytic world-from-camera pose along the trajectory."""
    traj = spec.trajectory
    if frame_index >= traj.frame_count:
        raise ParameterError(f"frame {frame_index} beyond trajectory of {traj.frame_count}")
    if traj.kind == "lateral":
        return Pose(np.eye(3), np.array([frame_index * traj.step, 0.0, 0.0]))
    if traj.kind == "dolly":
        return Pose(np.eye(3), np.array([0.0, 0.0, frame_index * traj.step]))
    target = spec.centroid()
    angle = frame_index * traj.step
    rot = np.array(
        [
            [np.cos(angle), 0.0, np.sin(angle)],
            [0.0, 1.0, 0.0],
            [-np.sin(angle), 0.0, np.cos(angle)],
        ]
    )
    eye = target + rot @ (np.zeros(3) - target)
    return _look_at(eye, target)


def _intersect_box(origin, dirs, box):
    lo, hi = box.bounds()
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo[None, :] - origin[None, :]) / dirs
        t2 = (hi[None, :] - origin[None, :]) / dirs
    tmin = np.minimum(t1, t2)
    tmax = np.maximum(t1, t2)
    near_axis = np.argmax(tmin, axis=1)
    tnear = np.max(tmin, axis=1)
    tfar = np.min(tmax, axis=1)
    t = np.where(tnear > _EPS, tnear, tfar)
    hit = (tfar >= tnear) & (t > _EPS)
    rows = np.arange(dirs.shape[0])
    normal = np.zeros_like(dirs)
    normal[rows, near_axis] = -np.sign(dirs[rows, near_axis])
    return hit, t, normal


def _intersect_sphere(origin, dirs, sphere):
    oc = origin[None, :] - sphere.center[None, :]
    a = np.sum(dirs * dirs, axis=1)
    b = 2.0 * np.sum(dirs * oc, axis=1)
    c = np.sum(oc * oc) - sphere.radius**2
    disc = b * b - 4.0 * a * c
    safe = np.sqrt(np.maximum(disc, 0.0))
    t_near = (-b - safe) / (2.0 * a)
    t_far = (-b + safe) / (2.0 * a)
    t = np.where(t_near > _EPS, t_near, t_far)
    hit = (disc >= 0) & (t > _EPS)
    point = origin[None, :] + t[:, None] * dirs
    normal = (point - sphere.center[None, :]) / sphere.radius
    return hit, t, normal


def _shade(prim, points, normals):
    parity = np.floor(points / prim.checker_scale).sum(axis=1)
    checker = np.where(np.mod(parity, 2.0) < 1.0, 1.0, _CHECKER_DARK)
    lambert = np.maximum(0.0, normals @ _LIGHT_DIR)
    brightness = _AMBIENT + (1.0 - _AMBIENT) * lambert
    return np.clip(prim.color[None, :] * (checker * brightness)[:, None], 0.0, 1.0)


def render_frame(spec, frame_index, K):
    """Ray-cast one frame: nearest closed-form hit per pixel gives the exact
    camera-space depth; color is checker texture times Lambert shading."""
    pose = camera_pose(spec, frame_index)
    u, v = np.meshgrid(np.arange(K.width), np.arange(K.height))
    dirs = backproject(u.reshape(-1), v.reshape(-1), 1.0, K) @ pose.rotation.T
    origin = pose.translation
    n = dirs.shape[0]
    best_t = np.full(n, np.inf)
    color = np.zeros((n, 3))
    for prim in spec.primitives:
        if isinstance(prim, Box):
            hit, t, normal = _intersect_box(origin, dirs, prim)
        else:
            hit, t, normal = _intersect_sphere(origin, dirs, prim)
        closer = hit & (t < best_t)
        if not closer.any():
            continue
        t_safe = np.where(closer, t, 1.0)
        points = origin[None, :] + t_safe[:, None] * dirs
        shaded = _shade(prim, points, normal)
        best_t[closer] = t[closer]
        color[closer] = shaded[closer]
    valid = np.isfinite(best_t)
    depth = np.where(valid, best_t, 0.0).reshape(K.height, K.width)
    image = RGBImage(K.width, K.height, color.reshape(K.height, K.width, 3).transpose(2, 0, 1))
    dense = SparseDepthMap(K.width, K.height, depth, valid.reshape(K.height, K.width))
    return image, dense, pose


def sample_sparse(dense, count, seed):
    """Uniform random subset of valid pixels, without replacement."""
    flat_valid = np.flatnonzero(dense.valid.reshape(-1))
    if count > flat_valid.size:
        warnings.warn(
            f"requested {count} sparse samples but only {flat_valid.size} valid pixels; keeping all",
            stacklevel=2,
        )
        return SparseDepthMap(dense.width, dense.height, dense.depth.copy(), dense.valid.copy())
    rng = np.random.default_rng(seed)
    chosen = rng.choice(flat_valid, size=count, replace=False)
    mask = np.zeros(dense.depth.size, dtype=bool)
    mask[chosen] = True
    mask = mask.reshape(dense.depth.shape)
    return SparseDepthMap(dense.width, dense.height, np.where(mask, dense.depth, 0.0), mask)


# -- scene files and sequence directories ----------------------------------------


@dataclass(eq=False)
class SceneFile(SceneSpec):
    """A scene file: the scene's keys plus an optional camera block."""
    camera: CameraIntrinsics | None = None


def scene_from_dict(raw):
    """A scene file's JSON object as (SceneSpec, CameraIntrinsics or None)."""
    scene = load_value(SceneFile, raw)
    return SceneSpec(**{f.name: getattr(scene, f.name) for f in fields(SceneSpec)}), scene.camera


def load_scene(path):
    return scene_from_dict(read_json(path))


def scene_to_dict(spec, K=None):
    raw = dump_value(spec)
    if K is not None:
        raw["camera"] = dump_value(K)
    return raw


def save_scene(path, spec, K=None):
    write_json(path, scene_to_dict(spec, K))


_PALETTE = [
    [0.85, 0.35, 0.30],
    [0.30, 0.60, 0.85],
    [0.40, 0.80, 0.40],
    [0.90, 0.75, 0.30],
    [0.70, 0.45, 0.85],
    [0.35, 0.80, 0.75],
]


def default_scene(seed, width=64, height=48, frame_count=8, trajectory="lateral", step=0.04):
    """Desk-scale scene: a back wall, three boxes, two spheres, randomized
    per seed, plus matching intrinsics.  The wall keeps coverage at 100%."""
    rng = np.random.default_rng(seed)
    prims = [Box([0.0, 0.0, 5.5], [4.0, 3.0, 0.3], checker_scale=0.8, color=[0.75, 0.75, 0.7])]
    for i in range(3):
        center = [rng.uniform(-1.6, 1.6), rng.uniform(-1.0, 1.0), rng.uniform(2.6, 4.6)]
        half = rng.uniform(0.3, 0.7, size=3)
        prims.append(Box(center, half, checker_scale=rng.uniform(0.25, 0.5), color=_PALETTE[i]))
    for i in range(2):
        center = [rng.uniform(-1.4, 1.4), rng.uniform(-0.9, 0.9), rng.uniform(2.2, 4.0)]
        prims.append(
            Sphere(center, rng.uniform(0.35, 0.6), checker_scale=rng.uniform(0.25, 0.5), color=_PALETTE[3 + i])
        )
    spec = SceneSpec(
        seed=seed,
        primitives=prims,
        room_bounds=([-4.5, -3.5, 0.0], [4.5, 3.5, 6.0]),
        trajectory=Trajectory(trajectory, frame_count, step),
    )
    K = CameraIntrinsics(
        fx=0.9 * width, fy=0.9 * width, cx=width / 2.0, cy=height / 2.0, width=width, height=height
    )
    return spec, K


def generate_sequence(spec, K, out_dir, min_coverage=0.5):
    """Render the whole trajectory into a directory: frame_%04d.{ppm,pfm},
    poses.txt (one pose per line) and intrinsics.txt (`fx fy cx cy width
    height`, the one record of K)."""
    os.makedirs(out_dir, exist_ok=True)
    poses = []
    for t in range(spec.trajectory.frame_count):
        image, dense, pose = render_frame(spec, t, K)
        coverage = dense.valid.mean()
        if coverage < min_coverage:
            raise ParameterError(
                f"frame {t}: only {coverage:.0%} of pixels hit geometry (need {min_coverage:.0%})"
            )
        fileio.write_ppm(os.path.join(out_dir, f"frame_{t:04d}.ppm"), image)
        fileio.write_pfm(os.path.join(out_dir, f"frame_{t:04d}.pfm"), dense.depth)
        poses.append(pose)
    save_cameras(os.path.join(out_dir, "poses.txt"), poses)
    with open(os.path.join(out_dir, "intrinsics.txt"), "w") as f:
        f.write(f"{K.fx:.17g} {K.fy:.17g} {K.cx:.17g} {K.cy:.17g} {K.width} {K.height}\n")
    return spec.trajectory.frame_count


def load_sequence(seq_dir):
    """Read a sequence directory back as (frames, K); each frame is
    (RGBImage, dense ground-truth SparseDepthMap, Pose)."""
    path = os.path.join(seq_dir, "intrinsics.txt")
    with open(path) as f:
        vals = f.read().split()
    if len(vals) != 6:
        raise ParameterError(f"{path}: expected 6 values (fx fy cx cy width height), got {len(vals)}")
    try:
        K = CameraIntrinsics(*map(float, vals[:4]), *map(int, vals[4:]))
    except ValueError as exc:
        raise ParameterError(f"{path}: {exc}") from exc
    frames = []
    for t, pose in enumerate(load_cameras(os.path.join(seq_dir, "poses.txt"))):
        image = fileio.read_ppm(os.path.join(seq_dir, f"frame_{t:04d}.ppm"))
        dense = fileio.read_depth_map(os.path.join(seq_dir, f"frame_{t:04d}.pfm"))
        frames.append((image, dense, pose))
    return frames, K
