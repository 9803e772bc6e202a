"""Pinhole camera math, hypothesis depth planes, and alignment of cost
volumes across viewpoints by inverse mapping.

Pose convention is world-from-camera throughout: ``X_world = R @ X_cam + t``.
The camera frame has x right, y down, z forward (positive depth).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DimensionError, NumericError, ParameterError


@dataclass(frozen=True, eq=False)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ParameterError(f"focal lengths must be finite and positive, got {self.fx}, {self.fy}")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ParameterError(
                f"principal point ({self.cx}, {self.cy}) outside {self.width}x{self.height}"
            )


def scale_intrinsics(K, factor):
    """Intrinsics for an image downscaled by an integer factor."""
    f = int(factor)
    if K.width % f or K.height % f:
        raise DimensionError(f"image {K.width}x{K.height} not divisible by {f}")
    return CameraIntrinsics(K.fx / f, K.fy / f, K.cx / f, K.cy / f, K.width // f, K.height // f)


@dataclass(frozen=True, eq=False)
class Pose:
    """World-from-camera rigid transform."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=np.float64))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=np.float64))
        r = self.rotation
        if r.shape != (3, 3) or self.translation.shape != (3,):
            raise DimensionError("pose needs a 3x3 rotation and a 3-vector translation")
        if not (np.isfinite(r).all() and np.isfinite(self.translation).all()):
            raise NumericError("pose rotation and translation must be finite")
        if np.abs(r.T @ r - np.eye(3)).max() > 1e-9:
            raise ParameterError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ParameterError("rotation determinant is not +1 within 1e-9")

    def apply(self, points):
        """Transform (..., 3) points from camera to world coordinates."""
        return np.asarray(points) @ self.rotation.T + self.translation


@dataclass(frozen=True, eq=False)
class DepthPlaneSet:
    count: int
    d_min: float
    d_max: float
    depths: np.ndarray

    @property
    def spacing(self):
        return (self.d_max - self.d_min) / (self.count - 1)


def make_planes(count, d_min, d_max):
    """Uniformly spaced hypothesis depth planes from d_min to d_max."""
    count = int(count)
    if count < 2:
        raise ParameterError(f"need at least 2 depth planes, got {count}")
    if not (0 < d_min < d_max):
        raise ParameterError(f"need 0 < d_min < d_max, got {d_min}, {d_max}")
    step = (d_max - d_min) / (count - 1)
    depths = d_min + step * np.arange(count)
    depths[-1] = d_max
    return DepthPlaneSet(count, float(d_min), float(d_max), depths)


def backproject(u, v, depth, K):
    """Pixel coordinates (u, v) at camera depth -> camera-space points (..., 3)."""
    u, v, depth = np.broadcast_arrays(u, v, depth)
    if np.any(depth <= 0):
        raise ParameterError("backprojection needs positive depth")
    return np.stack([(u - K.cx) * depth / K.fx, (v - K.cy) * depth / K.fy, depth], axis=-1)


def project(points, K):
    """Camera-space points (..., 3) -> pixel coordinates (u, v) and whether
    each point lies in front of the camera.  Points at or behind the camera
    get finite stand-in coordinates (divided by 1, not their depth)."""
    x, y, z = np.moveaxis(np.asarray(points), -1, 0)
    in_front = z > 0
    zs = np.where(in_front, z, 1.0)
    return K.fx * x / zs + K.cx, K.fy * y / zs + K.cy, in_front


def relative_pose(current, previous):
    """Transform mapping previous-camera coordinates into current-camera
    coordinates, under the world-from-camera convention."""
    r = current.rotation.T @ previous.rotation
    t = current.rotation.T @ (previous.translation - current.translation)
    return Pose(r, t)


# Sample coordinates this close to an integer are snapped onto it.
_SNAP_TOL = 1e-9
# Offsets of a trilinear cell's lower and upper corner along one axis.
_CORNER_STEP = np.array([[0], [1]])


def _snap_integers(coords):
    rounded = np.round(coords)
    return np.where(np.abs(coords - rounded) < _SNAP_TOL, rounded, coords)


def warp_coordinates(shape, cur_to_prev, K, planes):
    """Inverse-mapping sample pattern for aligning a previous-view volume.

    For every target voxel (plane i, pixel h, w) at the current viewpoint,
    backprojects at depth d_i, transforms into the previous camera, and
    projects back, yielding 8 trilinear corner indices and weights into the
    flattened (D*H*W) source grid plus a per-voxel validity mask.  Weights
    of out-of-frustum voxels are zero (fill value 0).
    """
    d, h, w = shape
    ii, hh, ww = np.meshgrid(
        np.arange(d), np.arange(h), np.arange(w), indexing="ij"
    )
    prev = cur_to_prev.apply(backproject(ww, hh, planes.depths[ii], K).reshape(-1, 3))
    up, vp, front = project(prev, K)
    zp = prev[:, 2]
    fp = (zp - planes.d_min) / planes.spacing
    up, vp, fp = _snap_integers(up), _snap_integers(vp), _snap_integers(fp)
    valid = (
        front
        & (up >= 0) & (up <= w - 1)
        & (vp >= 0) & (vp <= h - 1)
        & (zp >= planes.d_min) & (zp <= planes.d_max)
    )

    def corners(coord, extent):
        """Lower and upper corner index along one axis, (2, n), and weights."""
        i0 = np.clip(np.floor(coord), 0, max(extent - 2, 0)).astype(np.int64)
        frac = np.clip(coord - i0, 0.0, 1.0)
        return np.minimum(i0 + _CORNER_STEP, extent - 1), np.stack([1.0 - frac, frac])

    pi, pw = corners(fp, d)
    vi, vw = corners(vp, h)
    ui, uw = corners(up, w)
    # corner k = 4*dp + 2*dv + du is entry [dp, dv, du] of a (2, 2, 2, n) grid
    n = d * h * w
    indices = np.empty((2, 2, 2, n), dtype=np.int64)
    np.add(((pi * h)[:, None] + vi[None, :])[:, :, None] * w, ui, out=indices)
    weights = np.empty((2, 2, 2, n))
    np.multiply((pw[:, None] * vw[None, :])[:, :, None], uw, out=weights)
    weights *= valid
    return indices.reshape(8, n), weights.reshape(8, n), valid.reshape(d, h, w)


def align_volume(v, cur_to_prev, K, planes):
    """Resample a cost volume from the previous viewpoint into the current
    frustum.  Differentiable w.r.t. the volume features; out-of-frustum
    voxels are zero-filled and flagged invalid."""
    from .cost_volume import CostVolume

    d, c, h, w = v.features.shape
    if (K.width, K.height) != (w, h):
        raise DimensionError(
            f"intrinsics resolution {K.width}x{K.height} does not match volume {w}x{h}"
        )
    if planes.count != d:
        raise DimensionError(f"volume has {d} planes but plane set has {planes.count}")
    indices, weights, valid = warp_coordinates((d, h, w), cur_to_prev, K, planes)
    flat = ad.reshape(ad.transpose(v.features, (0, 2, 3, 1)), (d * h * w, c))
    gathered = ad.weighted_gather(flat, indices, weights)
    out = ad.transpose(ad.reshape(gathered, (d, h, w, c)), (0, 3, 1, 2))
    return CostVolume(planes=planes, features=out, validity=valid)


# -- pose text format ---------------------------------------------------------
# One world-from-camera pose per line: 9 rotation entries (row-major), then
# 3 translation entries, whitespace-separated.


def save_cameras(path, poses):
    with open(path, "w") as f:
        for pose in poses:
            vals = [*pose.rotation.reshape(-1), *pose.translation]
            f.write(" ".join(f"{v:.17g}" for v in vals) + "\n")


def load_cameras(path):
    poses = []
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                vals = [float(tok) for tok in line.split()]
                if len(vals) != 12:
                    raise ParameterError(f"expected 12 values per pose line, got {len(vals)}")
                poses.append(Pose(np.array(vals[:9]).reshape(3, 3), np.array(vals[9:])))
            except ValueError as exc:
                raise ParameterError(f"{path}:{line_no}: {exc}") from exc
    return poses
