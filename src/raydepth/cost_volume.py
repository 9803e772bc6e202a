"""Per-frame RGB-D feature volumes: occupancy and depth-residual grids from
sparse samples, multi-scale image features, and a small 3-D U-Net encoder
that turns the stacked feature volume into a cost volume."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, leaky_relu, uniform_init
from .errors import DimensionError, NumericError, ParameterError
from .geometry import DepthPlaneSet


@dataclass(eq=False)
class SparseDepthMap:
    width: int
    height: int
    depth: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        self.depth = np.asarray(self.depth, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.depth.shape != (self.height, self.width) or self.valid.shape != self.depth.shape:
            raise DimensionError(
                f"depth map arrays must be {self.height}x{self.width}, got {self.depth.shape}"
            )
        if not np.isfinite(self.depth[self.valid]).all():
            raise NumericError("valid depth entries must be finite")
        if np.any(self.depth[self.valid] <= 0):
            raise ParameterError("valid depth entries must be positive")
        self.depth = np.where(self.valid, self.depth, 0.0)

    @property
    def valid_count(self):
        return int(self.valid.sum())


@dataclass(eq=False)
class RGBImage:
    width: int
    height: int
    channels: np.ndarray

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=np.float64)
        if self.channels.shape != (3, self.height, self.width):
            raise DimensionError(
                f"image must be (3, {self.height}, {self.width}), got {self.channels.shape}"
            )
        if not np.isfinite(self.channels).all():
            raise NumericError("image values must be finite")
        if self.channels.min() < 0.0 or self.channels.max() > 1.0:
            raise ParameterError("image values must lie in [0, 1]")


@dataclass(eq=False)
class CostVolume:
    planes: DepthPlaneSet
    features: Tensor
    validity: np.ndarray | None = None

    def __post_init__(self):
        if self.features.ndim != 4:
            raise DimensionError(f"cost volume must be (D, C, H, W), got {self.features.shape}")
        if self.features.shape[0] != self.planes.count:
            raise DimensionError(
                f"volume has {self.features.shape[0]} planes, plane set has {self.planes.count}"
            )
        if not np.isfinite(self.features.data).all():
            raise NumericError("cost volume features contain non-finite values")

    @property
    def shape(self):
        return self.features.shape


def downsample_sparse(s, factor):
    """Sparse map at volume resolution: per-cell nearest (minimum) valid depth."""
    f = int(factor)
    if f == 1:
        return s
    if s.height % f or s.width % f:
        raise DimensionError(f"sparse map {s.width}x{s.height} not divisible by {f}")
    h, w = s.height // f, s.width // f
    cells_d = s.depth.reshape(h, f, w, f)
    cells_v = s.valid.reshape(h, f, w, f)
    big = np.where(cells_v, cells_d, np.inf)
    best = big.min(axis=(1, 3))
    valid = cells_v.any(axis=(1, 3))
    return SparseDepthMap(w, h, np.where(valid, best, 0.0), valid)


def build_occupancy_volume(s, planes):
    """One-hot plane occupancy per valid pixel; ties go to the lower plane."""
    dist = np.abs(s.depth[None, :, :] - planes.depths[:, None, None])
    nearest = np.argmin(dist, axis=0)
    occ = (np.arange(planes.count)[:, None, None] == nearest) & s.valid
    return Tensor(occ[:, None])


def build_residual_volume(s, planes):
    """Per-plane signed depth residual, normalized to the plane span."""
    res = (s.depth[None, :, :] - planes.depths[:, None, None]) / (planes.d_max - planes.d_min)
    res = res * s.valid[None, :, :]
    return Tensor(res[:, None, :, :])


# -- multi-scale image encoder ------------------------------------------------


def add_image_encoder_params(store, rng, widths):
    """2-D conv stack producing features at full, 1/2, and 1/4 scale."""
    chain = [3] + list(widths)
    for i in range(3):
        cin, cout = chain[i], chain[i + 1]
        store.add(f"encoder.scale{i}.weight", uniform_init(rng, (cout, cin, 3, 3), cin * 9, cout * 9))
        store.add(f"encoder.scale{i}.bias", np.zeros(cout))


def extract_image_features(img, params, widths, downscale):
    """Image features at volume resolution: three encoder scales, each
    pooled or replicated to 1/downscale and channel-concatenated."""
    if img.width % 4 or img.height % 4 or img.width % downscale or img.height % downscale:
        raise DimensionError(
            f"image {img.width}x{img.height} must be divisible by 4 and by {downscale}"
        )
    x = Tensor(img.channels)
    scales = []
    for i in range(3):
        stride = 1 if i == 0 else 2
        x = leaky_relu(
            ad.conv2d(x, params[f"encoder.scale{i}.weight"], params[f"encoder.scale{i}.bias"], stride=stride)
        )
        scales.append(x)
    aligned = []
    for i, feat in enumerate(scales):
        have = 2**i
        if downscale >= have:
            aligned.append(ad.avg_pool2d(feat, downscale // have))
        else:
            aligned.append(ad.upsample_nearest2d(feat, have // downscale))
    return ad.concat(aligned, axis=0)


def assemble_feature_volume(vo, vr, vi):
    """The (D, 2, H, W) occupancy and residual volume, and the (C, H, W)
    image features, which are the same on every plane and stay untiled."""
    if vo.shape[2:] != vr.shape[2:] or vo.shape[2:] != vi.shape[1:]:
        raise DimensionError(
            f"spatial extents disagree: occupancy {vo.shape}, residual {vr.shape}, image {vi.shape}"
        )
    return ad.concat([vo, vr], axis=1), vi


# -- 3-D U-Net encoder ---------------------------------------------------------


def add_unet_params(store, rng, cin, channels):
    c, c2 = channels, 2 * channels

    def conv(name, ci, co, k=3):
        store.add(f"unet.{name}.weight", uniform_init(rng, (co, ci, k, k, k), ci * k**3, co * k**3))
        store.add(f"unet.{name}.bias", np.zeros(co))

    def up(name, ci, co):
        store.add(f"unet.{name}.weight", uniform_init(rng, (ci, co, 1, 2, 2), ci * 4, co * 4))
        store.add(f"unet.{name}.bias", np.zeros(co))

    conv("enc0", cin, c)
    conv("enc1", c, c2)
    conv("enc2", c2, c2)
    conv("mid", c2, c2)
    up("up1", c2, c2)
    up("up0", c2, c)
    conv("out", c, c)


def first_layer(sparse, image, weight, bias):
    """The U-Net's first layer, ``conv3d`` over the sparse channels stacked
    with the image channels tiled over every plane, computed without tiling.

    The image part of plane ``d`` is a 2-D correlation with the sum of the
    depth taps that land inside the volume, so the planes fall into classes
    by the taps they take (first, interior and last plane for k = 3); one
    ``conv2d`` computes every class's map and each plane adds its class's
    map to the sparse channels' conv3d.
    ``sparse`` is (Cs, D, H, W), ``image`` (Ci, H, W) and ``weight``
    (Cout, Cs + Ci, k, k, k), with the sparse channels first.
    """
    cs, d = sparse.shape[:2]
    cout, k = weight.shape[0], weight.shape[2]
    taps = [range(max(0, k // 2 - i), min(k, d + k // 2 - i)) for i in range(d)]
    classes = list(dict.fromkeys(taps))
    kernels = ad.concat([weight[:, cs:, t.start : t.stop].sum(axis=2) for t in classes], axis=0)
    maps = ad.conv2d(image, kernels, np.zeros(len(classes) * cout))
    maps = maps.reshape(len(classes), cout, *image.shape[1:])[[classes.index(t) for t in taps]]
    return ad.conv3d(sparse, weight[:, :cs], bias) + ad.transpose(maps, (1, 0, 2, 3))


def encode_cost_volume(sparse, image, params, planes):
    """Two-level 3-D U-Net over the (D, Cs, H', W') sparse volume stacked
    with the (Ci, H', W') image features on every plane.

    Downsampling acts on the image axes only, so the plane count is
    unconstrained; H' and W' must be divisible by 4.
    """
    h, w = sparse.shape[2:]
    if h % 4 or w % 4:
        raise DimensionError(f"volume extents {h}x{w} must be divisible by 4")
    if image.shape[1:] != (h, w):
        raise DimensionError(f"image features {image.shape} do not match volume {sparse.shape}")

    def conv(x, name, stride=1):
        return ad.conv3d(x, params[f"unet.{name}.weight"], params[f"unet.{name}.bias"], stride=stride)

    def up(x, name):
        return ad.conv_transpose3d(x, params[f"unet.{name}.weight"], params[f"unet.{name}.bias"])

    x = ad.transpose(sparse, (1, 0, 2, 3))
    h0 = leaky_relu(first_layer(x, image, params["unet.enc0.weight"], params["unet.enc0.bias"]))
    h1 = leaky_relu(conv(h0, "enc1", stride=(1, 2, 2)))
    h2 = leaky_relu(conv(h1, "enc2", stride=(1, 2, 2)))
    mid = leaky_relu(conv(h2, "mid"))
    u1 = leaky_relu(up(mid, "up1") + h1)
    u0 = leaky_relu(up(u1, "up0") + h0)
    out = conv(u0, "out")
    return CostVolume(planes=planes, features=ad.transpose(out, (1, 0, 2, 3)))
