"""PPM (P6) color images and PFM (Pf) depth maps.

PFM files are written single-channel, scale -1.0 (little-endian), rows
bottom-to-top.  Non-positive depth values mean invalid.
"""

from __future__ import annotations

import numpy as np

from .cost_volume import RGBImage, SparseDepthMap
from .errors import ParameterError


def write_ppm(path, image):
    data = np.clip(np.rint(image.channels * 255.0), 0, 255).astype(np.uint8)
    interleaved = np.transpose(data, (1, 2, 0)).tobytes()
    with open(path, "wb") as f:
        f.write(f"P6\n{image.width} {image.height}\n255\n".encode())
        f.write(interleaved)


def _read_token(f, path):
    tok = b""
    while True:
        ch = f.read(1)
        if not ch:
            raise ParameterError(f"{path}: unexpected end of header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = f.read(1)
            continue
        if ch.isspace():
            if tok:
                return tok
            continue
        tok += ch


def _read_header(f, path, magic, kind, last):
    """Width, height and the third header field (PPM maxval, PFM scale) of
    a file that must start with ``magic``; ``last`` parses the third."""
    if _read_token(f, path) != magic:
        raise ParameterError(f"{path} is not a {kind} file")
    try:
        width, height = int(_read_token(f, path)), int(_read_token(f, path))
        third = last(_read_token(f, path))
    except ValueError as exc:
        raise ParameterError(f"{path}: malformed header: {exc}") from exc
    return width, height, third


def read_ppm(path):
    with open(path, "rb") as f:
        width, height, maxval = _read_header(f, path, b"P6", "binary PPM (P6)", int)
        if maxval != 255:
            raise ParameterError(f"{path}: unsupported PPM maxval {maxval}")
        raw = f.read(width * height * 3)
    if len(raw) != width * height * 3:
        raise ParameterError(f"{path} is truncated")
    data = np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 3)
    channels = np.transpose(data, (2, 0, 1)).astype(np.float64) / 255.0
    return RGBImage(width, height, channels)


def write_pfm(path, data):
    arr = np.asarray(data, dtype=np.float32)
    if arr.ndim != 2:
        raise ParameterError(f"PFM writer expects a 2-D array, got shape {arr.shape}")
    height, width = arr.shape
    with open(path, "wb") as f:
        f.write(f"Pf\n{width} {height}\n-1.0\n".encode())
        f.write(np.flipud(arr).astype("<f4").tobytes())


def read_pfm(path):
    with open(path, "rb") as f:
        width, height, scale = _read_header(f, path, b"Pf", "single-channel PFM (Pf)", float)
        if not (np.isfinite(scale) and scale != 0):
            raise ParameterError(f"{path}: PFM scale must be finite and nonzero, got {scale}")
        raw = f.read(width * height * 4)
    if len(raw) != width * height * 4:
        raise ParameterError(f"{path} is truncated")
    dtype = "<f4" if scale < 0 else ">f4"
    data = np.frombuffer(raw, dtype=dtype).reshape(height, width)
    return np.flipud(data).astype(np.float64)


def read_depth_map(path):
    """Load a PFM depth file as a SparseDepthMap (values <= 0 invalid)."""
    data = read_pfm(path)
    valid = data > 0
    try:
        return SparseDepthMap(data.shape[1], data.shape[0], np.where(valid, data, 0.0), valid)
    except ValueError as exc:
        raise ParameterError(f"{path}: {exc}") from exc
