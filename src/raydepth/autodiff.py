"""Dense float64 tensors with reverse-mode automatic differentiation.

Deliberately small: eager numpy arithmetic plus a recorded graph.  Every
operation returns a fresh :class:`Tensor`; when gradient recording is
enabled and any input is tracked, the output remembers its inputs and a
closure that maps the output gradient to input gradients.

Node ids only increase, and an op's output is created after its inputs, so
:meth:`Tensor.backward` visits nodes in decreasing id: every consumer of a
node has run before the node itself.  Each node's gradient is a running sum
of its consumers' contributions, added in the order they arrive, so one
graph always yields the same gradients.  Only leaves keep them.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, NumericError, ParameterError

LEAKY_SLOPE = 0.01

_grad_enabled = True
_node_ids = itertools.count()


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (forward-only evaluation)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """N-dimensional float64 array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "op", "nid")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.op = None  # (inputs tuple, backward closure) when recorded
        self.nid = next(_node_ids)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def detach(self):
        """A view of the same values with no graph history."""
        return Tensor(self.data)

    def backward(self):
        """Accumulate gradients of this scalar into ``grad`` of every tracked
        leaf.

        Nodes are popped in decreasing ``nid``, so a node's gradient is
        complete when its closure runs.  Intermediate nodes keep no
        gradient, untracked inputs receive none, and an untracked root does
        nothing.
        """
        if self.data.size != 1:
            raise ParameterError(
                f"backward() requires a scalar output, got shape {self.shape}"
            )
        if not self.requires_grad:
            return
        grads = {self.nid: np.ones_like(self.data)}
        heap = [(-self.nid, self)]
        while heap:
            _, node = heapq.heappop(heap)
            grad = grads.pop(node.nid)
            if node.op is None:
                node.grad = grad if node.grad is None else node.grad + grad
                continue
            inputs, backward_fn = node.op
            for parent, g in zip(inputs, backward_fn(grad)):
                if g is None or not parent.requires_grad:
                    continue
                if parent.nid in grads:
                    # out of place: one array may be handed to several inputs
                    grads[parent.nid] = grads[parent.nid] + g
                else:
                    grads[parent.nid] = g
                    heapq.heappush(heap, (-parent.nid, parent))

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 else shape[0])

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, tracked={self.requires_grad})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _make(data, inputs, backward_fn):
    out = Tensor(data)
    if _grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.op = (tuple(inputs), backward_fn)
    return out


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- elementwise ---------------------------------------------------------


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)
    return _make(a.data + b.data, (a, b), backward)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)
    return _make(a.data - b.data, (a, b), backward)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    def backward(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )
    return _make(a.data * b.data, (a, b), backward)


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    def backward(g):
        return (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        )
    return _make(a.data / b.data, (a, b), backward)


def tlog(x):
    x = as_tensor(x)
    def backward(g):
        return (g / x.data,)
    return _make(np.log(x.data), (x,), backward)


def tabs(x):
    x = as_tensor(x)
    def backward(g):
        return (g * np.sign(x.data),)
    return _make(np.abs(x.data), (x,), backward)


def leaky_relu(x):
    """``max(x, slope * x)``: for slope < 1 this is ``x * (1 if x > 0 else
    slope)`` bit for bit, signed zeros included."""
    x = as_tensor(x)
    def backward(g):
        return (g * np.where(x.data > 0, 1.0, LEAKY_SLOPE),)
    return _make(np.maximum(x.data, LEAKY_SLOPE * x.data), (x,), backward)


def clamp_min(x, lo):
    x = as_tensor(x)
    def backward(g):
        return (g * (x.data > lo).astype(np.float64),)
    return _make(np.maximum(x.data, lo), (x,), backward)


# -- reductions -----------------------------------------------------------


def tsum(x, axis=None, keepdims=False):
    x = as_tensor(x)
    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape).copy(),)
        gk = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gk, x.data.shape).copy(),)
    return _make(x.data.sum(axis=axis, keepdims=keepdims), (x,), backward)


def tmax(x, axis, keepdims=False):
    """Maximum along one axis; gradient routes to the first maximal entry."""
    x = as_tensor(x)
    def backward(g):
        idx = np.argmax(x.data, axis=axis)
        gx = np.zeros_like(x.data)
        gk = g if keepdims else np.expand_dims(g, axis)
        np.put_along_axis(gx, np.expand_dims(idx, axis), gk, axis=axis)
        return (gx,)
    return _make(x.data.max(axis=axis, keepdims=keepdims), (x,), backward)


# -- shape manipulation ----------------------------------------------------


def reshape(x, shape):
    x = as_tensor(x)
    original = x.data.shape
    def backward(g):
        return (g.reshape(original),)
    return _make(x.data.reshape(shape), (x,), backward)


def transpose(x, axes):
    x = as_tensor(x)
    def backward(g):
        return (np.transpose(g, tuple(sorted(range(len(axes)), key=axes.__getitem__))),)
    return _make(np.transpose(x.data, axes), (x,), backward)


def concat(tensors, axis):
    tensors = [as_tensor(t) for t in tensors]
    def backward(g):
        offsets = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
        return tuple(np.split(g, offsets, axis=axis))
    return _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward)


def getitem(x, key):
    x = as_tensor(x)
    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, key, g)  # repeated fancy indices accumulate
        return (gx,)
    return _make(x.data[key], (x,), backward)


def edge_pad2d(x):
    """Replicate-pad the last two axes by one entry."""
    x = as_tensor(x)
    pad = [(0, 0)] * (x.data.ndim - 2) + [(1, 1), (1, 1)]
    def backward(g):
        gx = g[..., 1:-1, 1:-1].copy()
        gx[..., 0, :] += g[..., 0, 1:-1]
        gx[..., -1, :] += g[..., -1, 1:-1]
        gx[..., :, 0] += g[..., 1:-1, 0]
        gx[..., :, -1] += g[..., 1:-1, -1]
        gx[..., 0, 0] += g[..., 0, 0]
        gx[..., 0, -1] += g[..., 0, -1]
        gx[..., -1, 0] += g[..., -1, 0]
        gx[..., -1, -1] += g[..., -1, -1]
        return (gx,)
    return _make(np.pad(x.data, pad, mode="edge"), (x,), backward)


# -- linear algebra ---------------------------------------------------------


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(
            f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            f"matmul inner extents disagree: {a.shape} vs {b.shape}"
        )
    def backward(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)
    return _make(a.data @ b.data, (a, b), backward)


def softmax_lastdim(x):
    """Stable softmax over the last axis; slices sum to 1."""
    x = as_tensor(x)
    if x.data.shape[-1] < 1:
        raise ParameterError("softmax needs at least one entry on the last axis")
    if not np.all(np.isfinite(x.data)):
        raise NumericError("softmax input contains non-finite values")
    # the row max as an elementwise maximum over the last axis: numpy's max
    # reduction is slow along a short contiguous axis
    m = x.data[..., 0].copy()
    for i in range(1, x.data.shape[-1]):
        np.maximum(m, x.data[..., i], out=m)
    y = np.subtract(x.data, m[..., None])
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - dot) * y,)
    return _make(y, (x,), backward)


def weighted_gather(x, indices, weights):
    """``out[n] = sum_k weights[k, n] * x[indices[k, n]]`` over rows of ``x``.

    ``x`` is (M, C); ``indices`` and ``weights`` are (K, N).  The sampling
    pattern is constant; only ``x`` receives a gradient.
    """
    x = as_tensor(x)
    out = np.take(x.data, indices[0], axis=0)
    out *= weights[0][:, None]
    for k in range(1, indices.shape[0]):
        rows = np.take(x.data, indices[k], axis=0)
        rows *= weights[k][:, None]
        out += rows
    def backward(g):
        gx = np.zeros_like(x.data)
        for k in range(indices.shape[0]):
            np.add.at(gx, indices[k], weights[k][:, None] * g)
        return (gx,)
    return _make(out, (x,), backward)


# -- convolutions ------------------------------------------------------------


class _Plan(NamedTuple):
    """Column layout of one correlation shape: ints, slices and tuples only."""

    padded: tuple  # shape of the zero-padded input
    interior: tuple  # where the input goes in it
    source: tuple  # the part of the input kept (a negative pad crops)
    view_shape: tuple  # (C, *trailing taps, s0, q, *trailing outputs)
    view_strides: tuple  # byte strides of that view of the padded input
    columns: tuple  # (C * trailing taps, s0, q, trailing outputs)
    offsets: tuple  # (phase, plane range) read by each leading-axis kernel offset
    out: tuple  # output extents
    phases: tuple  # adjoint, per input phase: (slices, flipped-kernel taps, extents, lo, hi)


def _axis_phases(n, k, s, lo, n_out):
    """Input phase ``r`` of a stride-``s`` axis receives only the taps
    ``t = r + lo (mod s)``: a stride-1 correlation of the output-resolution
    gradient with that flipped sub-kernel.  A phase with no taps stays zero."""
    for r in range(min(s, n)):
        tau, c = (r + lo) % s, (r + lo) // s
        taps = len(range(tau, k, s))
        if taps:
            # gx[r + s*m] = sum over u < taps of w[tau + s*u] g[m + c - u]; in
            # the flipped kernel those taps sit at first, first + s, ..., k-1-tau
            first = k - 1 - tau - s * (taps - 1)
            yield slice(r, None, s), slice(first, k, s), taps, taps - 1 - c, len(range(r, n, s)) + c - n_out


@functools.lru_cache(maxsize=256)
def _plan(shape, extents, strides, lo, hi):
    """Layout of the correlation of a (C, *spatial) array with a kernel of
    spatial ``extents`` at ``strides``, zero padded ``lo`` before and ``hi``
    after each axis, and its input gradient's stride phases."""
    c, spatial = shape[0], shape[1:]
    out = tuple((n + a + b - k) // s + 1 for n, k, s, a, b in zip(spatial, extents, strides, lo, hi))
    k0, s0, n0 = extents[0], strides[0], out[0]
    q = (k0 - 1) // s0 + n0
    padded = (c, max(s0 * q, spatial[0] + lo[0] + hi[0])) + tuple(map(sum, zip(spatial[1:], lo[1:], hi[1:])))
    kept = [n - max(-a, 0) - max(-b, 0) for n, a, b in zip(spatial, lo, hi)]
    interior = (slice(None),) + tuple(slice(max(a, 0), max(a, 0) + m) for a, m in zip(lo, kept))
    source = (slice(None),) + tuple(slice(max(-a, 0), max(-a, 0) + m) for a, m in zip(lo, kept))
    step = [8 * math.prod(padded[i + 1 :]) for i in range(len(padded))]
    view_strides = (step[0], *step[2:], step[1], s0 * step[1]) + tuple(map(math.prod, zip(strides[1:], step[2:])))
    phases = []
    for axes in itertools.product(*map(_axis_phases, spatial, extents, strides, lo, out)):
        into, taps, sub, a, b = zip(*axes)
        phases.append(((slice(None),) + into, (slice(None),) * 2 + taps, sub, a, b))
    return _Plan(
        padded, interior, source, (c, *extents[1:], s0, q, *out[1:]), view_strides,
        (c * math.prod(extents[1:]), s0, q, math.prod(out[1:])),
        tuple((o % s0, slice(o // s0, o // s0 + n0)) for o in range(k0)), out, tuple(phases),
    )


def _columns(x, plan):
    """The GEMM operands of ``plan``'s correlation of ``x``, one per
    leading-axis kernel offset.  im2col covers the trailing axes of each
    padded leading-axis plane, stored phase by phase (plane ``q*s0 + r`` at
    ``[r, q]``), so the planes ``o, o + s0, ...`` of offset ``o`` are
    contiguous: a view at any stride.  The whole matrix is one copy of one
    strided view of the padded input."""
    xp = np.zeros(plan.padded)
    xp[plan.interior] = x[plan.source]
    cols = np.ndarray(plan.view_shape, np.float64, xp, 0, plan.view_strides).copy().reshape(plan.columns)
    return [cols[:, r, planes].reshape(len(cols), -1) for r, planes in plan.offsets]


def _correlate(x, kernel, bias, plan):
    """``bias + sum_o W[:, :, o] @ operand(o)`` over the leading-axis kernel
    offsets ``o``: the correlation of :func:`_columns`, one product buffer.
    ``bias`` None adds nothing."""
    operands = _columns(x, plan)
    cout = kernel.shape[0]
    # w[o] is the (Cout, Cin*taps) kernel matrix of leading offset o
    w = kernel.transpose((2, 0, 1) + tuple(range(3, kernel.ndim))).reshape(len(operands), cout, -1)
    out = w[0] @ operands[0]
    if bias is not None:
        out += bias[:, None]
    wx = np.empty_like(out)
    for o in range(1, len(operands)):
        out += np.matmul(w[o], operands[o], out=wx)
    return out.reshape((cout,) + plan.out)


def _conv(x, kernel, bias, stride, name):
    """N-d cross-correlation of a (Cin, *spatial) Tensor, zero padding
    (k-1)/2, per-axis stride, through the layout :func:`_plan` caches per
    shape.  Backward takes the kernel gradient ``(operand(o) @ g.T).T`` over
    rebuilt input columns.  The input gradient is the exact adjoint as one
    stride-1 correlation of the output-resolution ``g`` per input phase, with
    that phase's flipped, channel-transposed sub-kernel (the sub-pixel
    decomposition: Shi et al., arXiv:1609.07009; Dumoulin & Visin,
    arXiv:1603.07285), so no zeros are multiplied; stride 1 has one phase.
    An untracked ``x`` gets no gradient.
    """
    nd = x.data.ndim - 1
    cin = x.data.shape[0]
    if kernel.data.ndim != 2 + nd:
        raise DimensionError(f"{name} kernel must have rank {2 + nd}")
    cout, k = kernel.data.shape[0], kernel.data.shape[2]
    if any(s != k for s in kernel.data.shape[2:]):
        raise DimensionError(f"{name} kernel must be square, got {kernel.shape}")
    if k % 2 != 1:
        raise ParameterError(f"{name} kernel size must be odd, got {k}")
    if kernel.data.shape[1] != cin:
        raise DimensionError(
            f"{name} channel mismatch: input has {cin}, kernel expects {kernel.data.shape[1]}"
        )
    if bias.data.shape != (cout,):
        raise DimensionError(f"{name} bias must be ({cout},), got {bias.shape}")
    strides = (stride,) * nd if isinstance(stride, int) else tuple(stride)
    pad = (k // 2,) * nd
    plan = _plan(x.data.shape, kernel.data.shape[2:], strides, pad, pad)
    out = _correlate(x.data, kernel.data, bias.data, plan)

    def backward(g):
        gm = g.reshape(cout, -1)
        # the rebuilt input columns are freed before gx's columns are built
        gk = np.stack([(a @ gm.T).T.reshape(cout, cin, -1) for a in _columns(x.data, plan)], 2)
        gx = None
        if x.requires_grad:
            flipped = np.flip(kernel.data, tuple(range(2, 2 + nd))).swapaxes(0, 1)
            gx = np.zeros(x.data.shape)
            for into, taps, extents, lo, hi in plan.phases:
                gx[into] = _correlate(g, flipped[taps], None, _plan(g.shape, extents, (1,) * nd, lo, hi))
        return gx, gk.reshape(kernel.data.shape), gm.sum(axis=1)

    return _make(out, (x, kernel, bias), backward)


def conv3d(x, kernel, bias, stride=1):
    """3-D cross-correlation over a (Cin, D, H, W) volume, zero padding
    (k-1)/2, per-axis stride 1 or 2."""
    x, kernel, bias = as_tensor(x), as_tensor(kernel), as_tensor(bias)
    if x.data.ndim != 4:
        raise DimensionError(f"conv3d input must be (Cin, D, H, W), got {x.shape}")
    return _conv(x, kernel, bias, stride, "conv3d")


def conv2d(x, kernel, bias, stride=1):
    """2-D cross-correlation over a (Cin, H, W) image, zero padding (k-1)/2."""
    x, kernel, bias = as_tensor(x), as_tensor(kernel), as_tensor(bias)
    if x.data.ndim != 3:
        raise DimensionError(f"conv2d input must be (Cin, H, W), got {x.shape}")
    return _conv(x, kernel, bias, stride, "conv2d")


def conv_transpose3d(x, kernel, bias, stride=(1, 2, 2)):
    """Transposed 3-D convolution with kernel extents equal to the stride,
    so each axis is upsampled exactly by its stride factor."""
    x, kernel, bias = as_tensor(x), as_tensor(kernel), as_tensor(bias)
    if x.data.ndim != 4:
        raise DimensionError(f"conv_transpose3d input must be rank 4, got {x.shape}")
    s = tuple(stride)
    cin, d, h, w = x.data.shape
    if kernel.data.ndim != 5 or kernel.data.shape[0] != cin or kernel.data.shape[2:] != s:
        raise DimensionError(
            f"conv_transpose3d kernel must be (Cin, Cout, {s[0]}, {s[1]}, {s[2]}), got {kernel.shape}"
        )
    cout = kernel.data.shape[1]
    if bias.data.shape != (cout,):
        raise DimensionError(f"conv_transpose3d bias must be ({cout},), got {bias.shape}")
    # each input voxel writes one disjoint (s0, s1, s2) block per output channel
    km = kernel.data.reshape(cin, -1)
    xm = x.data.reshape(cin, -1)
    blocks = (km.T @ xm).reshape(cout, *s, d, h, w)
    out = blocks.transpose(0, 4, 1, 5, 2, 6, 3).reshape(cout, d * s[0], h * s[1], w * s[2])
    out = out + bias.data[:, None, None, None]

    def backward(g):
        gm = g.reshape(cout, d, s[0], h, s[1], w, s[2]).transpose(0, 2, 4, 6, 1, 3, 5)
        gm = gm.reshape(km.shape[1], -1)
        gx = (km @ gm).reshape(x.data.shape)
        gk = (xm @ gm.T).reshape(kernel.data.shape)
        return gx, gk, g.sum(axis=(1, 2, 3))

    return _make(out, (x, kernel, bias), backward)


def avg_pool2d(x, factor):
    """Non-overlapping mean pooling of the last two axes by ``factor``."""
    x = as_tensor(x)
    f = int(factor)
    if f == 1:
        return x
    *lead, h, w = x.data.shape
    if h % f or w % f:
        raise DimensionError(f"avg_pool2d extents {h}x{w} not divisible by {f}")
    blocks = x.data.reshape(*lead, h // f, f, w // f, f)
    out = blocks.mean(axis=(-3, -1))
    def backward(g):
        gb = np.broadcast_to(
            g[..., :, None, :, None] / (f * f), (*lead, h // f, f, w // f, f)
        )
        return (gb.reshape(x.data.shape).copy(),)
    return _make(out, (x,), backward)


def upsample_nearest2d(x, factor):
    """Nearest-neighbor upsampling of the last two axes by ``factor``."""
    x = as_tensor(x)
    f = int(factor)
    if f == 1:
        return x
    out = np.repeat(np.repeat(x.data, f, axis=-2), f, axis=-1)
    *lead, h, w = x.data.shape
    def backward(g):
        return (g.reshape(*lead, h, f, w, f).sum(axis=(-3, -1)),)
    return _make(out, (x,), backward)


# -- parameters and verification ---------------------------------------------


class ParameterStore:
    """Named, deterministically ordered collection of tracked tensors."""

    def __init__(self):
        self._params = {}

    def add(self, path, value):
        if path in self._params:
            raise ParameterError(f"duplicate parameter path {path!r}")
        t = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
        self._params[path] = t
        return t

    def __getitem__(self, path):
        return self._params[path]

    def __contains__(self, path):
        return path in self._params

    def __len__(self):
        return len(self._params)

    def paths(self):
        return sorted(self._params)

    def items(self):
        for path in self.paths():
            yield path, self._params[path]

    def zero_grad(self):
        for _, p in self.items():
            p.grad = None


def uniform_init(rng, shape, fan_in, fan_out):
    """Deterministic seeded init: uniform in +-sqrt(6 / (fan_in + fan_out))."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def gradient_check_report(f, params, step=1e-5):
    """Per-parameter max relative error between reverse-mode gradients and
    central finite differences of ``f(params)``."""
    if not (1e-7 <= step <= 1e-3):
        raise ParameterError(f"finite-difference step {step} outside [1e-7, 1e-3]")
    params.zero_grad()
    out = f(params)
    if not np.isfinite(out.data).all():
        raise NumericError("function value is non-finite at the base point")
    out.backward()
    analytic = {
        path: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
        for path, p in params.items()
    }
    report = {}
    with no_grad():
        for path, p in params.items():
            flat = p.data.reshape(-1)
            ga = analytic[path].reshape(-1)
            worst = 0.0
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + step
                f_plus = float(f(params).data)
                flat[i] = saved - step
                f_minus = float(f(params).data)
                flat[i] = saved
                if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                    raise NumericError(f"non-finite value while probing {path}[{i}]")
                g_fd = (f_plus - f_minus) / (2.0 * step)
                rel = abs(ga[i] - g_fd) / max(1.0, abs(ga[i]), abs(g_fd))
                worst = max(worst, rel)
            report[path] = worst
    return report


def gradient_check(f, params, step=1e-5):
    """Maximum relative error over every parameter entry (see report variant)."""
    report = gradient_check_report(f, params, step=step)
    return max(report.values()) if report else 0.0
