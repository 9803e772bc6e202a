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
import heapq
import itertools
import math

import numpy as np

from .errors import DimensionError, NumericError, ParameterError, TrainingError

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

    def zero_grad(self):
        self.grad = None

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
    sign = np.sign(x.data)
    def backward(g):
        return (g * sign,)
    return _make(np.abs(x.data), (x,), backward)


def leaky_relu(x, slope=LEAKY_SLOPE):
    x = as_tensor(x)
    factor = np.where(x.data > 0, 1.0, slope)
    def backward(g):
        return (g * factor,)
    return _make(x.data * factor, (x,), backward)


def clamp_min(x, lo):
    x = as_tensor(x)
    mask = (x.data > lo).astype(np.float64)
    def backward(g):
        return (g * mask,)
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
    idx = np.argmax(x.data, axis=axis)
    out_data = np.take_along_axis(x.data, np.expand_dims(idx, axis), axis=axis)
    if not keepdims:
        out_data = np.squeeze(out_data, axis=axis)
    def backward(g):
        gx = np.zeros_like(x.data)
        gk = g if keepdims else np.expand_dims(g, axis)
        np.put_along_axis(gx, np.expand_dims(idx, axis), gk, axis=axis)
        return (gx,)
    return _make(out_data, (x,), backward)


# -- shape manipulation ----------------------------------------------------


def reshape(x, shape):
    x = as_tensor(x)
    original = x.data.shape
    def backward(g):
        return (g.reshape(original),)
    return _make(x.data.reshape(shape), (x,), backward)


def transpose(x, axes):
    x = as_tensor(x)
    inverse = tuple(np.argsort(axes))
    def backward(g):
        return (np.transpose(g, inverse),)
    return _make(np.transpose(x.data, axes), (x,), backward)


def concat(tensors, axis):
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]
    def backward(g):
        return tuple(np.split(g, offsets, axis=axis))
    return _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward)


def getitem(x, key):
    x = as_tensor(x)
    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, key, g)  # repeated fancy indices accumulate
        return (gx,)
    return _make(x.data[key], (x,), backward)


def tile_leading(x, n):
    """Replicate ``x`` along a new leading axis of extent ``n``."""
    x = as_tensor(x)
    def backward(g):
        return (g.sum(axis=0),)
    return _make(np.broadcast_to(x.data, (n,) + x.data.shape).copy(), (x,), backward)


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
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
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
    out = np.zeros((indices.shape[1], x.data.shape[1]))
    for k in range(indices.shape[0]):
        out += weights[k][:, None] * x.data[indices[k]]
    def backward(g):
        gx = np.zeros_like(x.data)
        for k in range(indices.shape[0]):
            np.add.at(gx, indices[k], weights[k][:, None] * g)
        return (gx,)
    return _make(out, (x,), backward)


# -- convolutions ------------------------------------------------------------


def _columns(x, k, strides):
    """The k GEMM operands of a zero-padded (k-1)/2, strided correlation of a
    (C, *spatial) array, one per leading-axis kernel offset, and the output
    extents.  im2col covers the trailing axes of each padded leading-axis
    plane, stored phase by phase (plane ``q*s0 + r`` at ``[r, q]``), so the
    planes ``o, o + s0, ...`` of offset ``o`` are contiguous: a view at any stride."""
    c, spatial = x.shape[0], x.shape[1:]
    p = k // 2
    out_spatial = tuple((n - 1) // s + 1 for n, s in zip(spatial, strides))
    s0, n0, trail_out = strides[0], out_spatial[0], out_spatial[1:]
    # plane positions per phase: enough for every offset's read and the input
    q = max((k - 1) // s0 + n0, -(-(spatial[0] + 2 * p) // s0))
    xp = np.zeros((c, s0 * q) + tuple(n + 2 * p for n in spatial[1:]))
    xp[(slice(None),) + tuple(slice(p, p + n) for n in spatial)] = x
    xq = xp.reshape((c, q, s0) + xp.shape[2:]).swapaxes(1, 2)
    per_axis = [[slice(o, o + s * (n - 1) + 1, s) for o in range(k)] for s, n in zip(strides[1:], trail_out)]
    taps = list(itertools.product(*per_axis))
    cols = np.empty((c, len(taps), s0, q) + trail_out)
    for t, tap in enumerate(taps):
        cols[:, t] = xq[(slice(None),) * 3 + tap]
    cols = cols.reshape(-1, s0, q, math.prod(trail_out))
    return [cols[:, o % s0, o // s0 : o // s0 + n0].reshape(len(cols), -1) for o in range(k)], out_spatial


def _correlate(x, kernel, bias, strides):
    """``bias + sum_o W[:, :, o] @ operand(o)`` over the leading-axis kernel
    offsets ``o``: the correlation of :func:`_columns`, one product buffer."""
    cout, k, nd = kernel.shape[0], kernel.shape[2], x.ndim - 1
    operands, out_spatial = _columns(x, k, strides)
    # w[o] is the (Cout, Cin*k^(nd-1)) kernel matrix of leading offset o
    w = kernel.transpose((2, 0, 1) + tuple(range(3, 2 + nd))).reshape(k, cout, -1)
    out = w[0] @ operands[0]
    out += bias[:, None]
    wx = np.empty_like(out)
    for o in range(1, k):
        out += np.matmul(w[o], operands[o], out=wx)
    return out.reshape((cout,) + out_spatial)


def _conv(x, kernel, bias, stride, name):
    """N-d cross-correlation of a (Cin, *spatial) Tensor, zero padding
    (k-1)/2, per-axis stride.  Backward takes the kernel gradient
    ``g @ operand(o).T`` over rebuilt input columns.  The input gradient is
    the stride-1 correlation of ``g``, zero-inserted at the stride positions,
    with the flipped, channel-transposed kernel (Dumoulin & Visin,
    arXiv:1603.07285): padded (k-1)/2 on both sides, that is the exact
    adjoint.  An untracked ``x`` gets no gradient.
    """
    nd = x.data.ndim - 1
    cin, spatial = x.data.shape[0], x.data.shape[1:]
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
    out = _correlate(x.data, kernel.data, bias.data, strides)

    def backward(g):
        gm = g.reshape(cout, -1)
        # the rebuilt input columns are freed before gx's columns are built
        gk = np.stack([(gm @ a.T).reshape(cout, cin, -1) for a in _columns(x.data, k, strides)[0]], 2)
        gx = None
        if x.requires_grad:
            gz = np.zeros((cout,) + spatial)
            gz[(slice(None),) + tuple(slice(None, None, s) for s in strides)] = g
            flipped = np.flip(kernel.data, tuple(range(2, 2 + nd))).swapaxes(0, 1)
            gx = _correlate(gz, flipped, np.zeros(cin), (1,) * nd)
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

    def total_entries(self):
        return sum(p.data.size for _, p in self.items())


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
