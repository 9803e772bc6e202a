"""Tensor engine tests: forward values against hand oracles, every backward
against central finite differences, and graph-order determinism."""

import math
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raydepth import autodiff as ad
from raydepth.errors import DimensionError, NumericError, ParameterError


def fd_check(build, arrays, step=1e-5):
    """Max relative error of reverse-mode grads vs central differences.

    ``build`` maps a ParameterStore to a scalar Tensor; ``arrays`` seeds the
    store.  This is the module's independent oracle.
    """
    store = ad.ParameterStore()
    for name, arr in arrays.items():
        store.add(name, arr)
    return ad.gradient_check(build, store, step=step)


def direct_correlation(x, kernel, bias, stride):
    """Nested-loop zero-padded cross-correlation: the convolutions' oracle."""
    nd, k = x.ndim - 1, kernel.shape[-1]
    strides = (stride,) * nd if isinstance(stride, int) else stride
    xp = np.pad(x, [(0, 0)] + [(k // 2, k // 2)] * nd)
    starts = [range(0, n, s) for n, s in zip(x.shape[1:], strides)]
    out = np.empty((kernel.shape[0],) + tuple(len(r) for r in starts))
    for o in range(kernel.shape[0]):
        for idx in np.ndindex(*out.shape[1:]):
            window = tuple(slice(r[i], r[i] + k) for r, i in zip(starts, idx))
            out[(o,) + idx] = (xp[(slice(None),) + window] * kernel[o]).sum() + bias[o]
    return out


def adjoint_oracle(shape, kernel, stride, g):
    """``A^T g``, with the convolution's matrix ``A`` built column by column
    from the direct-correlation oracle."""
    zero_bias = np.zeros(kernel.shape[0])
    a = np.stack(
        [direct_correlation(e.reshape(shape), kernel, zero_bias, stride).ravel() for e in np.eye(math.prod(shape))],
        axis=1,
    )
    return (a.T @ g.ravel()).reshape(shape)


def plan_leaves(node):
    """Types of the non-tuple values nested in a convolution plan."""
    if isinstance(node, tuple):
        return set().union(*map(plan_leaves, node))
    return {type(node)}


def cotangent_fd_check(op, arrays, seed, **kwargs):
    """FD check of ``(op(x, k, b) * w).sum()`` for a random cotangent ``w``:
    unlike a plain sum, it weighs every output entry differently."""
    probe = op(ad.Tensor(arrays["x"]), ad.Tensor(arrays["k"]), ad.Tensor(arrays["b"]), **kwargs)
    w = np.random.default_rng(seed).normal(size=probe.shape)
    return fd_check(lambda s: (op(s["x"], s["k"], s["b"], **kwargs) * w).sum(), arrays)


class TestMatmul:
    def test_identity_passthrough(self):
        a = ad.Tensor([[1.5, -2.0], [0.25, 3.0]])
        out = ad.matmul(ad.Tensor(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_hand_dot_product(self):
        # oracle: [[1,2],[3,4]] . [[0],[1]] -> rows dot column = [[2],[4]]
        out = ad.matmul(ad.Tensor([[1.0, 2.0], [3.0, 4.0]]), ad.Tensor([[0.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[2.0], [4.0]])

    def test_zero_annihilates(self):
        a = ad.Tensor(np.random.default_rng(0).normal(size=(3, 3)))
        out = ad.matmul(ad.Tensor(np.zeros((3, 3))), a)
        np.testing.assert_array_equal(out.data, np.zeros((3, 3)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 2))))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        arrays = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=(3, 5))}
        err = fd_check(lambda s: ad.matmul(s["a"], s["b"]).sum(), arrays)
        assert err < 1e-4

    def test_batched_gradients(self):
        rng = np.random.default_rng(2)
        arrays = {"a": rng.normal(size=(6, 4, 3)), "b": rng.normal(size=(3, 2))}
        err = fd_check(lambda s: ad.matmul(s["a"], s["b"]).sum(), arrays)
        assert err < 1e-4


class TestSoftmax:
    def test_uniform_logits(self):
        out = ad.softmax_lastdim(ad.Tensor([0.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, 0.25, atol=1e-15)

    def test_closed_form_two_entries(self):
        # oracle: softmax(0, ln 2) = (1, 2) / 3
        out = ad.softmax_lastdim(ad.Tensor([0.0, np.log(2.0)]))
        np.testing.assert_allclose(out.data, [1.0 / 3.0, 2.0 / 3.0], atol=1e-15)

    def test_max_subtraction_avoids_overflow(self):
        out = ad.softmax_lastdim(ad.Tensor([1000.0, 0.0]))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)
        assert np.isfinite(out.data).all()

    def test_nonfinite_input_rejected(self):
        with pytest.raises(NumericError):
            ad.softmax_lastdim(ad.Tensor([np.inf, 0.0]))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = ad.softmax_lastdim(ad.Tensor(rng.normal(size=(5, 7)) * 10))
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_permutation_equivariance(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) * 5
        perm = rng.permutation(n)
        direct = ad.softmax_lastdim(ad.Tensor(x[perm])).data
        permuted = ad.softmax_lastdim(ad.Tensor(x)).data[perm]
        # equal up to the rounding of the permuted denominator sum
        np.testing.assert_allclose(direct, permuted, rtol=1e-14, atol=0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        arrays = {"x": rng.normal(size=(3, 6))}
        weights = rng.normal(size=(3, 6))
        err = fd_check(
            lambda s: (ad.softmax_lastdim(s["x"]) * weights).sum(), arrays
        )
        assert err < 1e-4


class TestConv3d:
    def test_centered_delta_kernel_is_identity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 3, 4, 5))
        k = np.zeros((1, 1, 3, 3, 3))
        k[0, 0, 1, 1, 1] = 1.0
        out = ad.conv3d(ad.Tensor(x), ad.Tensor(k), ad.Tensor([0.0]))
        np.testing.assert_allclose(out.data, x, atol=1e-15)

    def test_zero_kernel_gives_bias(self):
        x = ad.Tensor(np.random.default_rng(6).normal(size=(2, 2, 2, 2)))
        out = ad.conv3d(x, ad.Tensor(np.zeros((3, 2, 3, 3, 3))), ad.Tensor([1.0, -2.0, 0.5]))
        for c, b in enumerate([1.0, -2.0, 0.5]):
            np.testing.assert_array_equal(out.data[c], np.full((2, 2, 2), b))

    def test_ones_kernel_hand_convolution(self):
        # oracle by hand with zero padding: neighbors of (1,2,3) along W
        x = ad.Tensor(np.array([1.0, 2.0, 3.0]).reshape(1, 1, 1, 3))
        out = ad.conv3d(x, ad.Tensor(np.ones((1, 1, 3, 3, 3))), ad.Tensor([0.0]))
        np.testing.assert_allclose(out.data.reshape(3), [3.0, 6.0, 5.0], atol=1e-15)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError, match="channel"):
            ad.conv3d(
                ad.Tensor(np.zeros((2, 2, 2, 2))),
                ad.Tensor(np.zeros((1, 3, 3, 3, 3))),
                ad.Tensor([0.0]),
            )

    def test_even_kernel_rejected(self):
        with pytest.raises(ParameterError):
            ad.conv3d(
                ad.Tensor(np.zeros((1, 2, 2, 2))),
                ad.Tensor(np.zeros((1, 1, 2, 2, 2))),
                ad.Tensor([0.0]),
            )

    @pytest.mark.parametrize("stride", [1, (1, 2, 2), 2])
    def test_gradients_match_finite_differences(self, stride):
        rng = np.random.default_rng(7)
        arrays = {
            "x": rng.normal(size=(2, 3, 5, 7)),
            "k": rng.normal(size=(3, 2, 3, 3, 3)) * 0.3,
            "b": rng.normal(size=3),
        }
        assert cotangent_fd_check(ad.conv3d, arrays, 70, stride=stride) < 1e-4

    @pytest.mark.parametrize("stride", [1, 2, (1, 2, 2), (2, 1, 2)])
    @pytest.mark.parametrize(
        "shape,k", [((2, 3, 5, 7), 3), ((1, 4, 4, 4), 3), ((3, 2, 3, 6), 5), ((2, 3, 4, 5), 1)]
    )
    def test_matches_direct_correlation(self, shape, k, stride):
        rng = np.random.default_rng(sum(shape) + k)
        x = rng.normal(size=shape)
        kernel = rng.normal(size=(2, shape[0], k, k, k))
        bias = rng.normal(size=2)
        out = ad.conv3d(ad.Tensor(x), ad.Tensor(kernel), ad.Tensor(bias), stride=stride)
        np.testing.assert_allclose(out.data, direct_correlation(x, kernel, bias, stride), rtol=1e-12, atol=1e-12)

    def test_stride2_output_shape(self):
        out = ad.conv3d(
            ad.Tensor(np.zeros((1, 4, 6, 8))),
            ad.Tensor(np.zeros((1, 1, 3, 3, 3))),
            ad.Tensor([0.0]),
            stride=(1, 2, 2),
        )
        assert out.shape == (1, 4, 3, 4)


class TestConv2dAndResampling:
    def test_conv2d_gradients(self):
        rng = np.random.default_rng(8)
        arrays = {
            "x": rng.normal(size=(2, 6, 5)),
            "k": rng.normal(size=(3, 2, 3, 3)) * 0.3,
            "b": rng.normal(size=3),
        }
        for stride in (1, 2):
            assert cotangent_fd_check(ad.conv2d, arrays, 80 + stride, stride=stride) < 1e-4

    @pytest.mark.parametrize("stride", [1, 2, (1, 2), (2, 1)])
    @pytest.mark.parametrize("shape,k", [((2, 5, 7), 3), ((3, 6, 5), 3), ((1, 4, 9), 5), ((2, 4, 5), 1)])
    def test_conv2d_matches_direct_correlation(self, shape, k, stride):
        rng = np.random.default_rng(sum(shape) + k)
        x = rng.normal(size=shape)
        kernel = rng.normal(size=(3, shape[0], k, k))
        bias = rng.normal(size=3)
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(kernel), ad.Tensor(bias), stride=stride)
        np.testing.assert_allclose(out.data, direct_correlation(x, kernel, bias, stride), rtol=1e-12, atol=1e-12)

    def test_conv2d_rank2_kernel_rejected(self):
        with pytest.raises(DimensionError, match="rank 4"):
            ad.conv2d(ad.Tensor(np.zeros((2, 4, 4))), ad.Tensor(np.zeros((3, 2))), ad.Tensor(np.zeros(3)))

    def test_conv_transpose3d_doubles_extents(self):
        rng = np.random.default_rng(9)
        out = ad.conv_transpose3d(
            ad.Tensor(rng.normal(size=(2, 3, 2, 2))),
            ad.Tensor(rng.normal(size=(2, 4, 1, 2, 2))),
            ad.Tensor(np.zeros(4)),
            stride=(1, 2, 2),
        )
        assert out.shape == (4, 3, 4, 4)

    def test_conv_transpose3d_gradients(self):
        rng = np.random.default_rng(10)
        arrays = {
            "x": rng.normal(size=(2, 2, 2, 3)),
            "k": rng.normal(size=(2, 3, 1, 2, 2)),
            "b": rng.normal(size=3),
        }
        assert cotangent_fd_check(ad.conv_transpose3d, arrays, 100) < 1e-4

    def test_avg_pool_and_upsample_roundtrip_constant(self):
        x = ad.Tensor(np.full((2, 4, 4), 3.25))
        pooled = ad.avg_pool2d(x, 2)
        np.testing.assert_array_equal(pooled.data, np.full((2, 2, 2), 3.25))
        up = ad.upsample_nearest2d(pooled, 2)
        np.testing.assert_array_equal(up.data, x.data)

    def test_pool_upsample_gradients(self):
        rng = np.random.default_rng(11)
        arrays = {"x": rng.normal(size=(2, 4, 6))}
        w = rng.normal(size=(2, 2, 3))
        err = fd_check(lambda s: (ad.avg_pool2d(s["x"], 2) * w).sum(), arrays)
        assert err < 1e-4
        w2 = rng.normal(size=(2, 8, 12))
        err = fd_check(lambda s: (ad.upsample_nearest2d(s["x"], 2) * w2).sum(), arrays)
        assert err < 1e-4


CONV_CASES = [
    (ad.conv3d, shape, k, stride)
    for stride in [1, 2, (1, 2, 2), (2, 1, 2)]
    for shape, k in [((2, 3, 5, 7), 3), ((1, 4, 4, 4), 3), ((3, 2, 3, 6), 5)]
] + [
    (ad.conv2d, shape, k, stride)
    for stride in [1, 2, (1, 2), (2, 1)]
    for shape, k in [((2, 5, 7), 3), ((3, 6, 5), 3), ((1, 4, 9), 5)]
] + [
    # k = 1: no padding
    (op, shape, 1, stride)
    for op, shape in [(ad.conv3d, (2, 3, 4, 5)), (ad.conv2d, (2, 4, 5))]
    for stride in [1, 2]
]


class TestConvAdjoint:
    """Convolution is bilinear, so with ``y = conv(x, kernel) - bias`` and a
    cotangent ``g``, the backward's gradients satisfy ``<y, g> = <x, gx> =
    <kernel, gk>`` exactly, up to rounding: a check far tighter than the
    finite-difference tolerance of 1e-4."""

    @pytest.mark.parametrize("op,shape,k,stride", CONV_CASES)
    def test_exact_adjoint(self, op, shape, k, stride):
        rng = np.random.default_rng(sum(shape) + 10 * k)
        nd = len(shape) - 1
        x = ad.Tensor(rng.normal(size=shape), requires_grad=True)
        kernel = ad.Tensor(rng.normal(size=(2, shape[0]) + (k,) * nd), requires_grad=True)
        bias = ad.Tensor(rng.normal(size=2), requires_grad=True)
        y = op(x, kernel, bias, stride=stride)
        g = rng.normal(size=y.shape)
        (y * g).sum().backward()
        lhs = np.vdot(y.data - bias.data.reshape((2,) + (1,) * nd), g)
        np.testing.assert_allclose(np.vdot(x.data, x.grad), lhs, rtol=1e-12, atol=0)
        np.testing.assert_allclose(np.vdot(kernel.data, kernel.grad), lhs, rtol=1e-12, atol=0)
        np.testing.assert_allclose(bias.grad, g.reshape(2, -1).sum(axis=1), rtol=1e-12)

    @pytest.mark.parametrize("op,shape,k,stride", CONV_CASES)
    def test_input_gradient_entrywise(self, op, shape, k, stride):
        """``x.grad == A^T g`` entry by entry, with the convolution's matrix
        ``A`` built column by column from the direct-correlation oracle."""
        rng = np.random.default_rng(sum(shape) + 20 * k)
        nd = len(shape) - 1
        x = ad.Tensor(rng.normal(size=shape), requires_grad=True)
        kernel = rng.normal(size=(2, shape[0]) + (k,) * nd)
        y = op(x, ad.Tensor(kernel), ad.Tensor(np.zeros(2)), stride=stride)
        g = rng.normal(size=y.shape)
        (y * g).sum().backward()
        np.testing.assert_allclose(x.grad, adjoint_oracle(shape, kernel, stride, g), rtol=1e-12, atol=0)

    def test_plan_cache_keys(self):
        """One input shape per op, with kernel extents and strides alternating
        over two rounds, so the second round reads every layout back from the
        plan cache between calls of other layouts on the same shape."""
        cases = [
            (op, shape, k, stride)
            for op, shape, strides in [
                # stride 3 gives phases whose correlation crops g (a negative pad)
                (ad.conv3d, (2, 3, 4, 5), [1, 2, (1, 2, 2), (2, 1, 2), 3]),
                (ad.conv2d, (2, 5, 6), [1, 2, (1, 2), (2, 1), 3]),
            ]
            for stride in strides
            for k in [1, 3, 5]
        ]
        rng = np.random.default_rng(31)
        oracles = []
        for op, shape, k, stride in cases:
            x, kernel = rng.normal(size=shape), rng.normal(size=(2, shape[0]) + (k,) * (len(shape) - 1))
            y = direct_correlation(x, kernel, np.zeros(2), stride)
            g = rng.normal(size=y.shape)
            oracles.append((x, kernel, y, g, adjoint_oracle(shape, kernel, stride, g)))
        for i in [*range(len(cases)), *reversed(range(len(cases)))]:
            (op, shape, k, stride), (x, kernel, expected_y, g, expected_gx) = cases[i], oracles[i]
            xt = ad.Tensor(x, requires_grad=True)
            y = op(xt, ad.Tensor(kernel), ad.Tensor(np.zeros(2)), stride=stride)
            np.testing.assert_allclose(y.data, expected_y, rtol=1e-12, atol=1e-12)
            (y * g).sum().backward()
            np.testing.assert_allclose(xt.grad, expected_gx, rtol=1e-12, atol=0)
            nd = len(shape) - 1
            strides = (stride,) * nd if isinstance(stride, int) else stride
            plan = ad._plan(shape, (k,) * nd, strides, (k // 2,) * nd, (k // 2,) * nd)
            assert plan_leaves(plan) <= {int, slice}
        info = ad._plan.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
        assert info.hits > 0

    @pytest.mark.parametrize("op,shape,stride", [(ad.conv2d, (3, 6, 5), 2), (ad.conv3d, (2, 3, 5, 7), (1, 2, 2))])
    def test_untracked_input_gets_no_gradient(self, op, shape, stride):
        rng = np.random.default_rng(13)
        x = rng.normal(size=shape)
        kernel = ad.Tensor(rng.normal(size=(2, shape[0]) + (3,) * (len(shape) - 1)), requires_grad=True)
        bias = ad.Tensor(rng.normal(size=2), requires_grad=True)
        tracked = op(ad.Tensor(x, requires_grad=True), kernel, bias, stride=stride)
        untracked = op(ad.Tensor(x), kernel, bias, stride=stride)
        g = rng.normal(size=tracked.shape)
        gx, gk, gb = untracked.op[1](g)
        tracked_gx, tracked_gk, tracked_gb = tracked.op[1](g)
        assert gx is None and tracked_gx is not None
        np.testing.assert_array_equal(gk, tracked_gk)
        np.testing.assert_array_equal(gb, tracked_gb)


class TestConvMemory:
    """Traced allocation peaks of a 16->16, k=3 conv3d on a (16, 16, 24, 32)
    input, in multiples of the input's bytes.  The column matrix covers the
    k^2 trailing taps of each plane (9 planes' worth of the input), not all
    k^3 taps."""

    def setup_method(self):
        rng = np.random.default_rng(11)
        self.x = ad.Tensor(rng.normal(size=(16, 16, 24, 32)), requires_grad=True)
        self.kernel = ad.Tensor(rng.normal(size=(16, 16, 3, 3, 3)), requires_grad=True)
        self.bias = ad.Tensor(rng.normal(size=16), requires_grad=True)

    def _traced_peak(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / self.x.data.nbytes
        finally:
            tracemalloc.stop()

    def test_forward_peak(self):
        def forward():
            with ad.no_grad():
                ad.conv3d(self.x, self.kernel, self.bias)
        assert self._traced_peak(forward) < 16

    def test_backward_peak(self):
        y = ad.conv3d(self.x, self.kernel, self.bias)
        g = np.random.default_rng(12).normal(size=y.shape)
        backward_fn = y.op[1]
        assert self._traced_peak(lambda: backward_fn(g)) < 22

    def test_strided_backward_peak(self):
        """16->32 at stride (1, 2, 2): one stride-1 correlation of ``g`` per
        input phase, at ``g``'s resolution, with no zero-inserted copy."""
        rng = np.random.default_rng(13)
        kernel = ad.Tensor(rng.normal(size=(32, 16, 3, 3, 3)), requires_grad=True)
        bias = ad.Tensor(rng.normal(size=32), requires_grad=True)
        y = ad.conv3d(self.x, kernel, bias, stride=(1, 2, 2))
        g = rng.normal(size=y.shape)
        backward_fn = y.op[1]
        assert self._traced_peak(lambda: backward_fn(g)) < 6


class TestElementwiseAndShape:
    @pytest.mark.parametrize(
        "name,build",
        [
            ("log", lambda s: ad.tlog(s["x"] * s["x"] + 1.0).sum()),
            ("abs", lambda s: ad.tabs(s["x"]).sum()),
            ("leaky", lambda s: ad.leaky_relu(s["x"]).sum()),
            ("max", lambda s: ad.tmax(s["x"], axis=0).sum()),
            ("div", lambda s: (s["x"] / (s["x"] * s["x"] + 2.0)).sum()),
            ("slice", lambda s: (s["x"][1:, :2] * 3.0).sum()),
            ("pad_edge", lambda s: ad.edge_pad2d(s["x"]).sum()),
        ],
    )
    def test_gradients(self, name, build):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        arrays = {"x": rng.normal(size=(3, 4)) + 0.1}
        assert fd_check(build, arrays) < 1e-4

    def test_concat_transpose_gradients(self):
        rng = np.random.default_rng(12)
        arrays = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(2, 2))}
        err = fd_check(
            lambda s: ad.concat([s["a"], s["b"]], axis=1).sum()
            + ad.transpose(s["a"], (1, 0)).sum(),
            arrays,
        )
        assert err < 1e-4

    def test_weighted_gather_gradients(self):
        rng = np.random.default_rng(13)
        idx = rng.integers(0, 5, size=(4, 7))
        w = rng.normal(size=(4, 7))
        arrays = {"x": rng.normal(size=(5, 3))}
        err = fd_check(lambda s: ad.weighted_gather(s["x"], idx, w).sum(), arrays)
        assert err < 1e-4

    def test_repeated_fancy_index_accumulates(self):
        x = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
        x[[0, 0, 2]].sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 0.0, 1.0])

    @given(
        st.integers(min_value=1, max_value=8).flatmap(
            lambda n: st.tuples(
                st.just(n), st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=20)
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_fancy_index_gradient_counts_hits(self, case):
        n, idx = case
        x = ad.Tensor(np.zeros(n), requires_grad=True)
        x[np.array(idx)].sum().backward()
        np.testing.assert_array_equal(x.grad, np.bincount(idx, minlength=n))

    def test_edge_pad_values(self):
        x = ad.Tensor(np.arange(6.0).reshape(2, 3))
        out = ad.edge_pad2d(x)
        np.testing.assert_array_equal(out.data[0], [0, 0, 1, 2, 2])
        np.testing.assert_array_equal(out.data[-1], [3, 3, 4, 5, 5])


def assert_bitwise(got, want):
    """Same shape and the same 64 bits in every entry (signed zeros differ)."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestForwardFormulas:
    """Each forward against the numpy formula it replaced, bit for bit."""

    @staticmethod
    def softmax_formula(x):
        y = np.subtract(x, x.max(axis=-1, keepdims=True))
        np.exp(y, out=y)
        y /= y.sum(axis=-1, keepdims=True)
        return y

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: rng.normal(size=(5, 7)) * 10,
            lambda rng: rng.normal(size=(6, 4, 16)) * 30,
            # a transposed, non-contiguous input, as regression passes it
            lambda rng: rng.normal(size=(16, 6, 5)).transpose(1, 2, 0) * 10,
            lambda rng: rng.normal(size=(3, 4, 1)),
            lambda rng: np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [1e300, -1e300, 0.0]]),
            lambda rng: rng.integers(-2, 3, size=(8, 9)).astype(np.float64),
        ],
        ids=["rows", "attention", "transposed", "length-1", "zeros-and-extremes", "ties"],
    )
    def test_softmax_matches_max_reduction_form(self, make):
        x = make(np.random.default_rng(40))
        assert_bitwise(ad.softmax_lastdim(ad.Tensor(x)).data, self.softmax_formula(x))

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_tmax_matches_argmax_take_with_ties(self, axis, keepdims):
        rng = np.random.default_rng(41)
        x = rng.integers(0, 3, size=(5, 4, 6)).astype(np.float64)  # many ties
        x[1, 2, :] = 7.0  # a whole tied row
        idx = np.expand_dims(np.argmax(x, axis=axis), axis)
        want = np.take_along_axis(x, idx, axis=axis)
        t = ad.Tensor(x, requires_grad=True)
        out = ad.tmax(t, axis=axis, keepdims=keepdims)
        assert_bitwise(out.data, want if keepdims else np.squeeze(want, axis))
        out.sum().backward()
        # each slice's gradient goes to its first maximal entry only
        expected = np.zeros_like(x)
        np.put_along_axis(expected, idx, 1.0, axis=axis)
        assert_bitwise(t.grad, expected)

    def test_leaky_relu_matches_factor_form(self):
        rng = np.random.default_rng(42)
        x = np.concatenate(
            [
                rng.normal(size=50) * 10.0 ** rng.integers(-300, 300, size=50),
                [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, 1.0, -1.0],
            ]
        )
        want = x * np.where(x > 0, 1.0, ad.LEAKY_SLOPE)
        out = ad.leaky_relu(ad.Tensor(x, requires_grad=True))
        assert_bitwise(out.data, want)
        assert np.signbit(out.data[51]) and not np.signbit(out.data[50])
        (gx,) = out.op[1](np.ones_like(x))
        assert_bitwise(gx, np.where(x > 0, 1.0, ad.LEAKY_SLOPE))

    def test_weighted_gather_matches_zero_initialised_sum(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(6, 5))
        x[2] = -np.abs(x[2])
        idx = rng.integers(0, 6, size=(8, 40))
        idx[:, :6] = 3  # every corner on one row
        idx[:4, 6] = idx[4:, 6] = 1  # repeated pairs
        w = rng.uniform(size=(8, 40))
        w[:, 7] = 0.0  # a column of zero weights ...
        idx[:, 7] = 2  # ... on negative entries: every product is -0.0
        want = np.zeros((40, 5))
        for k in range(8):
            want += w[k][:, None] * x[idx[k]]
        got = ad.weighted_gather(ad.Tensor(x), idx, w).data
        # the zero-initialised sum turns an all -0.0 sum into +0.0; every
        # other entry has the same bits
        zero = (got == 0) & (want == 0)
        assert zero[7].all() and np.signbit(got[7]).all()
        assert_bitwise(np.where(zero, 0.0, got), np.where(zero, 0.0, want))


class TestRandomizedShapes:
    """Backward of matmul / softmax / conv3d vs central differences on random
    shapes up to total size 4096."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matmul_random(self, seed):
        rng = np.random.default_rng(seed)
        m, k, n = (int(rng.integers(1, 17)) for _ in range(3))
        arrays = {"a": rng.normal(size=(m, k)), "b": rng.normal(size=(k, n))}
        w = rng.normal(size=(m, n))
        assert fd_check(lambda s: (ad.matmul(s["a"], s["b"]) * w).sum(), arrays) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_softmax_random(self, seed):
        rng = np.random.default_rng(100 + seed)
        rows, n = int(rng.integers(1, 33)), int(rng.integers(1, 65))
        arrays = {"x": rng.normal(size=(rows, n)) * 3}
        w = rng.normal(size=(rows, n))
        assert fd_check(lambda s: (ad.softmax_lastdim(s["x"]) * w).sum(), arrays) < 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_conv3d_random(self, seed):
        rng = np.random.default_rng(200 + seed)
        cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        d, h, w = (int(rng.integers(2, 7)) for _ in range(3))
        arrays = {
            "x": rng.normal(size=(cin, d, h, w)),
            "k": rng.normal(size=(cout, cin, 3, 3, 3)) * 0.3,
            "b": rng.normal(size=cout),
        }
        assert cotangent_fd_check(ad.conv3d, arrays, 300 + seed) < 1e-4


class TestBackwardSemantics:
    def _build_graph(self):
        x = ad.Tensor([2.0, -1.0, 0.5], requires_grad=True)
        y = ad.Tensor([[1.0, 0.0], [2.0, 1.0], [0.0, 3.0]], requires_grad=True)
        h = ad.matmul(ad.reshape(x * x + x, (1, 3)), y)
        z = (ad.softmax_lastdim(h) * h).sum() + ad.tabs(x).sum()
        return x, y, z

    @staticmethod
    def _logged_op(log, inputs, value, local_grads):
        """A recorded op whose closure logs its output's node id; input ``i``
        receives ``local_grads[i](g)``."""

        def backward(g):
            log.append(out.nid)
            return tuple(f(g) for f in local_grads)

        out = ad._make(value, inputs, backward)
        return out

    def test_one_fixed_order(self):
        log = []

        def op(inputs, value, *local_grads):
            return self._logged_op(log, inputs, value, local_grads)

        x = ad.Tensor([2.0, -1.0, 0.5], requires_grad=True)
        y = ad.Tensor([1.0, 0.0, 3.0], requires_grad=True)
        c = ad.Tensor([0.5, 2.0, -1.0])
        # s = x * x has three consumers; w and z hand one array to every input
        s = op((x, x), x.data * x.data, lambda g: g * x.data, lambda g: g * x.data)
        u = op((s, c), s.data * c.data, lambda g: g * c.data, lambda g: g * s.data)
        v = op((s, y), s.data * y.data, lambda g: g * y.data, lambda g: g * s.data)
        w = op((s, y), s.data + y.data, lambda g: g, lambda g: g)
        z = op((u, v, w), u.data + v.data + w.data, lambda g: g, lambda g: g, lambda g: g)
        total = op((z,), z.data.sum(), lambda g: g * np.ones(3))
        recorded = [s, u, v, w, z, total]
        consumers = {t.nid: [n.nid for n in recorded if t in n.op[0]] for t in recorded}

        total.backward()
        assert sorted(log) == sorted(t.nid for t in recorded)
        for t in recorded:
            assert all(log.index(t.nid) > log.index(n) for n in consumers[t.nid])
        x_grad = 2 * x.data * (c.data + y.data + 1.0)
        y_grad = x.data * x.data + 1.0
        np.testing.assert_array_equal(x.grad, x_grad)
        np.testing.assert_array_equal(y.grad, y_grad)
        assert all(t.grad is None for t in recorded + [c])

        total.backward()
        assert sorted(log) == sorted(2 * [t.nid for t in recorded])
        np.testing.assert_array_equal(x.grad, 2 * x_grad)
        np.testing.assert_array_equal(y.grad, 2 * y_grad)

    def test_untracked_root_does_nothing(self):
        root = ad.Tensor(3.0)
        root.backward()
        assert root.grad is None

    def test_every_tracked_ancestor_receives_grad(self):
        x, y, z = self._build_graph()
        z.backward()
        assert x.grad is not None and x.grad.shape == x.shape
        assert y.grad is not None and y.grad.shape == y.shape

    def test_repeated_input_accumulates(self):
        x = ad.Tensor([3.0], requires_grad=True)
        z = (x * x).sum()
        z.backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_backward_from_nonscalar_rejected(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ParameterError):
            (x * 2.0).backward()

    def test_no_grad_suppresses_graph(self):
        x = ad.Tensor([1.0], requires_grad=True)
        with ad.no_grad():
            y = x * 3.0
        assert y.op is None and not y.requires_grad


class TestGradientCheck:
    def test_quadratic_exact(self):
        store = ad.ParameterStore()
        store.add("w", [3.0])
        err = ad.gradient_check(lambda s: (s["w"] * s["w"]).sum(), store)
        assert err < 1e-9

    def test_step_bounds_enforced(self):
        store = ad.ParameterStore()
        store.add("w", [1.0])
        with pytest.raises(ParameterError):
            ad.gradient_check(lambda s: s["w"].sum(), store, step=1e-2)

    def test_nonfinite_probe_names_parameter(self):
        # finite at the base point, NaN when the probe crosses zero
        store = ad.ParameterStore()
        store.add("bad.param", [5e-6])
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(NumericError, match="bad.param"):
                ad.gradient_check(lambda s: ad.tlog(s["bad.param"]).sum(), store)

    def test_duplicate_path_rejected(self):
        store = ad.ParameterStore()
        store.add("w", [1.0])
        with pytest.raises(ParameterError):
            store.add("w", [2.0])

    def test_iteration_is_lexicographic(self):
        store = ad.ParameterStore()
        store.add("b", [1.0])
        store.add("a.c", [1.0])
        store.add("a.b", [1.0])
        assert store.paths() == ["a.b", "a.c", "b"]
