"""The desk-scale protocols pinned at tiny size, and the streaming loop they
share with inference."""

import numpy as np
import pytest

from raydepth import autodiff as ad
from raydepth import experiments, harness
from raydepth.pipeline import init_parameters

# Recorded before the protocols were moved onto the shared streaming loop and
# training driver.  The last digits vary with the BLAS thread count.
REL = 1e-12


def test_fusion_benefit_pinned():
    fused, single = experiments.fusion_benefit_run(0, epochs=1)
    assert fused == pytest.approx(1.2671719296660693, rel=REL)
    assert single == pytest.approx(1.246767642397352, rel=REL)


def test_sparsity_robustness_pinned():
    result = experiments.sparsity_robustness_run(seeds=(0,), epochs=1)
    assert result == pytest.approx(
        {0.005: 1.266019928163972, 0.0015: 1.266272724764808, 0.0005: 1.2659768179952677}, rel=REL
    )


def test_overfit_pinned():
    mae, totals = experiments.overfit_run(seed=0, steps=3)
    assert mae == pytest.approx(1.4920888753951254, rel=REL)
    assert len(totals) == 3


def test_abandoned_stream_leaves_recording_on():
    cfg = experiments.desk_config()
    frames, K = experiments.render_frames(0, width=16, height=16, count=2)
    stream = harness.stream_frames(cfg, init_parameters(cfg), frames, K)
    t, result, _ = next(stream)
    assert t == 0 and not result.output.depth.requires_grad
    x = ad.Tensor(np.ones(2), requires_grad=True)
    assert (x * 2.0).requires_grad
    del stream
    assert (x * 2.0).requires_grad
