"""Memory and throughput benchmark: ray-wise fusion vs whole-volume
attention.  Analytic entry counts come from the complexity formulas; peak
bytes are measured by the score-buffer meter.  Naive runs are executed only
below a safety cap on score entries, otherwise the row is analytic-only
(empty measured cells)."""

from __future__ import annotations

import csv
import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import fusion
from .autodiff import Tensor
from .cost_volume import CostVolume
from .errors import ParameterError
from .geometry import make_planes

NAIVE_ENTRY_CAP = 2**26


@dataclass(frozen=True)
class BenchRow:
    mode: str
    d: int
    h: int
    w: int
    c: int
    entries: int
    peak_bytes: int | None
    wall_ms: float | None

    @property
    def executed(self):
        return self.peak_bytes is not None


def _random_volumes(d, c, h, w):
    planes = make_planes(d, 0.5, 8.0)
    rng = np.random.default_rng(0)
    cur = CostVolume(planes, Tensor(rng.normal(size=(d, c, h, w))))
    prev = CostVolume(planes, Tensor(rng.normal(size=(d, c, h, w))))
    return cur, prev


def _measure(fn, repeats):
    times = []
    for _ in range(repeats):
        fusion.score_meter.reset()
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1e3)
    return fusion.score_meter.peak_bytes, float(np.median(times))


def run_benchmark(d_list, h_list, w_list, c, repeats=3):
    """Fuse one frame of random volumes per size, in both modes."""
    if repeats < 1:
        raise ParameterError(f"repeats must be at least 1, got {repeats}")
    sizes = {"depths": d_list, "heights": h_list, "widths": w_list, "channels": [c]}
    for name, values in sizes.items():
        if not values or min(values) < 1:
            raise ParameterError(f"{name} must be positive, got {values}")
    rows = []
    for d, h, w in itertools.product(d_list, h_list, w_list):
        params = ad.ParameterStore()
        fusion.add_fusion_params(params, np.random.default_rng(0), c)
        cur, prev = _random_volumes(d, c, h, w)
        with ad.no_grad():
            peak, wall = _measure(lambda: fusion.fuse_volumes(cur, prev, params), repeats)
        rows.append(BenchRow("ray", d, h, w, c, fusion.attention_entry_count(d, h, w, "ray"), peak, wall))
        naive_entries = fusion.attention_entry_count(d, h, w, "naive")
        if naive_entries <= NAIVE_ENTRY_CAP:
            with ad.no_grad():
                peak, wall = _measure(
                    lambda: fusion.fuse_volumes_naive(cur, prev, params), repeats
                )
            rows.append(BenchRow("naive", d, h, w, c, naive_entries, peak, wall))
        else:
            rows.append(BenchRow("naive", d, h, w, c, naive_entries, None, None))
    return rows


def write_benchmark_csv(path, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["mode", "D", "H", "W", "C", "entries", "peak_bytes", "wall_ms"])
        for r in rows:
            writer.writerow(
                [
                    r.mode,
                    r.d,
                    r.h,
                    r.w,
                    r.c,
                    r.entries,
                    "" if r.peak_bytes is None else r.peak_bytes,
                    "" if r.wall_ms is None else f"{r.wall_ms:.3f}",
                ]
            )
