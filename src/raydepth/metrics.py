"""Depth error metrics over valid ground-truth pixels within an evaluation
range: MAE, RMSE, and their inverse-depth counterparts (1/m)."""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import EmptyEvaluationError

_INV_CLAMP = 1e-6


@dataclass(frozen=True)
class Metrics:
    mae: float
    rmse: float
    imae: float
    irmse: float

    def as_tuple(self):
        # perfbench/workloads.py reads metrics through this
        return astuple(self)


def compute_metrics(pred, gt, low, high):
    """Errors of a predicted depth map against ground truth, restricted to
    valid pixels with ground truth inside [low, high] meters."""
    mask = gt.valid & (gt.depth >= low) & (gt.depth <= high)
    if not mask.any():
        raise EmptyEvaluationError(
            f"no valid ground-truth pixels in [{low}, {high}] to evaluate"
        )
    p = pred.depth.data[mask]
    g = gt.depth[mask]
    err = p - g
    inv_err = 1.0 / np.maximum(p, _INV_CLAMP) - 1.0 / g
    return Metrics(
        mae=float(np.mean(np.abs(err))),
        rmse=float(np.sqrt(np.mean(err * err))),
        imae=float(np.mean(np.abs(inv_err))),
        irmse=float(np.sqrt(np.mean(inv_err * inv_err))),
    )


def write_metrics_csv(path, rows):
    """One row per frame plus a final mean row."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["frame"] + [col.name for col in fields(Metrics)])
        for index, m in rows:
            writer.writerow([index] + [f"{x:.12g}" for x in astuple(m)])
        if rows:
            means = np.mean([astuple(m) for _, m in rows], axis=0)
            writer.writerow(["mean"] + [f"{x:.12g}" for x in means])
