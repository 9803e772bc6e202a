#!/usr/bin/env python3
"""Overfit the pipeline to a single 32x32 synthetic frame and report the
final MAE plus the window-averaged loss trace."""

import argparse
import csv

import numpy as np

from raydepth.experiments import overfit_run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--steps", type=int, default=500)
    ap.add_argument("--out", default="overfit_trace.csv")
    args = ap.parse_args()

    mae, totals = overfit_run(seed=args.seed, steps=args.steps)
    windows = [float(np.mean(totals[i : i + 10])) for i in range(0, len(totals), 10)]
    with open(args.out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "total"])
        for i, v in enumerate(totals):
            writer.writerow([i, f"{v:.9g}"])
    drops = sum(windows[i + 1] <= windows[i] for i in range(len(windows) - 1))
    print(f"final MAE {mae:.4f} m over {args.steps} steps (seed {args.seed})")
    print(f"monotone window transitions: {drops}/{len(windows) - 1}")
    print(f"trace: {args.out}")


if __name__ == "__main__":
    main()
