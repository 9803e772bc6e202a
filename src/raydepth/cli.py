"""Command line driver.

Subcommands: synth (scene JSON -> sequence dir), train (config -> checkpoint
+ loss CSV), infer (config + checkpoint -> depth PFMs + metrics CSV), bench
(size lists -> CSV), gradcheck (config -> max relative error report).
Exit codes: 0 success, 2 validation error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import synth
from .bench import run_benchmark, write_benchmark_csv
from .config import ConfigError, RunConfig, parse_config, validate_config
from .errors import DimensionError, ParameterError
from .harness import run_gradcheck, run_inference, run_training
from .pipeline import init_parameters
from .training import check_same_parameters, load_checkpoint, save_checkpoint, write_loss_trace

_VALIDATION_ERRORS = (ConfigError, ParameterError, DimensionError, FileNotFoundError)


def _load_config(args):
    cfg = parse_config(args.config) if args.config else validate_config(RunConfig())
    if args.seed is not None:
        cfg.seed = args.seed
    if args.mode is not None:
        cfg.mode = args.mode
    if args.no_refine:
        cfg.refinement = False
    if args.out is not None:
        cfg.paths.out_dir = args.out
    return validate_config(cfg)


def _cmd_synth(args):
    spec, K = synth.load_scene(args.scene)
    if K is None:
        raise ParameterError(f"{args.scene} has no camera block")
    if args.seed is not None:
        spec.seed = args.seed
    out = args.out or "sequence"
    n = synth.generate_sequence(spec, K, out)
    print(f"wrote {n} frames to {out}")
    return 0


def _cmd_train(args):
    cfg = _load_config(args)
    out_dir = cfg.paths.out_dir or "train_out"
    os.makedirs(out_dir, exist_ok=True)
    params, trace = run_training(cfg)
    ck_path = os.path.join(out_dir, "checkpoint.bin")
    save_checkpoint(ck_path, params)
    write_loss_trace(os.path.join(out_dir, "loss_trace.csv"), trace)
    final = trace.epoch_means[-1] if trace.epoch_means else float("nan")
    print(f"trained {len(trace.epoch_means)} epochs; final mean loss {final:.6g}")
    print(f"checkpoint: {ck_path}")
    return 0


def _cmd_infer(args):
    cfg = _load_config(args)
    ck_path = args.checkpoint or cfg.paths.checkpoint
    if ck_path is None:
        raise ParameterError("infer needs --checkpoint or paths.checkpoint")
    params = load_checkpoint(ck_path)
    check_same_parameters(init_parameters(cfg), params)
    out_dir = cfg.paths.out_dir or "infer_out"
    rows, _ = run_inference(cfg, params, out_dir=out_dir)
    mean_mae = sum(m.mae for _, m in rows) / len(rows)
    print(f"wrote {len(rows)} depth maps to {out_dir}; mean MAE {mean_mae:.6g} m")
    return 0


def _cmd_bench(args):
    rows = run_benchmark(
        args.depths, args.heights, args.widths, args.channels, repeats=args.repeats
    )
    out = args.out or "bench.csv"
    write_benchmark_csv(out, rows)
    for r in rows:
        wall = "-" if r.wall_ms is None else f"{r.wall_ms:.3f} ms"
        print(f"{r.mode:5s} D={r.d:3d} H={r.h:3d} W={r.w:3d} entries={r.entries:>12d} {wall}")
    print(f"report: {out}")
    return 0


def _cmd_gradcheck(args):
    if args.top < 1:
        raise ParameterError(f"--top must be >= 1, got {args.top}")
    cfg = _load_config(args)
    report = run_gradcheck(cfg, n_frames=args.frames)
    worst = max(report.values())
    for path in sorted(report, key=report.get, reverse=True)[: args.top]:
        print(f"{report[path]:.3e}  {path}")
    print(f"max relative error: {worst:.3e}")
    if args.out:
        with open(args.out, "w") as f:
            for path in sorted(report):
                f.write(f"{path} {report[path]:.6e}\n")
            f.write(f"max {worst:.6e}\n")
    return 0


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok]


def build_parser():
    parser = argparse.ArgumentParser(prog="raydepth", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a scene JSON into a sequence directory")
    p.add_argument("--scene", required=True)
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=_cmd_synth)

    for name, fn in (("train", _cmd_train), ("infer", _cmd_infer), ("gradcheck", _cmd_gradcheck)):
        p = sub.add_parser(name)
        p.add_argument("--config")
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--mode", choices=["fused", "single_view"])
        p.add_argument("--no-refine", action="store_true")
        if name == "infer":
            p.add_argument("--checkpoint")
        if name == "gradcheck":
            p.add_argument("--frames", type=int, default=2)
            p.add_argument("--top", type=int, default=5)
        p.set_defaults(fn=fn)

    p = sub.add_parser("bench", help="attention memory/throughput comparison")
    p.add_argument("--depths", type=_int_list, default=[16])
    p.add_argument("--heights", type=_int_list, default=[8])
    p.add_argument("--widths", type=_int_list, default=[8])
    p.add_argument("--channels", type=int, default=16)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_bench)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
