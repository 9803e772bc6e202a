"""The benchmark's own tests; run with ``python3 -m pytest perfbench``."""

import json
import os
import subprocess
import sys
import time
import types

import numpy as np
import pytest

import layers
import run as bench
import spans
import workloads
from raydepth import harness, pipeline, synth
from raydepth.pipeline import init_parameters

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_cli(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def minimal_runs():
    return {
        (w["name"], trace): run_cli(w["name"], 0, trace)
        for w in SPEC["workloads"]
        for trace in (0, 1)
    }


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS) == list(bench.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in layers.LAYERS
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_minimal_run_prints_every_metric_with_its_unit(minimal_runs, workload, trace):
    report, result = minimal_runs[(workload, trace)]
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] is True
    # --seconds 0: the untraced run stops at its step floor, each half of a
    # traced run once every layer has run
    expected = 2 * workloads.WORKLOADS[workload].warmup_steps if trace else bench.MIN_STEPS
    assert result["failed"] == 0 and result["attempted"] == expected
    assert sorted(result["metrics"]) == sorted(m["name"] for m in specs)
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}") for line in report)
    assert any(line.startswith("failed_ops_ratio 0 ") for line in report)
    if trace:
        # the steps cross no epoch or pass boundary, where resampling runs
        between_passes = {"harness.sparse_inputs.ms", "synth.sample_sparse.ms"}
        for name, _unit, _better, _moves, applies in layers.LAYERS:
            if workload in applies and not name.startswith("trace.") and name not in between_passes:
                assert result["metrics"][name]["value"] > 0, name
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert any(line.startswith(f"steps timed: {bench.MIN_STEPS}; samples beyond p90: ") for line in report)


def test_seed_changes_inputs_not_metric_names(minimal_runs, tmp_path):
    digests = []
    for seed in (0, 1):
        workload = workloads.TrainDesk(seed, str(tmp_path / f"s{seed}"))
        workload.setup()
        frames, _ = synth.load_sequence(workload.cfg.paths.sequence_dir)
        sparse = harness.sparse_inputs(workload.cfg, frames)
        params = init_parameters(workload.cfg)
        digests.append((
            workloads.digest(frames[0][0].channels),
            workloads.digest(sparse[0][1].depth),
            workloads.digest(params["unet.enc0.weight"].data),
        ))
    assert all(a != b for a, b in zip(*digests))
    _, other = run_cli("gradcheck_tiny", 1, 0)
    assert sorted(other["metrics"]) == sorted(minimal_runs[("gradcheck_tiny", 0)][1]["metrics"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_are_bitwise_identical(workload, tmp_path):
    w = workloads.WORKLOADS[workload](0, str(tmp_path))
    w.setup()
    plain = workloads.measure(w, max_steps=3)
    tracer = spans.Tracer()
    traced = workloads.measure(w, max_steps=3, tracer=tracer)
    assert plain.outputs == traced.outputs
    assert all("depth" in o for o in plain.outputs)
    assert not plain.failed and not traced.failed
    # the tracer restores every function it wrapped
    assert harness.forward_frame is pipeline.forward_frame
    assert len(tracer.start) > 0


def test_spans_nest_and_score_entries_match_the_ray_count(tmp_path):
    w = workloads.Infer2x(0, str(tmp_path))
    w.setup()
    tracer = spans.Tracer()
    run = workloads.measure(w, max_steps=2, tracer=tracer)
    summary = tracer.summary(run.steps)
    assert tracer.malformed_spans() == 0
    assert summary["self_sum_ms"] == pytest.approx(np.mean(summary["step_ms"]), rel=1e-9)
    assert not tracer.violations
    # D=16 planes on a 32x24 volume: D^2*H*W entries per attention call
    calls = tracer.counts["fusion.attention_calls"]
    assert calls > 0 and tracer.counts["fusion.score_entries"] == calls * 16 * 16 * 24 * 32


def test_span_and_memory_checks_can_fail(monkeypatch):
    tracer = spans.Tracer()
    tracer.step = 0
    outer = tracer.open(tracer._id("outer"))
    inner = tracer.open(tracer._id("inner"))
    tracer.close(outer)
    assert tracer.malformed_spans() == 1  # inner is still open
    tracer.close(inner)
    assert tracer.malformed_spans() == 1  # inner ends after its parent

    from raydepth import fusion

    monkeypatch.setattr(fusion, "score_meter", fusion.ScoreAllocationMeter())
    fusion.score_meter.record(4 * 4 * 3 * 5 + 1, 15)
    volume = types.SimpleNamespace(features=np.zeros((4, 2, 3, 5)))
    spans.MEASURES["fusion.fuse"](tracer, (volume,), {}, None)
    assert len(tracer.violations) == 2


def test_steps_per_s_leaves_out_check_time():
    run = workloads.Run(seconds=0)
    run.start_step()
    run.end_step()
    with run.checking():
        time.sleep(0.05)
    with pytest.raises(workloads.Stop):
        run.start_step()
    assert run.check_s >= 0.05
    assert run.steps_per_s() == pytest.approx(1 / (run.wall_s() - run.check_s))
