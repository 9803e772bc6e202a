"""Config parsing, metrics, benchmark rows, inference/training drivers, and
the CLI surface."""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from raydepth import bench, harness, metrics, synth, training
from raydepth.autodiff import Tensor
from raydepth.config import (
    OptimizerConfig,
    PlanesConfig,
    RunConfig,
    config_from_dict,
    parse_config,
    save_config,
    validate_config,
)
from raydepth.cost_volume import SparseDepthMap
from raydepth.errors import ConfigError, EmptyEvaluationError
from raydepth.pipeline import init_parameters
from raydepth.regression import DepthMap


class TestConfig:
    def test_empty_object_gives_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        cfg = parse_config(path)
        assert cfg.planes.count == 16
        assert cfg.planes.d_min == 1e-3 and cfg.planes.d_max == 10.0
        assert cfg.downscale == 4
        assert cfg.mode == "fused"
        assert cfg.refinement is True
        assert cfg.sparse_count == 300

    def test_single_plane_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"planes": {"count": 1}}))
        with pytest.raises(ConfigError):
            parse_config(path)

    @pytest.mark.parametrize(
        "raw,path",
        [
            pytest.param({"optimizer": {"bogus": 1}}, "'optimizer.bogus'", id="typo"),
            pytest.param({"heads": 1}, "'heads'", id="removed-heads"),
            pytest.param({"residual": True}, "'residual'", id="removed-residual"),
            pytest.param({"share_self_attention": False}, "'share_self_attention'", id="removed-share"),
            pytest.param({"loss": {"spn_l1": True}}, "'loss.spn_l1'", id="removed-spn_l1"),
            pytest.param({"loss": {"use_l2": True}}, "'loss.use_l2'", id="removed-use_l2"),
        ],
    )
    def test_unknown_key_names_path(self, tmp_path, raw, path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=path):
            parse_config(cfg_path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_roundtrip_identity(self, tmp_path):
        cfg = validate_config(
            RunConfig(
                channels=8,
                seed=3,
                sparse_count=None,
                sparse_fraction=0.01,
                eval_range=(1.0, 5.0),
                optimizer=OptimizerConfig(milestones=(3, 5)),
            )
        )
        path = tmp_path / "cfg.json"
        save_config(path, cfg)
        again = parse_config(path)
        assert again == cfg

    def test_missing_input_path_rejected(self):
        raw = {"paths": {"sequence_dir": "/nonexistent/sequence"}}
        with pytest.raises(ConfigError, match="sequence_dir"):
            config_from_dict(raw)

    def test_nonpositive_sparse_count_rejected(self):
        for count in (0, -5):
            with pytest.raises(ConfigError, match="sparse_count"):
                config_from_dict({"sparse_count": count})

    def test_bad_downscale(self):
        with pytest.raises(ConfigError):
            config_from_dict({"downscale": 3})

    def test_loss_must_have_a_term(self):
        with pytest.raises(ConfigError, match="at least one loss term"):
            config_from_dict({"loss": {"use_l1": False, "use_ce": False}})

    @pytest.mark.parametrize(
        "raw,path",
        [
            pytest.param({"channels": "8"}, "'channels'", id="int-as-string"),
            pytest.param({"refinement": "no"}, "'refinement'", id="bool-as-string"),
            pytest.param({"planes": {"d_min": "1"}}, "'planes.d_min'", id="float-as-string"),
            pytest.param({"channels": True}, "'channels'", id="int-as-bool"),
            pytest.param({"planes": {"d_max": False}}, "'planes.d_max'", id="float-as-bool"),
            pytest.param({"image_channels": [4, "4", 4]}, "'image_channels'", id="list-element"),
            pytest.param({"paths": {"checkpoint": 3}}, "'paths.checkpoint'", id="optional-str-as-int"),
        ],
    )
    def test_mistyped_value_names_path(self, raw, path):
        with pytest.raises(ConfigError, match=path):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "raw,name",
        [
            pytest.param({"refine_channels": 0}, "refine_channels", id="refine-channels-zero"),
            pytest.param({"refine_channels": -1}, "refine_channels", id="refine-channels-negative"),
            pytest.param({"optimizer": {"learning_rate": float("nan")}}, "learning_rate", id="lr-nan"),
            pytest.param({"optimizer": {"learning_rate": float("inf")}}, "learning_rate", id="lr-inf"),
            pytest.param({"optimizer": {"learning_rate": 0}}, "learning_rate", id="lr-zero"),
            pytest.param({"optimizer": {"weight_decay": -1e-4}}, "weight_decay", id="wd-negative"),
            pytest.param({"optimizer": {"weight_decay": float("nan")}}, "weight_decay", id="wd-nan"),
            pytest.param({"optimizer": {"weight_decay": float("inf")}}, "weight_decay", id="wd-inf"),
        ],
    )
    def test_out_of_range_value_rejected(self, raw, name):
        with pytest.raises(ConfigError, match=name):
            config_from_dict(raw)

    def test_int_accepted_for_float_field(self):
        cfg = config_from_dict({"planes": {"d_min": 1, "d_max": 5}, "sparse_count": None, "sparse_fraction": 1})
        assert (cfg.planes.d_min, cfg.planes.d_max, cfg.sparse_fraction) == (1, 5, 1)


def depth_map(arr):
    arr = np.asarray(arr, dtype=np.float64)
    return DepthMap(arr.shape[1], arr.shape[0], Tensor(arr))


def gt_map(depth, valid):
    depth = np.asarray(depth, dtype=np.float64)
    return SparseDepthMap(depth.shape[1], depth.shape[0], depth, np.asarray(valid, bool))


class TestMetrics:
    def test_exact_prediction_all_zero(self):
        gt = gt_map([[1.0, 2.0]], [[True, True]])
        m = metrics.compute_metrics(depth_map([[1.0, 2.0]]), gt, 0.1, 10.0)
        assert m.as_tuple() == (0.0, 0.0, 0.0, 0.0)

    def test_single_pixel_formula_oracle(self):
        gt = gt_map([[1.0]], [[True]])
        m = metrics.compute_metrics(depth_map([[2.0]]), gt, 0.1, 10.0)
        np.testing.assert_allclose(m.as_tuple(), (1.0, 1.0, 0.5, 0.5))

    def test_two_pixel_formula_oracle(self):
        gt = gt_map([[1.0, 1.0]], [[True, True]])
        m = metrics.compute_metrics(depth_map([[2.0, 4.0]]), gt, 0.1, 10.0)
        np.testing.assert_allclose((m.mae, m.rmse), (2.0, np.sqrt(5.0)))

    def test_range_filter_excludes_far_pixels(self):
        gt = gt_map([[1.0, 50.0]], [[True, True]])
        m = metrics.compute_metrics(depth_map([[1.5, 9.0]]), gt, 0.1, 10.0)
        np.testing.assert_allclose(m.mae, 0.5)

    def test_empty_evaluation_rejected(self):
        gt = gt_map([[50.0]], [[True]])
        with pytest.raises(EmptyEvaluationError):
            metrics.compute_metrics(depth_map([[1.0]]), gt, 0.1, 10.0)

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            gt_depth = rng.uniform(1.0, 5.0, size=(4, 4))
            pred = gt_depth + rng.normal(size=(4, 4))
            pred = np.clip(pred, 0.2, 9.0)
            gt = gt_map(gt_depth, np.ones((4, 4), bool))
            m = metrics.compute_metrics(depth_map(pred), gt, 0.1, 10.0)
            assert m.rmse >= m.mae - 1e-12
            assert m.irmse >= m.imae - 1e-12


class TestBench:
    def test_rows_and_ratio(self, tmp_path):
        rows = bench.run_benchmark([4], [4], [5], c=4, repeats=1)
        ray = next(r for r in rows if r.mode == "ray")
        naive = next(r for r in rows if r.mode == "naive")
        assert naive.entries == ray.entries * 4 * 5
        assert ray.executed and naive.executed
        assert ray.peak_bytes == ray.entries * 8
        path = tmp_path / "bench.csv"
        bench.write_benchmark_csv(path, rows)
        header = path.read_text().splitlines()[0]
        assert header == "mode,D,H,W,C,entries,peak_bytes,wall_ms"

    def test_cap_produces_analytic_only_row(self):
        rows = bench.run_benchmark([8], [8], [8], c=4, repeats=1, cap=10)
        naive = next(r for r in rows if r.mode == "naive")
        assert not naive.executed
        assert naive.entries == 8 * 8 * (8 * 8 * 8 * 8)


def tiny_run_config(seq_dir=None, **kw):
    cfg = RunConfig(
        planes=PlanesConfig(count=4, d_min=1.0, d_max=6.0),
        channels=4,
        image_channels=(1, 1, 1),
        downscale=4,
        refine_iterations=2,
        refine_channels=2,
        optimizer=OptimizerConfig(learning_rate=3e-3, weight_decay=1e-4, epochs=2),
        sparse_count=10,
        **kw,
    )
    if seq_dir is not None:
        cfg.paths.sequence_dir = str(seq_dir)
    return validate_config(cfg)


@pytest.fixture(scope="module")
def tiny_sequence(tmp_path_factory):
    out = tmp_path_factory.mktemp("seq") / "s0"
    spec, K = synth.default_scene(0, width=16, height=16, frame_count=3, step=0.05)
    synth.generate_sequence(spec, K, out)
    return out


class TestDrivers:
    def test_train_then_infer(self, tiny_sequence, tmp_path):
        cfg = tiny_run_config(tiny_sequence)
        params, _, trace = harness.run_training(cfg)
        assert len(trace.epoch_means) == 2
        out = tmp_path / "out"
        rows, outputs = harness.run_inference(cfg, params, out_dir=out)
        assert len(rows) == 3
        assert (out / "depth_0000.pfm").exists()
        assert (out / "conf_0002.pfm").exists()
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3 + 1  # header + frames + mean
        assert lines[-1].startswith("mean,")

    def test_single_frame_modes_agree(self, tmp_path):
        seq = tmp_path / "one"
        spec, K = synth.default_scene(2, width=16, height=16, frame_count=1)
        synth.generate_sequence(spec, K, seq)
        cfg = tiny_run_config(seq)
        params = init_parameters(cfg)
        rows_f, out_f = harness.run_inference(dataclasses.replace(cfg, mode="fused"), params)
        rows_s, out_s = harness.run_inference(dataclasses.replace(cfg, mode="single_view"), params)
        np.testing.assert_array_equal(out_f[0].depth.data, out_s[0].depth.data)

    def test_inference_is_deterministic(self, tiny_sequence, tmp_path):
        cfg = tiny_run_config(tiny_sequence)
        params = init_parameters(cfg)
        a, b = tmp_path / "a", tmp_path / "b"
        harness.run_inference(cfg, params, out_dir=a)
        harness.run_inference(cfg, params, out_dir=b)
        for name in ("depth_0000.pfm", "depth_0002.pfm", "conf_0001.pfm", "metrics.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_gradcheck_smoke(self):
        cfg = tiny_run_config(refinement=False)
        cfg.sparse_count = 6
        report = harness.run_gradcheck(cfg, n_frames=1)
        assert max(report.values()) < 1e-4


class TestCli:
    def _run(self, *argv):
        from raydepth.cli import main

        return main(list(argv))

    def test_end_to_end_cli(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        spec, K = synth.default_scene(0, width=16, height=16, frame_count=2, step=0.05)
        synth.save_scene(scene, spec, K)
        seq = tmp_path / "seq"
        assert self._run("synth", "--scene", str(scene), "--out", str(seq)) == 0

        cfg = tiny_run_config(seq)
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg_path, cfg)
        train_out = tmp_path / "train"
        assert self._run("train", "--config", str(cfg_path), "--out", str(train_out)) == 0
        ck = train_out / "checkpoint.bin"
        assert ck.exists() and (train_out / "loss_trace.csv").exists()

        infer_out = tmp_path / "infer"
        assert (
            self._run(
                "infer", "--config", str(cfg_path), "--checkpoint", str(ck), "--out", str(infer_out)
            )
            == 0
        )
        assert (infer_out / "metrics.csv").exists()

        bench_out = tmp_path / "bench.csv"
        assert (
            self._run(
                "bench", "--depths", "4", "--heights", "4", "--widths", "4",
                "--channels", "4", "--repeats", "1", "--out", str(bench_out),
            )
            == 0
        )
        assert bench_out.exists()

    def test_validation_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"downscale": 3}))
        assert self._run("train", "--config", str(bad)) == 2

    def test_mistyped_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"channels": "8"}))
        assert self._run("train", "--config", str(bad)) == 2

    @pytest.mark.parametrize(
        "raw,name",
        [
            pytest.param({"heads": 1}, "heads", id="removed-key"),
            pytest.param({"refine_channels": 0}, "refine_channels", id="refine-channels-zero"),
            pytest.param({"optimizer": {"learning_rate": float("nan")}}, "learning_rate", id="lr-nan"),
        ],
    )
    def test_rejected_config_exit_code(self, tmp_path, capsys, raw, name):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert self._run("train", "--config", str(bad)) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value",
        [
            pytest.param("--repeats", "0", id="repeats-zero"),
            pytest.param("--channels", "0", id="channels-zero"),
            pytest.param("--channels", "-2", id="channels-negative"),
            pytest.param("--heights", "-1", id="heights-negative"),
            pytest.param("--depths", "", id="depths-empty"),
        ],
    )
    def test_bench_rejects_bad_size(self, tmp_path, capsys, flag, value):
        out = tmp_path / "bench.csv"
        assert self._run("bench", flag, value, "--out", str(out)) == 2
        assert flag[2:] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit,path",
        [
            pytest.param(lambda r: r["primitives"][1].update(colour=[1, 0, 0]),
                         "primitives[1].colour", id="ignored-key"),
            pytest.param(lambda r: r["trajectory"].update(frame_count="2"),
                         "trajectory.frame_count", id="mistyped-value"),
            pytest.param(lambda r: r["primitives"][0].pop("kind") and None,
                         "primitives[0].kind", id="no-kind"),
            pytest.param(lambda r: r["primitives"][4].update(radius=float("nan")),
                         "primitives[4].radius", id="radius-nan"),
            pytest.param(lambda r: r["camera"].update(fx=float("inf")), "camera.fx", id="fx-infinity"),
            pytest.param(lambda r: r["camera"].update(fx=float("nan")), "camera.fx", id="fx-nan"),
            pytest.param(lambda r: r["trajectory"].update(step=float("-inf")),
                         "trajectory.step", id="step-minus-infinity"),
            pytest.param(lambda r: r.update(primitives=[], trajectory={"kind": "orbit", "frame_count": 2, "step": 0.1}),
                         "primitives", id="empty-primitives-orbit"),
        ],
    )
    def test_synth_rejects_bad_scene(self, tmp_path, capsys, edit, path):
        spec, K = synth.default_scene(0, width=16, height=16, frame_count=2, step=0.05)
        raw = synth.scene_to_dict(spec, K)
        edit(raw)
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(raw))
        seq = tmp_path / "seq"
        assert self._run("synth", "--scene", str(scene), "--out", str(seq)) == 2
        assert f"'{path}'" in capsys.readouterr().err
        assert not seq.exists()

    @pytest.mark.parametrize("command", ["train", "infer"])
    def test_malformed_intrinsics_exit_code(self, tmp_path, capsys, command):
        seq = tmp_path / "seq"
        spec, K = synth.default_scene(1, width=16, height=16, frame_count=1)
        synth.generate_sequence(spec, K, seq)
        (seq / "intrinsics.txt").write_text("1 2 3\n")
        cfg = tiny_run_config(seq)
        ck = tmp_path / "ck.bin"
        training.save_checkpoint(ck, init_parameters(cfg))
        cfg.paths.checkpoint = str(ck)
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg_path, cfg)
        out = tmp_path / "out"
        assert self._run(command, "--config", str(cfg_path), "--out", str(out)) == 2
        assert "intrinsics.txt: expected 6 values" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "infer", "gradcheck"])
    def test_shared_flags(self, command):
        from raydepth.cli import build_parser

        args = build_parser().parse_args(
            [command, "--config", "c.json", "--seed", "3", "--out", "o", "--mode", "single_view", "--no-refine"]
        )
        assert (args.config, args.seed, args.out, args.mode, args.no_refine) == ("c.json", 3, "o", "single_view", True)

    def test_runtime_error_exit_code(self, tmp_path):
        # checkpoint that does not match the configured architecture
        cfg = tiny_run_config()
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg_path, cfg)
        seq = tmp_path / "seq"
        spec, K = synth.default_scene(1, width=16, height=16, frame_count=1)
        synth.generate_sequence(spec, K, seq)
        cfg.paths.sequence_dir = str(seq)
        save_config(cfg_path, cfg)
        from raydepth.autodiff import ParameterStore

        stray = ParameterStore()
        stray.add("wrong.name", np.ones(3))
        ck = tmp_path / "ck.bin"
        training.save_checkpoint(ck, stray)
        assert self._run("infer", "--config", str(cfg_path), "--checkpoint", str(ck)) == 1

    def test_console_script_entrypoint(self, tmp_path):
        out = tmp_path / "bench.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "raydepth.cli", "bench", "--depths", "2",
             "--heights", "2", "--widths", "2", "--channels", "2", "--repeats", "1",
             "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
