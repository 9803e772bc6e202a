"""The benchmark's workloads: inputs made from a seed, the closed loop that
drives raydepth's public entry points, and the checks run on every step.

A workload's ``setup`` builds its inputs and warms the program up; ``drive``
then calls the entry point over and over, one client, each step starting
when the previous one has returned, until the :class:`Run` stops it.
Checks read what a step produced after its clock has stopped.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import time

import numpy as np

from raydepth import autodiff as ad
from raydepth import fileio, harness, synth, training
from raydepth.config import PlanesConfig, RunConfig, validate_config
from raydepth.experiments import desk_config
from raydepth.pipeline import init_parameters
from spans import patched

# Slack for invariants that hold exactly in real arithmetic.
RANGE_TOL = 1e-9
# Tier-1 bound on the relative gap between finite differences and reverse mode.
FD_TOL = 1e-4
FD_STEP = 1e-5


class Stop(Exception):
    """Raised at a step boundary once the run has measured long enough."""


class Run:
    """Step clock, stop condition and failure record of one timed phase.

    The phase stops at the first step boundary once ``seconds`` have passed
    since the first step started and at least ``min_steps`` steps have run,
    or once ``max_steps`` steps have run.  Time the benchmark spends checking
    outputs between steps is added up in ``check_s``.
    """

    def __init__(self, seconds=None, min_steps=0, max_steps=None, tracer=None):
        self.seconds = seconds
        self.min_steps = min_steps
        self.max_steps = max_steps
        self.tracer = tracer
        self.check_s = 0.0
        self.starts = []
        self.ends = []
        self.failed = set()
        self.reasons = []
        self.outputs = []
        self.stopped_at = None
        self._span = None

    @property
    def steps(self):
        return len(self.starts)

    def start_step(self):
        now = time.perf_counter()
        n = len(self.starts)
        out_of_time = (
            n >= max(self.min_steps, 1) and self.seconds is not None and now - self.starts[0] >= self.seconds
        )
        if out_of_time or (self.max_steps is not None and n >= self.max_steps):
            self.stopped_at = now
            raise Stop
        if self.tracer is not None:
            self._span = self.tracer.begin_step(n)
        self.starts.append(time.perf_counter())
        self.ends.append(None)
        self.outputs.append({})

    def end_step(self):
        self.ends[-1] = time.perf_counter()
        if self._span is not None:
            self.tracer.close(self._span)
            self._span = None

    def abort_step(self, exc):
        """The program raised inside a step: close it and count it failed."""
        if not self.starts or self.ends[-1] is not None:
            raise exc
        self.end_step()
        self.fail(f"{type(exc).__name__}: {exc}")

    def fail(self, reason):
        step = len(self.starts) - 1
        self.failed.add(step)
        if len(self.reasons) < 20:
            self.reasons.append(f"step {step}: {reason}")

    def check(self, ok, reason):
        if not ok:
            self.fail(reason)

    def record(self, **values):
        self.outputs[-1].update(values)

    @contextlib.contextmanager
    def checking(self):
        """Time spent here is the benchmark's, not the program's."""
        t = time.perf_counter()
        try:
            yield
        finally:
            self.check_s += time.perf_counter() - t

    def step_ms(self):
        return np.array([1e3 * (e - s) for s, e in zip(self.starts, self.ends) if e is not None])

    def wall_s(self):
        return self.stopped_at - self.starts[0]

    def steps_per_s(self):
        """Steps per wall second of the phase, less the time spent in checks."""
        return len(self.starts) / (self.wall_s() - self.check_s)


def digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def gap(a, b):
    """Relative difference used by the Tier-1 gradient check."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def check_frame(run, result, cfg, sparse=None):
    """Invariants of one frame's outputs that hold for any seed."""
    planes = cfg.planes
    depth = result.regressed.depth.data
    slack = RANGE_TOL * planes.d_max
    run.check(np.isfinite(depth).all(), "regressed depth is not finite")
    run.check(
        depth.min() >= planes.d_min - slack and depth.max() <= planes.d_max + slack,
        f"regressed depth [{depth.min()}, {depth.max()}] outside [{planes.d_min}, {planes.d_max}]",
    )
    conf = result.confidence.data
    run.check(
        conf.min() >= 1.0 / planes.count - RANGE_TOL and conf.max() <= 1.0 + RANGE_TOL,
        f"confidence [{conf.min()}, {conf.max()}] outside [1/{planes.count}, 1]",
    )
    if result.refined is not None:
        refined = result.refined.depth.data
        bounds = [depth.min(), depth.max()]
        if sparse is not None and sparse.valid.any():
            bounds += [sparse.depth[sparse.valid].min(), sparse.depth[sparse.valid].max()]
        low, high = min(bounds) - slack, max(bounds) + slack
        run.check(
            np.isfinite(refined).all() and refined.min() >= low and refined.max() <= high,
            f"refined depth [{refined.min()}, {refined.max()}] outside [{low}, {high}]",
        )
    run.record(depth=digest(result.output.depth.data))


def render_sequence(seed, width, height, frames, out_dir):
    spec, K = synth.default_scene(seed, width=width, height=height, frame_count=frames)
    synth.generate_sequence(spec, K, out_dir)
    return out_dir


class Workload:
    name = ""
    # Steps that run every layer of the workload at least once: the warm-up
    # pass, and the fewest steps each half of a traced run measures.
    warmup_steps = 1
    # (output key, steps) compared against the shipped references
    reference = ("loss", 0)

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir

    def setup(self):
        raise NotImplementedError

    def hooks(self, run):
        """(owner, attribute, replacement) triples installed while driving."""
        raise NotImplementedError

    def drive_once(self, run):
        raise NotImplementedError

    def drive(self, run):
        """Closed loop over the entry point until the run stops it."""
        while True:
            try:
                self.drive_once(run)
            except Stop:
                return
            except Exception as exc:  # a program failure fails the step, not the run
                run.abort_step(exc)


class TrainDesk(Workload):
    """``raydepth train``: harness.run_training on a desk-size sequence
    directory with per-epoch sparse resampling; a step is one optimizer step."""

    name = "train_desk"
    frames = 8
    warmup_steps = 8  # one epoch: frame 0 and the fused frames
    reference = ("loss", 8)

    def setup(self):
        seq = render_sequence(self.seed, 64, 48, self.frames, os.path.join(self.work_dir, "seq"))
        self.cfg = desk_config(seed=self.seed)
        self.cfg.paths.sequence_dir = seq

    def hooks(self, run):
        forward_frame, frame_loss = training.forward_frame, training.frame_loss
        optimizer_step = training.optimizer_step
        pending = {}

        def step_forward(*args, **kwargs):
            run.start_step()
            result, state = forward_frame(*args, **kwargs)
            pending["result"] = result
            return result, state

        def step_loss(*args, **kwargs):
            loss, parts = frame_loss(*args, **kwargs)
            pending["loss"] = loss
            return loss, parts

        def step_optimizer(*args, **kwargs):
            out = optimizer_step(*args, **kwargs)
            run.end_step()
            with run.checking():
                loss = pending.pop("loss").item()
                run.check(math.isfinite(loss), f"loss {loss} is not finite")
                run.record(loss=loss)
                check_frame(run, pending.pop("result"), self.cfg)
            return out

        return [
            (training, "forward_frame", step_forward),
            (training, "frame_loss", step_loss),
            (training, "optimizer_step", step_optimizer),
        ]

    def drive_once(self, run):
        harness.run_training(self.cfg, epochs=10**9)


class Infer2x(Workload):
    """``raydepth infer``: harness.run_inference with a checkpoint saved and
    loaded, writing depth and confidence PFMs; a step is one frame."""

    name = "infer_2x"
    frames = 16
    warmup_steps = 2  # frame 0 and one fused frame
    reference = ("mae", 16)

    def setup(self):
        seq = render_sequence(self.seed, 128, 96, self.frames, os.path.join(self.work_dir, "seq"))
        self.cfg = validate_config(RunConfig(seed=self.seed))
        self.cfg.paths.sequence_dir = seq
        self.out_dir = os.path.join(self.work_dir, "out")
        ckpt = os.path.join(self.work_dir, "checkpoint.bin")
        training.save_checkpoint(ckpt, init_parameters(self.cfg))
        self.params = training.load_checkpoint(ckpt)
        training.check_same_parameters(init_parameters(self.cfg), self.params)

    def hooks(self, run):
        forward_frame, write_pfm = harness.forward_frame, harness.write_pfm
        compute_metrics = harness.compute_metrics

        def step_forward(img, sparse, pose, state, *args, **kwargs):
            run.start_step()
            result, new_state = forward_frame(img, sparse, pose, state, *args, **kwargs)
            run.end_step()
            with run.checking():
                self.frame = 0 if state is None else self.frame + 1
                run.record(frame=self.frame)
                check_frame(run, result, self.cfg, sparse)
            return result, new_state

        def checked_write(path, data):
            write_pfm(path, data)
            with run.checking():
                back = fileio.read_pfm(path)
                run.check(
                    np.array_equal(back, np.asarray(data, dtype=np.float32).astype(np.float64)),
                    f"{os.path.basename(path)} does not read back equal to the written map",
                )

        def recorded_metrics(*args, **kwargs):
            m = compute_metrics(*args, **kwargs)
            with run.checking():
                run.check(all(map(math.isfinite, m.as_tuple())), f"metrics {m} not finite")
                run.record(mae=m.mae)
            return m

        return [
            (harness, "forward_frame", step_forward),
            (harness, "write_pfm", checked_write),
            (harness, "compute_metrics", recorded_metrics),
        ]

    def drive_once(self, run):
        harness.run_inference(self.cfg, self.params, out_dir=self.out_dir)


class GradcheckTiny(Workload):
    """Central-difference probes of the 2-frame gradcheck clip on the tests'
    tiny config; a step is one no-grad 2-frame forward."""

    name = "gradcheck_tiny"
    warmup_steps = 2  # one probe pair
    reference = ("loss", 8)

    def setup(self):
        cfg = RunConfig(
            planes=PlanesConfig(count=4, d_min=1.0, d_max=6.0),
            channels=4,
            image_channels=(1, 1, 1),
            downscale=4,
            refinement=False,
            sparse_count=6,
            seed=self.seed,
        )
        self.cfg = validate_config(cfg)
        self.loss_fn = harness.gradcheck_loss_builder(self.cfg, n_frames=2)
        self.params = init_parameters(self.cfg)
        self.params.zero_grad()
        base = self.loss_fn(self.params)
        base.backward()
        self.f0 = base.item()
        self.entries = [
            (path, i, 0.0 if p.grad is None else float(p.grad.reshape(-1)[i]))
            for path, p in self.params.items()
            for i in range(p.data.size)
        ]
        self.order = np.random.default_rng(self.seed).permutation(len(self.entries))

    def hooks(self, run):
        forward_frame = harness.forward_frame
        self.results = []

        def kept_forward(*args, **kwargs):
            result, state = forward_frame(*args, **kwargs)
            self.results.append(result)
            return result, state

        return [(harness, "forward_frame", kept_forward)]

    def drive(self, run):
        self.next_probe = 0  # every timed phase probes the same entries
        super().drive(run)

    def _step(self, run):
        self.results.clear()
        run.start_step()
        value = float(self.loss_fn(self.params).data)
        run.end_step()
        with run.checking():
            run.check(math.isfinite(value), f"loss {value} is not finite")
            run.record(loss=value)
            for result in self.results:
                check_frame(run, result, self.cfg)
        return value

    def drive_once(self, run):
        with ad.no_grad():
            while True:
                path, i, analytic = self.entries[self.order[self.next_probe % len(self.order)]]
                self.next_probe += 1
                flat = self.params[path].data.reshape(-1)
                saved = flat[i]
                try:
                    flat[i] = saved + FD_STEP
                    f_plus = self._step(run)
                    flat[i] = saved - FD_STEP
                    f_minus = self._step(run)
                finally:
                    flat[i] = saved
                with run.checking():
                    self._check_probe(run, path, i, analytic, f_plus, f_minus)

    def _check_probe(self, run, path, i, analytic, f_plus, f_minus):
        fd = (f_plus - f_minus) / (2.0 * FD_STEP)
        if gap(analytic, fd) < FD_TOL:
            return
        # At a kink (a ReLU input exactly at 0, say) the central difference
        # averages two one-sided slopes and reverse mode returns one of them.
        sides = ((f_plus - self.f0) / FD_STEP, (self.f0 - f_minus) / FD_STEP)
        kink = gap(*sides) >= FD_TOL and min(gap(analytic, s) for s in sides) < FD_TOL
        run.record(kink=kink)
        run.check(kink, f"{path}[{i}]: FD {fd} vs reverse-mode {analytic} "
                        f"(rel {gap(analytic, fd):.2e}), one-sided {sides}")


WORKLOADS = {w.name: w for w in (TrainDesk, Infer2x, GradcheckTiny)}


def measure(workload, seconds=None, min_steps=0, max_steps=None, tracer=None):
    """One timed phase of ``workload`` (set up already); returns the Run."""
    run = Run(seconds, min_steps, max_steps, tracer)
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
        stack.enter_context(patched(workload.hooks(run)))
        workload.drive(run)
    return run
