"""dexretarget benchmark: translate throughput per robot and DAPG iteration time.

Run from the root of a source checkout:

    python3 dexbench/run.py --workload translate-long --seed 1 --seconds 50 --trace 0

The benchmark drives the library in-process and single-threaded, as a closed
loop, through the public calls the `translate-all` and `train` commands make.
Each run has two phases:

1. translate: for each generated stream, `read_stream`, then for each bundled
   robot `PipelineConfig.from_file`, `translate_timed` and `write_demo`. Passes
   over the stream set repeat until the phase's share of `--seconds` is spent
   (the first pass always completes); a repeated pass is also the
   byte-identity rerun check.
2. DAPG: `read_demo` of the generated expert demos, then `dapg.train`
   (behaviour cloning plus a fixed number of iterations at the default batch
   size), repeated until `--seconds` is spent (at least once).

Every time is scaled by machine-speed probes that run in a separate process
(see `Speed` and `Sampler`), because on a shared host the same work takes up to
twice as long from one minute to the next; the raw times are printed beside
them. With
`--trace 1` the layers are wrapped by `tracer.Tracer` and the per-layer
metrics are printed instead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only when
every output check passed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import fmean, median
from typing import Callable

from tracer import LAYERS, SpanTable, Tracer

ROBOTS = ("allegro", "schunk", "adroit")
TRANSLATE_SHARE = 0.72    # of --seconds; the rest goes to the DAPG phase
EXPERT_DEMOS = 25
DAPG_ITERATIONS = 12
SETUP_REPEATS = 9
# The probe times seconds are scaled to (see Speed): the median probe times
# on a 2-core x86-64 VM, so that scaled and raw seconds agree there.
PROBE_REF_S = {"blas": 0.008, "loop": 0.014, "tick": 0.0045}
SAMPLE_INTERVAL_S = 0.2  # how often Sampler probes the host during the translate phase
PROBE_SCRIPT = Path(__file__).resolve().parent / "probe.py"

clock = time.perf_counter


class ProbeProcess:
    """The child process that runs `probe.py`, started with one BLAS thread."""

    def __init__(self):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.proc = subprocess.Popen([sys.executable, str(PROBE_SCRIPT)], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, env=env)

    def ask(self, command: str) -> str:
        """Run one probe.py command ("blas" or "threads"); its printed answer."""
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.proc.stdout.readline().strip()

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Speed:
    """Scales measured seconds to a reference probe time.

    On a shared 2-core host the same work can take twice as long from one
    minute to the next, and the process's CPU time slows down with its wall
    time. A probe does work like the measured work in another process with
    one BLAS thread (see probe.py): "blas" does matrix work shaped like a
    DAPG iteration, "loop" an interpreter loop over 3x3 numpy work like a
    translate call or an import. It slows down with the host but not with
    the program: a change of the program's code, BLAS threads, memory or
    caches moves the scaled seconds as much as the raw ones. A segment is
    scaled by the probes just before and after it: `start()` before, then
    `factor()` after, which returns PROBE_REF_S / mean(probe before, probe
    after) and also starts the next segment. Without a probe process (traced
    runs) the factor is 1.
    """

    def __init__(self, probes: ProbeProcess | None, command: str):
        self.probes = probes
        self.command = command
        self.samples: list[float] = []

    def start(self):
        if self.probes is not None:
            self.samples.append(float(self.probes.ask(self.command)))

    def factor(self) -> float:
        if self.probes is None:
            return 1.0
        before = self.samples[-1]
        self.start()
        return PROBE_REF_S[self.command] / (0.5 * (before + self.samples[-1]))

    def report(self) -> str:
        times = sorted(self.samples)
        return (f"{self.command} probe: {len(times)} runs, median {median(times) * 1e3:.3f} ms "
                f"(reference {PROBE_REF_S[self.command] * 1e3:g} ms), range {times[0] * 1e3:.3f}-"
                f"{times[-1] * 1e3:.3f} ms")


class Sampler:
    """Scales translate seconds by probes taken every SAMPLE_INTERVAL_S while they run.

    The host's speed changes every second or so, which is shorter than one
    translate call of a long stream, so a probe before and after each call
    (as `Speed` does) misses most of it. Between `start()` and `stop()` a
    SIGALRM timer pauses the program every SAMPLE_INTERVAL_S and runs the
    short "tick" probe in the probe process. `scale(a, b, seconds)` takes
    the probes' pause out of `seconds` measured between clock readings `a`
    and `b`, then multiplies by PROBE_REF_S["tick"] times the mean probe
    speed (1 / probe time) over the samples taken in [a, b) and the one just
    before: the seconds the work would take on a host where the probe
    takes its reference time. Without a probe process (traced runs) it does
    nothing and the factor is 1.
    """

    def __init__(self, probes: ProbeProcess | None):
        self.probes = probes
        self.samples: list[tuple[float, float, float]] = []  # (start, end, probe seconds)
        self.busy = False
        self.previous = None

    def _tick(self, *_):
        if self.busy:  # a late tick arrived during the last one
            return
        self.busy = True
        t0 = clock()
        p = float(self.probes.ask("tick"))
        self.samples.append((t0, clock(), p))
        self.busy = False

    def start(self):
        if self.probes is None:
            return
        self._tick()
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        if self.previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self.previous)
            self.previous = None

    def scale(self, a: float, b: float, seconds: float) -> tuple[float, float]:
        """(scaled, raw) seconds of work measured between clock readings a and b."""
        if self.probes is None:
            return seconds, seconds
        inside = [x for x in self.samples if a <= x[0] < b]
        before = [x for x in self.samples if x[0] < a][-1:]
        raw = seconds - sum(min(end, b) - start for start, end, _ in inside)
        speeds = [1.0 / p for _, _, p in before + inside]
        return raw * PROBE_REF_S["tick"] * sum(speeds) / len(speeds), raw

    def report(self) -> str:
        times = sorted(p for _, _, p in self.samples)
        pause = sum(end - start for start, end, _ in self.samples)
        return (f"tick probe: {len(times)} samples, median {median(times) * 1e3:.3f} ms "
                f"(reference {PROBE_REF_S['tick'] * 1e3:g} ms), range {times[0] * 1e3:.3f}-"
                f"{times[-1] * 1e3:.3f} ms, {pause:.2f}s paused")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    action_mode: str
    make_streams: Callable  # (seed, count) -> list[HandPoseStream]
    count: int


def _workloads():
    import gen

    return {
        "translate-long": Workload(
            "translate-long",
            "few long torque-mode streams, one operator each: warm-started GN, FK/Jacobians "
            "and RNEA dominate; plus the shared DAPG phase",
            "torque", lambda seed, count: gen.long_streams(seed, count, 200), 2),
        "translate-short": Workload(
            "translate-short",
            "many 10-30 frame position-mode streams from 8 operators with stored s0: cold "
            "starts, per-stream set-up and I/O weigh more, no RNEA; plus the shared DAPG phase",
            "position", lambda seed, count: gen.short_streams(seed, count, 8), 30),
    }


# (name, unit, better, end-to-end metric it feeds)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("translate_fps.allegro", "frames/s", "higher"),
    ("translate_fps.schunk", "frames/s", "higher"),
    ("translate_fps.adroit", "frames/s", "higher"),
    ("translate_all_wall_s", "s", "lower"),
    ("keypoint_residual_mm", "mm", "lower"),
    ("converged_frame_frac", "ratio", "higher"),
    ("translate_ok_frac", "ratio", "higher"),
    ("dapg_iter_s", "s", "lower"),
    ("dapg_train_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# The end-to-end times that are scaled by a probe; their raw values are printed too.
RAW_TIMES = ("setup_s", "translate_fps.allegro", "translate_fps.schunk", "translate_fps.adroit",
             "translate_all_wall_s", "dapg_iter_s", "dapg_train_s")

FPS = "translate_fps.*"
PER_LAYER = [
    ("kinematics.link_poses.calls_per_frame", "count", "lower", FPS),
    ("kinematics.link_poses.mean_us", "us", "lower", FPS),
    ("kinematics.forward_kinematics.calls_per_frame", "count", "lower", FPS),
    ("kinematics.forward_kinematics.mean_us", "us", "lower", FPS),
    ("kinematics.keypoint_jacobians.calls_per_frame", "count", "lower", FPS),
    ("kinematics.keypoint_jacobians.mean_us", "us", "lower", FPS),
    ("transforms.axis_angle_matrix.calls_per_frame", "count", "lower", FPS),
    ("retarget.retarget_frame.mean_ms", "ms", "lower", FPS),
    ("retarget.retarget_frame.p90_ms", "ms", "lower", FPS),
    ("retarget.gn_iters_per_frame", "count", "lower", FPS),
    ("retarget.gn_iters_first_frame", "count", "lower", FPS),
    ("retarget.objective_probes_per_frame", "count", "lower", FPS),
    ("retarget.step_accept_ratio", "ratio", "higher", FPS),
    ("dynamics.inverse_dynamics.calls_per_frame", "count", "lower", FPS),
    ("dynamics.inverse_dynamics.mean_us", "us", "lower", FPS),
    ("dynamics.compute_actions.self_s", "s", "lower", FPS),
    ("control.low_pass_trajectory.self_s", "s", "lower", FPS),
    ("poseio.solve_wrist.calls_per_frame", "count", "lower", FPS),
    ("poseio.solve_wrist.mean_us", "us", "lower", FPS),
    ("demopipe.stage.calibrate_and_build_s", "s", "lower", FPS),
    ("demopipe.stage.retarget_s", "s", "lower", FPS),
    ("demopipe.stage.actions_s", "s", "lower", FPS),
    ("demopipe.stage.wrist_and_assembly_s", "s", "lower", FPS),
    ("poseio.read_stream.mb_per_s", "MB/s", "higher", "translate_all_wall_s"),
    ("poseio.calibrate.self_s", "s", "lower", "translate_all_wall_s"),
    ("handgen.build_custom_hand.calls", "count", "lower", "translate_all_wall_s"),
    ("handgen.build_custom_hand.mean_ms", "ms", "lower", "translate_all_wall_s"),
    ("kinematics.load_robot.calls", "count", "lower", "translate_all_wall_s"),
    ("kinematics.load_robot.mean_ms", "ms", "lower", "translate_all_wall_s"),
    ("demopipe.write_demo.mb_per_s", "MB/s", "higher", "translate_all_wall_s"),
    ("demopipe.read_demo.mean_ms", "ms", "lower", "dapg_train_s"),
    ("dapg.bc_pretrain.s", "s", "lower", "dapg_train_s"),
    ("dapg.rollout_batch.mean_ms", "ms", "lower", "dapg_iter_s"),
    ("dapg.env_steps_per_s", "1/s", "higher", "dapg_iter_s"),
    ("dapg.compute_advantages.mean_ms", "ms", "lower", "dapg_iter_s"),
    ("dapg.dapg_gradient.mean_ms", "ms", "lower", "dapg_iter_s"),
    ("dapg.fit_value.mean_ms", "ms", "lower", "dapg_iter_s"),
    ("dapg.return_last10", "return", "higher", "dapg_train_s"),
] + [(f"layer.{layer}.self_frac", "ratio", "lower", "all") for layer in LAYERS] + [
    ("trace.overhead_s", "s", "lower", "none"),
    ("trace.overhead_frac", "ratio", "lower", "none"),
]

SETUP_PROBE = """
import time
t0 = time.perf_counter()
import dexretarget.cli
from dexretarget import assets
from dexretarget.demopipe import PipelineConfig
from dexretarget.handgen import default_template
from dexretarget.kinematics import load_robot
for robot in {robots!r}:
    load_robot(PipelineConfig.from_file(assets.config_path(robot)).robot)
default_template()
print(time.perf_counter() - t0)
"""


def measure_setup(root: Path, speed: Speed) -> tuple[float, float]:
    """Median over fresh interpreters of import plus loading configs and robots.

    Scaled by `speed` and raw. Each interpreter is scaled by the probes just
    before and after it; its start-up and exit fall outside its own timing.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    code = SETUP_PROBE.format(robots=ROBOTS)
    times = []
    speed.start()
    for _ in range(SETUP_REPEATS + 1):  # the first also writes the bytecode cache
        out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        seconds = float(out.stdout.strip().splitlines()[-1])
        times.append((seconds * speed.factor(), seconds))
    return median(t[0] for t in times[1:]), median(t[1] for t in times[1:])


def environment() -> dict:
    import numpy as np

    from probe import blas_threads

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS") if k in os.environ},
    }


class Run:
    """One benchmark run: inputs, the two timed phases, checks and metrics."""

    def __init__(self, workload: Workload, seed: int, work: Path, probes: ProbeProcess | None,
                 tracer=None):
        from dexretarget import assets, dapg, demopipe, poseio

        self.assets, self.dapg, self.demopipe, self.poseio = assets, dapg, demopipe, poseio
        self.workload = workload
        self.seed = seed
        self.work = work
        self.dapg_speed = Speed(probes, "blas")
        self.sampler = Sampler(probes)
        self.tracer = tracer
        self.requests: list[dict] = []
        self.failures: list[str] = []
        self.demos_attempted = self.demos_failed = 0
        self.jobs_attempted = self.jobs_failed = 0
        self.demos = {}       # (stream, robot) -> pass-0 Demonstration
        self.first_bytes = {}  # (stream, robot) -> pass-0 file bytes
        self.reran = set()    # (stream, robot) rerun and compared with pass 0
        self.frames: dict[int, int] = {}  # stream -> frames
        # (robot, stream) -> (scaled, raw) seconds inside translate_timed, one pair per call
        self.seconds: dict[tuple[str, int], list[tuple[float, float]]] = {}
        # stream -> (scaled, raw) seconds, one pair per complete translate-all call
        self.walls: dict[int, list[tuple[float, float]]] = {}
        self.jobs: list[dict] = []
        self.marks: list[tuple[float, float, float]] = []

    # -- requests: the ids spans are stamped with ---------------------------
    def _request(self, **info) -> int:
        self.requests.append(info)
        rid = len(self.requests) - 1
        if self.tracer is not None:
            self.tracer.request = rid
        return rid

    def _idle(self):
        if self.tracer is not None:
            self.tracer.request = -1

    def fail(self, what: str):
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    # -- inputs --------------------------------------------------------------
    def make_inputs(self):
        import gen

        w = self.workload
        self.stream_paths = gen.write_streams(w.make_streams(self.seed, w.count), self.work / "streams")
        self.demo_paths = gen.write_expert_demos(self.seed, EXPERT_DEMOS, self.work / "expert")
        again = self.poseio.stream_to_text(w.make_streams(self.seed, 1)[0])
        if again != self.stream_paths[0].read_text():
            self.fail("regenerating stream 0 from the same seed gave different bytes")

    # -- translate phase -----------------------------------------------------
    def translate_unit(self, i: int, path: Path, pass_no: int, record: bool = True):
        """One `translate-all` call: one stream to every robot.

        Seconds are scaled by the sampler's probes taken while they run.
        """
        demopipe = self.demopipe
        out_dir = self.work / "demos" / f"pass{min(pass_no, 1)}"
        out_dir.mkdir(parents=True, exist_ok=True)
        done = []
        t0 = clock()
        self._request(kind="read_stream", bytes=path.stat().st_size)
        stream = self.poseio.read_stream(path)
        for robot in ROBOTS:
            self.demos_attempted += 1
            rid = self._request(kind="translate", stream=i, robot=robot, frames=len(stream.frames))
            try:
                config = replace(demopipe.PipelineConfig.from_file(self.assets.config_path(robot)),
                                 action_mode=self.workload.action_mode)
                a = clock()
                demo, timings = demopipe.translate_timed(stream, config)
                b = clock()
                out = out_dir / f"{path.stem}.{robot}.demo"
                demopipe.write_demo(demo, out)
            except Exception:  # noqa: BLE001 - a failed demo is counted, the run goes on
                self._idle()
                self.demos_failed += 1
                self.fail(f"stream {i} robot {robot}: {traceback.format_exc(limit=3)}")
                continue
            self.requests[rid].update(timings=timings, bytes=out.stat().st_size)
            done.append((robot, demo, self.sampler.scale(a, b, sum(timings.values())), out))
        t1 = clock()
        wall = self.sampler.scale(t0, t1, t1 - t0)
        self._idle()
        ok = all([self.check_demo(i, robot, demo, out, pass_no) for robot, demo, _, out in done])
        if record:
            self.frames[i] = len(stream.frames)
            for robot, _, seconds, _ in done:
                self.seconds.setdefault((robot, i), []).append(seconds)
            if ok and len(done) == len(ROBOTS):
                self.walls.setdefault(i, []).append(wall)

    def check_demo(self, i, robot, demo, out: Path, pass_no: int) -> bool:
        import numpy as np

        key = (i, robot)
        data = out.read_bytes()
        back = self.demopipe.read_demo(out)
        problems = []
        if not (np.array_equal(back.states, demo.states) and np.array_equal(back.actions, demo.actions)
                and back.state_layout == demo.state_layout and back.action_layout == demo.action_layout):
            problems.append("does not round-trip through read_demo")
        if back.states.shape[0] != back.actions.shape[0] + 1:
            problems.append("len(states) != len(actions) + 1")
        if not (np.all(np.isfinite(back.states)) and np.all(np.isfinite(back.actions))):
            problems.append("non-finite values")
        if pass_no == 0:
            self.demos[key] = demo
            self.first_bytes[key] = data
        else:
            self.reran.add(key)
            if data != self.first_bytes.get(key):
                problems.append("rerun wrote different bytes")
        if problems:
            self.demos_failed += 1
            self.fail(f"stream {i} robot {robot} pass {pass_no}: {'; '.join(problems)}")
        return not problems

    def translate_phase(self, deadline: float):
        self.sampler.start()
        try:
            self._translate_passes(deadline)
        finally:
            self.sampler.stop()

    def _translate_passes(self, deadline: float):
        pass_no = 0
        last = len(self.stream_paths) - 1
        while True:
            for i, path in enumerate(self.stream_paths):
                self.translate_unit(i, path, pass_no)
                if clock() >= deadline and (pass_no > 0 or i == last):
                    break
            else:
                pass_no += 1
                continue
            break
        if not all((0, robot) in self.reran for robot in ROBOTS):
            # The time ran out before a second pass reached stream 0: rerun it
            # once, untimed, for the byte-identity check.
            self.translate_unit(0, self.stream_paths[0], 1, record=False)

    def tracing_overhead(self) -> tuple[float, float]:
        """Fastest untraced and fastest traced time of one translate call.

        The two alternate, twice each. Spans recorded here carry no request,
        so no metric counts them.
        """
        stream = self.poseio.read_stream(self.stream_paths[0])
        config = replace(self.demopipe.PipelineConfig.from_file(self.assets.config_path(ROBOTS[0])),
                         action_mode=self.workload.action_mode)
        times = {False: [], True: []}
        for traced in (False, True, False, True):
            if traced:
                self.tracer.install()
            t0 = clock()
            self.demopipe.translate_timed(stream, config)
            times[traced].append(clock() - t0)
            if traced:
                self.tracer.uninstall()
        return min(times[False]), min(times[True])

    # -- DAPG phase ----------------------------------------------------------
    def install_iteration_marks(self):
        """Time-stamp each DAPG iteration at its rollout (one call per iteration).

        The speed probe runs between the two stamps, outside both iterations.
        """
        trainer = sys.modules["dexretarget.dapg.trainer"]
        inner = trainer.rollout_batch
        run = self

        def rollout_batch(*args, **kwargs):
            before = clock()
            f = run.dapg_speed.factor()
            run.marks.append((before, clock(), f))
            run._request(kind="dapg-iter", job=len(run.jobs))
            return inner(*args, **kwargs)

        trainer.rollout_batch = rollout_batch
        return lambda: setattr(trainer, "rollout_batch", inner)

    def dapg_job(self) -> dict | None:
        self.jobs_attempted += 1
        self.marks = []
        try:
            self.dapg_speed.start()
            t0 = clock()
            self._request(kind="dapg-read", job=len(self.jobs))
            demos = [self.demopipe.read_demo(p) for p in self.demo_paths]
            read_s = clock() - t0
            f_read = self.dapg_speed.factor()
            self._request(kind="dapg-bc", job=len(self.jobs))
            t1 = clock()
            _, curve = self.dapg.train(demos, self.dapg.DapgConfig(iterations=DAPG_ITERATIONS))
            t2 = clock()
            f_end = self.dapg_speed.factor()
        except Exception:  # noqa: BLE001 - a failed job is counted, the run goes on
            self._idle()
            self.jobs_failed += 1
            self.fail(f"DAPG job {len(self.jobs)}: {traceback.format_exc(limit=3)}")
            return None
        self._idle()
        # Segment k runs from the end of mark k's probe to the start of the
        # next probe, and is scaled by the factor that next probe returns.
        starts = [t1] + [after for _, after, _ in self.marks]
        stops = [(before, f) for before, _, f in self.marks] + [(t2, f_end)]
        segments = [(stop - start) * f for start, (stop, f) in zip(starts, stops)]
        raw = [stop - start for start, (stop, _) in zip(starts, stops)]
        # (scaled, raw) seconds of read_demo, of train up to the first rollout, and of each iteration
        parts = [(read_s * f_read, read_s)] + list(zip(segments, raw))
        job = {"parts": parts, "iter_s": parts[2:],
               "curve": (curve.mean_return, curve.success_rate, curve.demo_weight)}
        problems = []
        if self.jobs and job["curve"] != self.jobs[0]["curve"]:
            problems.append("learning curve differs from job 0")
        if len(job["iter_s"]) != DAPG_ITERATIONS:
            problems.append(f"{len(job['iter_s'])} iterations recorded")
        if not all(map(math.isfinite, job["curve"][0])):
            problems.append("non-finite mean return")
        if problems:
            self.jobs_failed += 1
            self.fail(f"DAPG job {len(self.jobs)}: {'; '.join(problems)}")
        self.jobs.append(job)
        return job

    def dapg_phase(self, deadline: float):
        while self.dapg_job() is not None and clock() < deadline:
            pass

    # -- end-to-end metrics --------------------------------------------------
    def end_to_end(self, setup_s: tuple[float, float], peak_rss_mb: float, raw: bool = False) -> dict:
        """The end-to-end metrics; times scaled (see Speed) or, with `raw`, as measured.

        `setup_s` is a (scaled, raw) pair.
        """
        k = int(raw)
        m = {"setup_s": setup_s[k]}
        # Each stream counts once, whichever streams the last, partial pass reached.
        for robot in ROBOTS:
            calls = {i: calls for (r, i), calls in self.seconds.items() if r == robot}
            seconds = sum(fmean(c[k] for c in calls[i]) for i in calls)
            frames = sum(self.frames[i] for i in calls)
            m[f"translate_fps.{robot}"] = frames / seconds if seconds else 0.0
        m["translate_all_wall_s"] = sum(median(w[k] for w in calls) for calls in self.walls.values())
        demos = list(self.demos.values())
        frames = sum(d.states.shape[0] for d in demos)
        m["keypoint_residual_mm"] = 1000.0 * sum(
            d.provenance["mean_keypoint_residual"] * d.states.shape[0] for d in demos) / max(frames, 1)
        m["converged_frame_frac"] = 1.0 - sum(
            d.provenance["unconverged_frames"] for d in demos) / max(frames, 1)
        m["translate_ok_frac"] = 1.0 - self.demos_failed / max(self.demos_attempted, 1)
        m["dapg_iter_s"] = median([s[k] for job in self.jobs for s in job["iter_s"]] or [0.0])
        # The median over jobs of each part (read_demo, train up to the first
        # rollout, each iteration), summed: a job that the host slowed down
        # does not count in full.
        jobs = [job["parts"] for job in self.jobs if len(job["iter_s"]) == DAPG_ITERATIONS]
        m["dapg_train_s"] = sum(median(p[k] for p in part) for part in zip(*jobs)) if jobs else 0.0
        m["peak_rss_mb"] = peak_rss_mb
        return m

    # -- per-layer metrics ---------------------------------------------------
    def per_layer(self, spans, gn: dict, overhead: tuple[float, float], phases_wall: float) -> dict:
        import numpy as np

        kinds: dict[str, set] = {}
        for rid, info in enumerate(self.requests):
            kinds.setdefault(info["kind"], set()).add(rid)
        tr = {rid for rid in kinds.get("translate", ()) if "timings" in self.requests[rid]}
        n_tr = max(len(tr), 1)
        frames = sum(self.requests[rid]["frames"] for rid in tr) or 1
        dapg_reqs = kinds.get("dapg-bc", set()) | kinds.get("dapg-iter", set())

        def durations(name, requests, via=None):
            return spans.duration[spans.select(name, via=via, requests=requests)]

        def per_frame(name):
            return len(durations(name, tr)) / frames

        def mean(values, scale):
            return float(values.mean()) * scale if len(values) else 0.0

        def self_per_request(name):
            return float(spans.self_time[spans.select(name, requests=tr)].sum()) / n_tr

        m = {}
        for fn in ("link_poses", "forward_kinematics", "keypoint_jacobians"):
            m[f"kinematics.{fn}.calls_per_frame"] = per_frame(f"kinematics.{fn}")
            m[f"kinematics.{fn}.mean_us"] = mean(durations(f"kinematics.{fn}", tr), 1e6)
        m["transforms.axis_angle_matrix.calls_per_frame"] = per_frame("transforms.axis_angle_matrix")
        frame_ms = durations("retarget.retarget_frame", tr) * 1e3
        m["retarget.retarget_frame.mean_ms"] = float(frame_ms.mean()) if len(frame_ms) else 0.0
        m["retarget.retarget_frame.p90_ms"] = float(np.percentile(frame_ms, 90)) if len(frame_ms) else 0.0
        iters = [gn[rid] for rid in tr if rid in gn]
        solved = sum(len(v) for v in iters) or 1
        total_iters = sum(sum(v) for v in iters)
        m["retarget.gn_iters_per_frame"] = total_iters / solved
        m["retarget.gn_iters_first_frame"] = sum(v[0] for v in iters) / max(len(iters), 1)
        probes = len(durations("kinematics.forward_kinematics", tr, via="retarget")) - solved
        m["retarget.objective_probes_per_frame"] = probes / solved
        m["retarget.step_accept_ratio"] = total_iters / probes if probes > 0 else 0.0
        m["dynamics.inverse_dynamics.calls_per_frame"] = per_frame("dynamics.inverse_dynamics")
        m["dynamics.inverse_dynamics.mean_us"] = mean(durations("dynamics.inverse_dynamics", tr), 1e6)
        m["dynamics.compute_actions.self_s"] = self_per_request("dynamics.compute_actions")
        m["control.low_pass_trajectory.self_s"] = self_per_request("control.low_pass_trajectory")
        m["poseio.solve_wrist.calls_per_frame"] = per_frame("poseio.solve_wrist")
        m["poseio.solve_wrist.mean_us"] = mean(durations("poseio.solve_wrist", tr), 1e6)
        for stage in ("calibrate_and_build", "retarget", "actions", "wrist_and_assembly"):
            m[f"demopipe.stage.{stage}_s"] = sum(
                self.requests[rid]["timings"][stage] for rid in tr) / n_tr
        reads = kinds.get("read_stream", set())
        read_s = float(durations("poseio.read_stream", reads).sum())
        read_mb = sum(self.requests[rid]["bytes"] for rid in reads) / 1e6
        m["poseio.read_stream.mb_per_s"] = read_mb / read_s if read_s else 0.0
        m["poseio.calibrate.self_s"] = self_per_request("poseio.calibrate")
        for name in ("handgen.build_custom_hand", "kinematics.load_robot"):
            d = durations(name, tr)
            m[f"{name}.calls"] = len(d) / n_tr
            m[f"{name}.mean_ms"] = mean(d, 1e3)
        write_s = float(durations("demopipe.write_demo", tr).sum())
        write_mb = sum(self.requests[rid]["bytes"] for rid in tr) / 1e6
        m["demopipe.write_demo.mb_per_s"] = write_mb / write_s if write_s else 0.0
        m["demopipe.read_demo.mean_ms"] = mean(durations("demopipe.read_demo", kinds.get("dapg-read", set())), 1e3)
        bc = durations("dapg.bc_pretrain", dapg_reqs)
        m["dapg.bc_pretrain.s"] = mean(bc, 1.0)
        rollout = durations("dapg.rollout_batch", dapg_reqs)
        m["dapg.rollout_batch.mean_ms"] = mean(rollout, 1e3)
        from dexretarget.dapg.env import HORIZON

        steps = len(rollout) * self.dapg.DapgConfig().batch_trajectories * HORIZON
        m["dapg.env_steps_per_s"] = steps / float(rollout.sum()) if len(rollout) else 0.0
        for fn in ("compute_advantages", "dapg_gradient", "fit_value"):
            m[f"dapg.{fn}.mean_ms"] = mean(durations(f"dapg.{fn}", dapg_reqs), 1e3)
        m["dapg.return_last10"] = float(np.mean(self.jobs[0]["curve"][0][-10:])) if self.jobs else 0.0
        for layer in LAYERS:
            m[f"layer.{layer}.self_frac"] = spans.layer_self_time(layer) / phases_wall
        untraced, traced = overhead
        m["trace.overhead_s"] = traced - untraced
        m["trace.overhead_frac"] = traced / untraced - 1.0 if untraced else 0.0
        return m


def bench(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the report lines."""
    import reference

    report = []
    work = root / ".bench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    probes = None if trace else ProbeProcess()
    try:
        setup_speed = Speed(probes, "loop")
        setup_s = measure_setup(root, setup_speed) if not trace else (0.0, 0.0)
        started = clock()
        gn: dict[int, list[int]] = {}
        tracer = Tracer(observers={
            "retarget.retarget_frame": lambda result, rid: gn.setdefault(rid, []).append(result.iterations),
        }) if trace else None
        run = Run(workload, seed, work, probes, tracer)
        run.make_inputs()
        report.append(f"inputs: {len(run.stream_paths)} streams, {len(run.demo_paths)} expert demos "
                      f"in {clock() - started:.2f}s")

        if trace:
            tracer.install()
        restore = run.install_iteration_marks()
        t_run = clock()
        try:
            run.translate_phase(t_run + TRANSLATE_SHARE * seconds)
            t_dapg = clock()
            run.dapg_phase(t_run + seconds)
        finally:
            restore()
            if trace:
                tracer.uninstall()
        phases_wall = clock() - t_run
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report.append(f"translate phase {t_dapg - t_run:.2f}s: {sum(map(len, run.walls.values()))} "
                      f"translate-all calls; DAPG phase {clock() - t_dapg:.2f}s: {len(run.jobs)} jobs")
        overhead = run.tracing_overhead() if trace else (0.0, 0.0)

        mismatches = reference.check(work / "reference")
        for line in mismatches[:20]:
            run.fail(f"reference: {line}")

        if trace:
            spans = SpanTable(tracer)
            metrics = run.per_layer(spans, gn, overhead, phases_wall)
            table = PER_LAYER
            out = root / ".bench_work" / f"trace-{workload.name}.npz"
            tracer.save(out, run.requests)
            report.append(f"{len(spans.duration)} spans written to {out.relative_to(root)}")
        else:
            metrics = run.end_to_end(setup_s, peak_rss_mb)
            table = END_TO_END
            for speed in (setup_speed, run.sampler, run.dapg_speed):
                report.append(speed.report())
            raw = run.end_to_end(setup_s, peak_rss_mb, raw=True)
            report.append("raw " + json.dumps({k: raw[k] for k in RAW_TIMES}))
        result = {
            "correct": not run.failures,
            "attempted": run.demos_attempted + run.jobs_attempted,
            "failed": run.demos_failed + run.jobs_failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, *_ in table},
        }
        for name, unit, better, *feeds in table:
            line = f"{name:48s} {metrics[name]:14.6g} {unit:9s} ({better} is better)"
            report.append(line + (f"  -> {feeds[0]}" if feeds else ""))
        return result, report
    finally:
        if probes is not None:
            probes.close()
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dexretarget" / "__init__.py").is_file():
        print("error: run from the root of a dexretarget source checkout (no src/dexretarget here)",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workloads = _workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads)}",
              file=sys.stderr)
        return 2

    result, report = bench(workloads[args.workload], args.seed, args.seconds, bool(args.trace), root)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
