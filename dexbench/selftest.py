"""Tiny-size self-test of the benchmark (about a minute on two cores).

    python3 dexbench/selftest.py        # or: python3 -m pytest dexbench/selftest.py

Runs the benchmark machinery on one 12-frame stream per mode, checks the
result against the contract in BENCHMARK.json, checks that the output
checks and the missing-source guard fail when they should, and checks that a
change of BLAS threads inside `train` is not scaled away from `dapg_iter_s`.
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import gen  # noqa: E402
import probe  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny(mode: str) -> run.Workload:
    make = gen.long_streams if mode == "torque" else (lambda seed, count, n: gen.short_streams(seed, count, 1, n, n))
    return run.Workload(f"tiny-{mode}", "self-test", mode, lambda seed, count: make(seed, count, 12), 1)


def bench(mode: str, trace: bool) -> dict:
    result, _ = run.bench(tiny(mode), seed=3, seconds=0.1, trace=trace, root=ROOT)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in table]
    for m in table:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"]), m["name"]
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_spec_matches_contract_and_code():
    assert SPEC["command"] == ["python3", "dexbench/run.py"] and SPEC["paths"] == ["dexbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in run._workloads().values()]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [t[:3] for t in run.PER_LAYER]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_end_to_end_torque():
    m = bench("torque", trace=False)
    assert all(v > 0 for v in m.values())


def test_traced_position_mode_has_no_rnea():
    m = bench("position", trace=True)
    assert m["dynamics.inverse_dynamics.calls_per_frame"] == 0
    assert m["kinematics.keypoint_jacobians.calls_per_frame"] > 0
    assert m["retarget.gn_iters_first_frame"] >= 1
    assert m["dapg.fit_value.mean_ms"] > 0


def test_traced_torque_mode_counts_rnea():
    m = bench("torque", trace=True)
    assert m["dynamics.inverse_dynamics.calls_per_frame"] == 1
    assert m["poseio.solve_wrist.calls_per_frame"] == 1


def test_blas_threads_changed_inside_train_move_scaled_dapg_iter_s():
    """The DAPG speed probe runs in its own process with one BLAS thread.

    A change of the program's BLAS thread count inside `train` leaves the
    probe alone, so it moves the scaled iteration time as much as the raw one.
    """
    set_threads = probe.openblas_function("set_num_threads")
    default = probe.blas_threads()
    if set_threads is None or default < 2:
        pytest.skip("needs numpy's bundled OpenBLAS with more than one thread")
    from dexretarget import dapg

    work = ROOT / ".bench_work" / "selftest-threads"
    shutil.rmtree(work, ignore_errors=True)
    probes = run.ProbeProcess()
    r = run.Run(tiny("position"), 3, work, probes)
    r.demo_paths = gen.write_expert_demos(3, run.EXPERT_DEMOS, work / "expert")
    restore = r.install_iteration_marks()
    probe_threads, iter_s = [], {}
    try:
        for threads in (1, default):
            def train(*args, threads=threads, **kwargs):
                set_threads(threads)
                probe_threads.append(probes.ask("threads"))
                try:
                    return dapg.train(*args, **kwargs)
                finally:
                    set_threads(default)

            r.dapg = SimpleNamespace(train=train, DapgConfig=dapg.DapgConfig)
            r.jobs = []  # the thread count changes the float bits of the learning curve
            job = r.dapg_job()
            iter_s[threads] = [median(s[k] for s in job["iter_s"]) for k in (0, 1)]
    finally:
        restore()
        probes.close()
        shutil.rmtree(work, ignore_errors=True)
    assert not r.failures and probe_threads == ["1", "1"]
    scaled_ratio, raw_ratio = (iter_s[default][k] / iter_s[1][k] for k in (0, 1))
    print(f"dapg_iter_s at {default} vs 1 BLAS threads: scaled {scaled_ratio:.3f}x, raw {raw_ratio:.3f}x")
    assert abs(math.log(scaled_ratio / raw_ratio)) < math.log(1.25), (scaled_ratio, raw_ratio)


def test_sampler_takes_out_pauses_and_scales_by_mean_probe_speed():
    sampler = run.Sampler(probes=object())
    sampler.samples = [(0.0, 0.01, 0.004), (0.2, 0.21, 0.008), (0.4, 0.41, 0.004)]
    scaled, raw = sampler.scale(0.1, 0.3, 0.2)
    # the sample at 0.2 pauses the window for 10 ms; speeds 1/4 ms (before) and 1/8 ms (inside)
    assert raw == pytest.approx(0.19)
    assert scaled == pytest.approx(0.19 * run.PROBE_REF_S["tick"] * (1 / 0.004 + 1 / 0.008) / 2)
    assert run.Sampler(probes=None).scale(0.1, 0.3, 0.2) == (0.2, 0.2)


def test_reference_compare_flags_a_changed_value():
    ref = json.loads(reference.REFERENCE_FILE.read_text())
    assert reference.compare(ref, ref) == []
    changed = json.loads(json.dumps(ref))
    key = sorted(changed["demos"])[0]
    changed["demos"][key]["states"]["sum"][0] += 1e-3
    changed["dapg"]["mean_return"][-1] += 1e-3
    assert len(reference.compare(changed, ref)) == 2


def test_fails_without_source_tree():
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "dexbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        out = subprocess.run([sys.executable, "dexbench/run.py", "--workload", "translate-short",
                              "--seed", "0", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0 and '"correct"' not in out.stdout


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
