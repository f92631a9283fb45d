"""Self-tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs at its tiny size, with and without tracing, and its result
line must carry exactly the metric names and units declared in
BENCHMARK.json.  About a minute on two CPUs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _result(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_declaration():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert workloads.make_jobs(workload, 7) == workloads.make_jobs(workload, 7)
    assert workloads.make_jobs(workload, 7) != workloads.make_jobs(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_sweep_grids_are_strictly_increasing(workload):
    for job in workloads.make_jobs(workload, 11):
        if job.sweep is not None:
            values = job.sweep.values
            assert all(a < b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_result_has_declared_end_to_end_metrics(workload):
    res = _result(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


# spans that must be busy (True) or idle (False) on each workload at any size
PREDICTIONS = {
    "master-grid": {"liouville.rhs": True, "cli.main": True, "effective.integrate_suv": False,
                    "dk.analytic_fidelity": False, "analysis.sweep": False},
    "dense-trajectory": {"liouville.transform": True, "effective.integrate_suv": True,
                         "tripod.frame_matrix": True, "analysis.sweep": False},
    "effective-sweep": {"liouville.rhs": False, "liouville.integrate": False,
                        "effective.effective_rates": True, "pulses.mixing_angles": True,
                        "analysis.transition_time": True, "cli.main": False},
    "analytic-sweep": {"liouville.rhs": False, "effective.integrate_suv": False,
                       "dk.analytic_fidelity": True, "dk.dk_amplitudes": True,
                       "dk.adiabatic_integrals": True, "tripod.geometric_phase": True},
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_result_has_declared_layer_metrics(workload):
    res = _result(workload, 1)
    assert res["correct"] is True
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for span, busy in PREDICTIONS[workload].items():
        assert (metrics[f"{span}.calls"] > 0) is busy, span
    for span in tracing.SELF_TIME:
        assert 0.0 <= metrics[f"{span}.self_s"] <= metrics[f"{span}.busy_s"] + 1e-9
    assert metrics["trace.overhead_ratio"] > 0.0


def test_missing_traced_function_is_an_error(monkeypatch):
    from tripod_stirap import effective

    monkeypatch.delattr(effective, "effective_rates")
    with pytest.raises(LookupError, match="effective.effective_rates"):
        tracing.Tracer().install()
    # a failed install leaves the package unwrapped
    from tripod_stirap import pulses, tripod
    assert tripod.mixing_angles is pulses.mixing_angles


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _run("--workload", "analytic-sweep", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
