"""End-to-end command-line checks: CSV layout, manifests, exit codes."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import liouvillian16 as oracle
from tripod_stirap import analysis, cli, dk, effective, liouville
from tripod_stirap.cli import FIGURES, _figure_config, _fmt, main
from tripod_stirap.errors import AmbiguousCrossing
from tripod_stirap.pulses import Batch, DephasingMatrix, Ordering, PulseConfig

SIM_HEADER = ("t,rho11,rho22,rho33,rho44,rho_a11,rho_a22,rho_a33,rho_a44,"
              "re_rho_a12,im_rho_a12,F2")
SWEEP_HEADER = "gamma,F2_final,F2_tmax,T_tr,theta_g,error_marker"


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0][2:], header, rows


def _config_dict(config_line: str) -> dict:
    return dict(item.split("=", 1) for item in config_line.split())


def _loop_fmt(x) -> str:
    """Number format of the per-value CSV writer, kept as the reference."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        return "nan"
    return f"{x:.12g}"


# ------------------------------------------------------------ number format

@pytest.mark.parametrize("value,text", [
    (0.5, "0.5"), (1.0 / 3.0, "0.333333333333"), (-7.5, "-7.5"),
    (np.float64(0.1), "0.1"), (np.float64(2.0) / 3.0, "0.666666666667"),
    (math.nan, "nan"), (-math.nan, "nan"), (np.float64("nan"), "nan"),
    (math.inf, "inf"), (-math.inf, "-inf"), (-0.0, "-0"), (1e-300, "1e-300"),
    (123456789012345.0, "1.23456789012e+14"),
    (7, "7"), (-3, "-3"), (np.int64(42), "42"), ("overlap", "overlap"),
])
def test_number_format_is_pinned(value, text):
    assert _fmt(value) == text
    assert _loop_fmt(value) == text


def test_number_format_matches_the_reference_on_random_floats():
    rng = np.random.default_rng(7)
    values = np.concatenate([rng.normal(size=500), rng.normal(size=500) * 1e-9,
                             np.exp(rng.uniform(-700.0, 700.0, size=500))])
    for x in values:
        assert _fmt(x) == _loop_fmt(x)
        assert _fmt(float(x)) == _loop_fmt(x)


def test_csv_rows_match_the_per_value_writer(tmp_path, rng):
    # one %-format string over the table must write the bytes of _loop_fmt cell by cell,
    # with each row's string marker last
    floats = np.concatenate([rng.normal(size=(40, 5)) * np.exp(rng.uniform(-300, 300, (40, 5))),
                             [[math.nan, -math.nan, math.inf, -math.inf, -0.0]]])
    markers = ["", "NoCrossing: fidelity never rises through 0.1", "StepSizeUnderflow: x; y",
               "nan"]
    rows = [[*row, markers[i % 4]] for i, row in enumerate(floats.tolist())]
    info = cli._write_csv(tmp_path / "t.csv", {"k": 1.5}, list("abcdef"), floats,
                          (row[-1] for row in rows))
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[:2] == ["# k=1.5", "a,b,c,d,e,f"]
    assert lines[2:] == [",".join(_loop_fmt(x) for x in row) for row in rows]
    assert info["bytes"] == len((tmp_path / "t.csv").read_bytes())
    # a 2-D float array takes one %-format over its flattened values
    table = np.concatenate([floats, [[1e300, -1e300, 1e-300, -1e-300, 0.0]]])
    info = cli._write_csv(tmp_path / "a.csv", {"k": 1.5}, list("abcde"), table)
    lines = (tmp_path / "a.csv").read_text().splitlines()
    assert lines[:2] == ["# k=1.5", "a,b,c,d,e"]
    assert lines[2:] == [",".join(_loop_fmt(x) for x in row) for row in table.tolist()]
    assert lines[-2:] == ["nan,nan,inf,-inf,-0", "1e+300,-1e+300,1e-300,-1e-300,0"]
    assert info["bytes"] == len((tmp_path / "a.csv").read_bytes())


@pytest.mark.parametrize("rows", [0, 1, 2048, 2049, 5000])
def test_csv_blocks_write_the_bytes_of_one_pass(tmp_path, rng, rows):
    # blocks of _CSV_ROWS rows, markers included, give the bytes and the digest of the
    # whole table formatted at once
    table = rng.normal(size=(rows, 3)) * np.exp(rng.uniform(-30, 30, (rows, 3)))
    markers = [f"E{i}" if i % 3 else "" for i in range(rows)]
    cells = "\n".join([",".join(["%.12g"] * 3)] * rows) % tuple(table.ravel().tolist())
    body = "\n".join(f"{line},{marker}" for line, marker in zip(cells.split("\n"), markers))
    want = f"# k=1.5\na,b,c,marker\n{body}\n".encode()
    info = cli._write_csv(tmp_path / "t.csv", {"k": 1.5}, ["a", "b", "c", "marker"], table,
                          iter(markers))
    assert (tmp_path / "t.csv").read_bytes() == want
    assert info == {"path": "t.csv", "sha256": hashlib.sha256(want).hexdigest(),
                    "bytes": len(want)}


# ----------------------------------------------------------------- simulate

def test_simulate_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "run.csv"
    rc = main(["simulate", "--ordering", "overlap", "--gamma", "0.5",
               "--samples", "50", "--out", str(out)])
    assert rc == 0

    config_line, header, rows = _read_csv(out)
    cfg = _config_dict(config_line)
    assert cfg["command"] == "simulate" and cfg["engine"] == "master"
    assert cfg["ordering"] == "overlap" and cfg["gamma"] == "0.5"
    assert cfg["samples"] == "50" and cfg["t_start"] == "-7.5"
    assert ",".join(header) == SIM_HEADER
    assert len(rows) == 50 and all(len(r) == 12 for r in rows)
    first = [float(x) for x in rows[0]]
    assert first[0] == -7.5 and first[1] == pytest.approx(1.0, abs=1e-9)
    last = [float(x) for x in rows[-1]]
    assert sum(last[1:5]) == pytest.approx(1.0, abs=1e-7)

    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["config"]["gamma"] == 0.5
    entry = manifest["outputs"][0]
    blob = out.read_bytes()
    assert entry["path"] == "run.csv"
    assert entry["sha256"] == hashlib.sha256(blob).hexdigest()
    assert entry["bytes"] == len(blob)
    assert manifest["wall_clock_s"] >= 0.0
    # the trajectory's solve and invariant errors go to the manifest, not to the CSV
    stats = manifest["stats"]
    assert set(stats) == {"nfev", "trace_error", "hermiticity_error", "min_eigenvalue"}
    assert isinstance(stats["nfev"], int) and stats["nfev"] > 0
    assert stats["trace_error"] < 1e-9 and stats["hermiticity_error"] == 0.0
    assert stats["min_eigenvalue"] > -1e-8


def test_simulate_is_deterministic(tmp_path):
    args = ["simulate", "--ordering", "scp", "--gamma", "0.3", "--samples", "40"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("engine", ["master", "effective"])
def test_simulate_past_the_derivative_budget_exits_2_with_a_hint(tmp_path, monkeypatch, capsys,
                                                                 engine):
    # scp at tau 1.5 takes over 500 derivative calls in both engines
    monkeypatch.setattr(liouville, "MAX_NFEV", 500)
    out = tmp_path / "run.csv"
    assert main(["simulate", "--ordering", "scp", "--samples", "50", "--engine", engine,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"the {engine} solve stopped at its budget of 500 derivative calls" in err
    # only the master message points to the other engine
    assert ("--engine effective" in err) is (engine == "master")
    assert not out.exists()


def test_final_state_figure_past_the_derivative_budget_exits_2(tmp_path, monkeypatch, capsys):
    # the final-state path stops at the same budget as simulate, and writes nothing
    monkeypatch.setattr(liouville, "MAX_NFEV", 500)
    assert main(["figures", "fig6", "--gamma-grid", "0", "--tau-grid", "1", "--samples", "2",
                 "--out-dir", str(tmp_path)]) == 2
    assert ("the master solve stopped at its budget of 500 derivative calls"
            in capsys.readouterr().err)
    assert not (tmp_path / "fig6.csv").exists()


def _default_batch(name: str) -> list[PulseConfig]:
    fig = FIGURES[name]
    return [_figure_config(fig, dict(zip(fig.axes, point)))
            for point in itertools.product(*fig.axes.values())]


def test_a_final_state_figure_batch_holds_no_stack_of_its_steps():
    # the default fig8 batch (27 members, 17318 calls) keeps its last state and folds its
    # invariants in chunks: 0.63 MB at the peak; a stack of every accepted step, and the
    # complex states built from it, take 16 MB
    cfgs = _default_batch("fig8")
    tracemalloc.start()
    try:
        stats = [traj.stats for traj in liouville.integrate_many(cfgs, samples=None)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(stats) == 27 and stats[0]["nfev"] == 17318
    assert peak < 1.5e6


def test_an_oracle_solve_of_the_default_fig6_batch_keeps_six_coordinates_at_zero():
    # rho = P rho* P with P = diag(1, -1, 1, 1): on the 16 real coordinates of the complex
    # Liouvillian (liouvillian16), Re rho_01, Re rho_12, Re rho_13, Im rho_02, Im rho_03 and
    # Im rho_23 are exactly 0.0 at every accepted step of the default fig6 batch; the master
    # engine's 10 coordinates, whose error norm counts those 16, take the same 9722 calls
    cfgs = _default_batch("fig6")
    batch = Batch.of(cfgs)
    rhs, weights, y0 = oracle.derivative(liouville.Basis.BARE, batch)
    zero = []
    y, nfev = liouville._solve_batch(
        rhs, weights, y0, batch, None, "{}",
        lambda rows: zero.append(rows.reshape(len(rows), -1, 16)[..., oracle.ZERO]))
    assert len(zero) > 1 and all(np.all(rows == 0.0) for rows in zero)
    trajs = list(liouville.integrate_many(cfgs, samples=None))
    assert nfev == trajs[0].stats["nfev"] == 9722
    states = np.concatenate([traj.states for traj in trajs])
    assert np.max(np.abs(oracle.density(y.reshape(-1, 16)) - states)) < 1e-13


@pytest.mark.parametrize("name,nfev", [("fig5a", 15914), ("fig5b", 12950)])
def test_default_final_state_batches_keep_their_derivative_counts(name, nfev):
    # the counts of the 16-coordinate solve, which do not depend on the machine
    assert next(liouville.integrate_many(_default_batch(name), samples=None)).stats["nfev"] == nfev


@pytest.mark.parametrize("engine,basis", [("master", "bare"), ("master", "adiabatic"),
                                          ("effective", "bare")])
def test_simulate_rows_match_the_per_sample_loop(tmp_path, engine, basis):
    out = tmp_path / "run.csv"
    assert main(["simulate", "--ordering", "scp", "--gamma", "0.3", "--samples", "60",
                 "--engine", engine, "--basis", basis, "--out", str(out)]) == 0
    cfg = PulseConfig(ordering=Ordering.SCP, omega0=50.0, tau=1.5,
                      gamma=DephasingMatrix.equal(0.3))
    if engine == "master":
        traj = liouville.integrate(cfg, basis=liouville.Basis(basis), samples=60)
    else:
        traj = effective.integrate_suv(cfg, samples=60)
    expected = []
    for i in range(len(traj.t)):
        row = [traj.t[i],
               *(np.real(traj.rho[i, j, j]) for j in range(4)),
               *(np.real(traj.rho_a[i, j, j]) for j in range(4)),
               np.real(traj.rho_a[i, 0, 1]), np.imag(traj.rho_a[i, 0, 1]),
               traj.fidelity[i]]
        expected.append(",".join(_loop_fmt(x) for x in row))
    assert out.read_text().splitlines()[2:] == expected


def test_both_engines_report_min_eigenvalue_by_one_rule(tmp_path):
    # no sample lies below -1e-12, so each manifest holds its final state's least eigenvalue,
    # from LAPACK on the master engine and in closed form on the effective one; the dephased
    # end state is mixed, so that is not the least over the run, which starts pure
    cfg = PulseConfig(ordering=Ordering.SCP, omega0=50.0, tau=1.5,
                      gamma=DephasingMatrix.equal(0.3))
    runs = {"master": liouville.integrate(cfg, samples=60),
            "effective": effective.integrate_suv(cfg, samples=60)}
    reported = {}
    for engine, traj in runs.items():
        out = tmp_path / f"{engine}.csv"
        assert main(["simulate", "--ordering", "scp", "--gamma", "0.3", "--samples", "60",
                     "--engine", engine, "--out", str(out)]) == 0
        stats = json.loads(out.with_name(out.name + ".manifest.json").read_text())["stats"]
        least = np.linalg.eigvalsh(traj.rho)[:, 0]
        assert least.min() > -1e-12 and least[-1] > 0.05
        assert abs(stats["min_eigenvalue"] - least[-1]) <= 1e-15
        reported[engine] = stats["min_eigenvalue"]
    assert abs(reported["master"] - reported["effective"]) < 1e-2


def test_simulate_effective_engine(tmp_path):
    out = tmp_path / "eff.csv"
    rc = main(["simulate", "--ordering", "overlap", "--gamma", "1.0",
               "--engine", "effective", "--samples", "40", "--out", str(out)])
    assert rc == 0
    config_line, _, rows = _read_csv(out)
    assert _config_dict(config_line)["engine"] == "effective"
    assert len(rows) == 40


def test_simulate_adiabatic_basis_matches_bare(tmp_path):
    common = ["simulate", "--ordering", "overlap", "--gamma", "1.0", "--samples", "30"]
    bare, adia = tmp_path / "bare.csv", tmp_path / "adia.csv"
    assert main(common + ["--out", str(bare)]) == 0
    assert main(common + ["--basis", "adiabatic", "--out", str(adia)]) == 0
    _, _, rows_b = _read_csv(bare)
    _, _, rows_a = _read_csv(adia)
    tab_b = np.array([[float(x) for x in r] for r in rows_b])
    tab_a = np.array([[float(x) for x in r] for r in rows_a])
    assert np.max(np.abs(tab_b - tab_a)) < 1e-6


def test_simulate_effective_engine_has_no_basis_choice(tmp_path, capsys):
    rc = main(["simulate", "--ordering", "overlap", "--engine", "effective",
               "--basis", "adiabatic", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "basis selection applies to the master engine" in capsys.readouterr().err


def test_simulate_rejects_unknown_engine(tmp_path, capsys):
    rc = main(["simulate", "--ordering", "overlap", "--engine", "analytic",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "engine must be master or effective" in capsys.readouterr().err


def test_simulate_rejects_bad_samples(tmp_path, capsys):
    rc = main(["simulate", "--ordering", "overlap", "--samples", "1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "samples must be at least 2" in capsys.readouterr().err


def test_simulate_requires_an_ordering(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "an ordering is required" in capsys.readouterr().err


def test_simulate_honors_window_flags(tmp_path):
    out = tmp_path / "win.csv"
    rc = main(["simulate", "--ordering", "overlap", "--engine", "effective",
               "--t-start", "-5", "--t-end", "5", "--samples", "21", "--out", str(out)])
    assert rc == 0
    config_line, _, rows = _read_csv(out)
    cfg = _config_dict(config_line)
    assert cfg["t_start"] == "-5" and cfg["t_end"] == "5"
    assert float(rows[0][0]) == -5.0 and float(rows[-1][0]) == 5.0


# -------------------------------------------------------------- gamma input

def test_gamma_file_roundtrip(tmp_path):
    matrix = tmp_path / "rates.txt"
    matrix.write_text(
        "# pairwise dephasing rates\n"
        "0 0.2 0.5 0.5\n0.2 0 0.2 0.2\n0.5 0.2 0 1.0\n0.5 0.2 1.0 0\n")
    out = tmp_path / "run.csv"
    rc = main(["simulate", "--ordering", "overlap", "--engine", "effective",
               "--gamma-file", str(matrix), "--samples", "20", "--out", str(out)])
    assert rc == 0
    config_line, _, _ = _read_csv(out)
    assert _config_dict(config_line)["gamma_file"] == str(matrix)


def test_asymmetric_gamma_file_is_rejected(tmp_path, capsys):
    matrix = tmp_path / "rates.txt"
    matrix.write_text("0 1 1 1\n0.5 0 1 1\n1 1 0 1\n1 1 1 0\n")
    rc = main(["simulate", "--ordering", "overlap", "--gamma-file", str(matrix),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "dephasing matrix must be symmetric" in capsys.readouterr().err


def test_gamma_flag_and_file_conflict(tmp_path, capsys):
    # both halves of the pair as flags or both as config keys exit 2 before any output
    matrix = tmp_path / "rates.txt"
    matrix.write_text("0 1 1 1\n1 0 1 1\n1 1 0 1\n1 1 1 0\n")
    both = tmp_path / "both.cfg"
    both.write_text(f"gamma = 1.0\ngamma_file = {matrix}\n")
    out = tmp_path / "x.csv"
    for pair in (["--gamma", "1.0", "--gamma-file", str(matrix)], ["--config", str(both)]):
        rc = main(["simulate", "--ordering", "overlap", *pair, "--out", str(out)])
        assert rc == 2
        assert "either --gamma or --gamma-file, not both" in capsys.readouterr().err
        assert not out.exists()
    # a flag beats the other half of the pair in the file
    only_file = tmp_path / "file.cfg"
    only_file.write_text(f"gamma_file = {matrix}\n")
    rc = main(["simulate", "--ordering", "overlap", "--config", str(only_file), "--gamma", "0.25",
               "--engine", "effective", "--samples", "40", "--out", str(out)])
    assert rc == 0
    assert _config_dict(_read_csv(out)[0])["gamma"] == "0.25"


# -------------------------------------------------------------------- sweep

def test_analytic_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--ordering", "overlap", "--axis", "gamma",
               "--values", "0,0.5,1", "--engine", "analytic", "--out", str(out)])
    assert rc == 0
    config_line, header, rows = _read_csv(out)
    cfg = _config_dict(config_line)
    assert cfg["engine"] == "analytic" and cfg["axis"] == "gamma"
    assert cfg["values"] == "0,0.5,1" and cfg["epsilon"] == "0.1"
    assert ",".join(header) == SWEEP_HEADER
    assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]
    law = math.log(9.0) / 3.0
    for r in rows:
        assert float(r[3]) == pytest.approx(law, rel=1e-10)
        assert r[5] == ""
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)


def test_sweep_range_syntax(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--ordering", "overlap", "--axis", "gamma",
               "--range", "0:1:3", "--engine", "analytic", "--out", str(out)])
    assert rc == 0
    _, _, rows = _read_csv(out)
    assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]


def test_sweep_rejects_malformed_range(tmp_path, capsys):
    rc = main(["sweep", "--ordering", "overlap", "--axis", "gamma",
               "--range", "0:1", "--engine", "analytic", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "range must be a:b:n" in capsys.readouterr().err


def test_sweep_values_and_range_conflict(tmp_path, capsys):
    # both halves of the pair as flags or both as config keys exit 2 before any output
    both = tmp_path / "both.cfg"
    both.write_text("values = 1\nrange = 0:1:2\n")
    out = tmp_path / "x.csv"
    args = ["sweep", "--ordering", "overlap", "--axis", "gamma", "--engine", "analytic",
            "--out", str(out)]
    for pair in (["--values", "1", "--range", "0:1:2"], ["--config", str(both)]):
        rc = main(args + pair)
        assert rc == 2
        assert "either --values or --range, not both" in capsys.readouterr().err
        assert not out.exists()
    rc = main(args)
    assert rc == 2
    assert "sweep needs --values or --range" in capsys.readouterr().err
    # a flag beats the other half of the pair in the file
    only_range = tmp_path / "range.cfg"
    only_range.write_text("range = 0:1:3\n")
    assert main(args + ["--config", str(only_range), "--values", "0.5"]) == 0
    assert [row[0] for row in _read_csv(out)[2]] == ["0.5"]


def test_sweep_rejects_analytic_with_other_orderings(tmp_path, capsys):
    rc = main(["sweep", "--ordering", "scp", "--axis", "gamma", "--values", "0,1",
               "--engine", "analytic", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "analytic engine requires overlap ordering" in capsys.readouterr().err


@pytest.mark.usefixtures("watchdog")
@pytest.mark.parametrize("values", ["1,1e300", "1e300"])
def test_analytic_sweep_past_the_window_bound_exits_2(tmp_path, capsys, values):
    # the largest value goes through the config checks too, not only the smallest
    out = tmp_path / "x.csv"
    rc = main(["sweep", "--engine", "analytic", "--ordering", "overlap", "--axis", "tau",
               "--values", values, "--gamma", "1", "--out", str(out)])
    assert rc == 2
    assert "pulse widths long" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [["--axis", "gamma", "--values", "0,1e4", "--tau", "1.5"],
                                  ["--axis", "tau", "--values", "0.001,1", "--gamma", "2"]],
                         ids=["gamma", "tau"])
def test_analytic_sweep_marks_rows_whose_gamma_ratios_overflow(tmp_path, args):
    out = tmp_path / "x.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["sweep", "--engine", "analytic", "--ordering", "overlap", *args,
                   "--out", str(out)])
    assert rc == 0 and not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    rows = _read_csv(out)[2]
    marked = [row for row in rows if row[5]]
    assert len(marked) == 1 and marked[0][5].startswith("GammaPole: ")
    assert all("nan" not in row for row in rows if not row[5])


@pytest.mark.parametrize(("args", "rc", "marked"), [
    (["--values", "0.5,1", "--t-max-eval", "-5"], 3, [0, 1]),
    (["--values", "1.2,1.22,1.24", "--tau", "0.25"], 0, [1])],
    ids=["before-the-pulses", "next-to-a-pole"])
def test_analytic_sweep_marks_rows_whose_f2_leaves_the_unit_interval(tmp_path, args, rc, marked):
    # F2_tmax read 6.12 and 64.6 before the pulses, and -0.065 at gamma 1.22 next to a pole,
    # written as numbers with exit 0; a sweep whose every row is marked exits 3
    out = tmp_path / "x.csv"
    assert main(["sweep", "--engine", "analytic", "--ordering", "overlap", "--axis", "gamma",
                 *args, "--out", str(out)]) == rc
    rows = _read_csv(out)[2]
    assert [i for i, row in enumerate(rows) if row[5]] == marked
    for i, row in enumerate(rows):
        if i in marked:
            assert row[1:5] == ["nan"] * 4 and row[5] == (
                "GammaPole: the closed-form F2 is below 0 or above 1 "
                "(parameters outside model validity)")
        else:
            assert all(0.0 <= float(x) <= 1.0 for x in row[1:3])


def test_sweep_rejects_unknown_engine(tmp_path, capsys):
    rc = main(["sweep", "--ordering", "overlap", "--axis", "gamma", "--values", "1",
               "--engine", "magic", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "engine must be master, effective or analytic" in capsys.readouterr().err


def test_sweep_exit_code_when_every_point_fails(tmp_path, monkeypatch, capsys):
    def every_row_fails(args, error, code):
        out = tmp_path / f"{error}.csv"
        rc = main(["sweep", "--axis", "gamma", *args, "--out", str(out)])
        assert rc == code
        assert ("error: every sweep point failed" in capsys.readouterr().err) == (code == 3)
        _, _, rows = _read_csv(out)
        assert len(rows) == 2
        for r in rows:
            assert r[3] == "nan"
            assert r[5].startswith(error)
            assert "," not in r[5]

    # strong dephasing saturates the fidelity near 1/4, far below the 0.9
    # threshold, so every transition-time extraction fails; the rows keep their F2 and
    # theta_g, and the sweep exits 0
    every_row_fails(["--ordering", "overlap", "--values", "5,10", "--engine", "effective",
                     "--samples", "300"], "NoCrossing", 0)
    # a master grid stopped at the derivative budget exits 3, where simulate exits 2:
    # the sweep still writes its rows, each with its marker
    monkeypatch.setattr(liouville, "MAX_NFEV", 500)
    every_row_fails(["--ordering", "scp", "--values", "0,0.5", "--samples", "50"],
                    "StepBudgetExceeded", 3)


def test_sweep_master_engine_with_epsilon(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--ordering", "overlap", "--axis", "tau", "--values", "1.5",
               "--epsilon", "0.2", "--samples", "300", "--out", str(out)])
    assert rc == 0
    config_line, header, rows = _read_csv(out)
    assert _config_dict(config_line)["epsilon"] == "0.2"
    assert header[0] == "tau"
    assert math.isfinite(float(rows[0][3])) and float(rows[0][3]) > 0.0


@pytest.mark.parametrize("engine", ["master", "effective", "analytic"])
@pytest.mark.parametrize("flag,value,message", [
    ("--epsilon", "0", "eps must be inside (0, 1/2)"),
    ("--epsilon", "0.7", "eps must be inside (0, 1/2)"),
    ("--epsilon", "nan", "eps must be inside (0, 1/2)"),
    ("--t-max-eval", "nan", "t_max_eval must be a number or inf"),
])
def test_sweep_rejects_bad_evaluation_settings_up_front(tmp_path, capsys, engine, flag, value,
                                                        message):
    t0 = time.perf_counter()
    out = tmp_path / "x.csv"
    rc = main(["sweep", "--ordering", "overlap", "--axis", "gamma", "--values", "0,1",
               "--engine", engine, flag, value, "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert time.perf_counter() - t0 < 5.0
    assert not list(tmp_path.iterdir())


def test_sweep_accepts_an_infinite_evaluation_time(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--ordering", "overlap", "--axis", "gamma", "--values", "0.5,1",
               "--engine", "analytic", "--t-max-eval", "inf", "--out", str(out)])
    assert rc == 0
    _, _, rows = _read_csv(out)
    assert [r[2] for r in rows] == [r[1] for r in rows]  # F2_tmax is the long-time F2


@pytest.mark.parametrize("engine", ["analytic", "effective"])
def test_sweep_csv_matches_the_per_cell_writer(tmp_path, engine):
    # a failing row on each: a gamma-function pole, a fidelity that never reaches 0.9
    cfg = PulseConfig(ordering="overlap", omega0=50.0, tau=1.5)
    if engine == "analytic":
        p1 = dk.dk_params(1.0, cfg)
        values, failure = [0.5, 1.0, 0.5 / -(p1.delta + p1.beta), 8.0], "GammaPole"
    else:
        values, failure = [0.0, 1.0, 5.0], "NoCrossing"
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--ordering", "overlap", "--axis", "gamma", "--engine", engine,
                 "--values", ",".join(map(repr, values)), "--samples", "300",
                 "--out", str(out)]) == 0
    result = analysis.sweep(cfg, "gamma", values, analysis.Engine(engine), samples=300)
    lines = out.read_text().splitlines()
    assert lines[1] == SWEEP_HEADER
    assert lines[2:] == [",".join(_fmt(x) for x in (p.value, p.F2_final, p.F2_tmax, p.T_tr,
                                                    p.theta_g, (p.error or "").replace(",", ";")))
                         for p in result.points]
    markers = [line.split(",")[5] for line in lines[2:]]
    assert markers[0] == "" and any(marker.startswith(failure) for marker in markers)


def test_sweep_manifest_counts_each_batch_once(tmp_path, monkeypatch):
    # the middle row's derivative turns NaN mid-window: the grid fails, and the
    # two rows around it are solved alone, each a batch with its own count
    lone = [liouville.integrate(PulseConfig(ordering="overlap", omega0=50.0, tau=1.5,
                                            gamma=DephasingMatrix.equal(g)),
                                samples=200).stats["nfev"] for g in (0.0, 0.1)]
    rhs = liouville.rhs_bare

    def poisoned(s, y, batch, **weights):
        out = rhs(s, y, batch, **weights)
        rates = np.array([cfg.gamma.equal_rate() for cfg in batch.cfgs])
        # the flat state is (B, 10) member by member
        bad = (rates == 0.05) & (batch.start + s * batch.span > 0.0)
        out.reshape(len(batch), 10)[bad] = np.nan
        return out

    monkeypatch.setattr(liouville, "rhs_bare", poisoned)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--ordering", "overlap", "--axis", "gamma", "--values",
                 "0,0.05,0.1", "--samples", "200", "--out", str(out)]) == 0
    report = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())["sweep"]
    assert report == {"batches": [{"nfev": lone[0], "rows": [0]}, {"nfev": lone[1], "rows": [2]}],
                      "warnings": []}
    assert _read_csv(out)[2][1][5].startswith("StepSizeUnderflow")


# ------------------------------------------------------------------ figures

def test_figures_rejects_unknown_name(tmp_path, capsys):
    rc = main(["figures", "fig99", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "unknown figure" in capsys.readouterr().err


def test_fig3_emits_numeric_and_analytic_tables(tmp_path):
    rc = main(["figures", "fig3", "--gamma-grid", "0,1", "--samples", "300",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    _, header_n, rows_n = _read_csv(tmp_path / "fig3_numeric.csv")
    _, header_a, rows_a = _read_csv(tmp_path / "fig3_analytic.csv")
    assert header_n == header_a == ["gamma", "rho11", "rho22", "rho33", "rho44"]
    for rn, ra in zip(rows_n, rows_a):
        num = [float(x) for x in rn]
        ana = [float(x) for x in ra]
        assert num[0] == ana[0]
        assert sum(num[1:]) == pytest.approx(1.0, abs=1e-6)
        assert sum(ana[1:]) == pytest.approx(1.0, abs=1e-12)
        assert max(abs(n - a) for n, a in zip(num[1:], ana[1:])) < 0.02

    manifest = json.loads((tmp_path / "fig3.manifest.json").read_text())
    names = {entry["path"] for entry in manifest["outputs"]}
    assert names == {"fig3_numeric.csv", "fig3_analytic.csv"}
    for entry in manifest["outputs"]:
        blob = (tmp_path / entry["path"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(blob).hexdigest()


def test_fig4_columns(tmp_path):
    rc = main(["figures", "fig4", "--gamma-grid", "0,1", "--samples", "300",
               "--t-max-eval", "4.0", "--out-dir", str(tmp_path)])
    assert rc == 0
    config_line, header, rows = _read_csv(tmp_path / "fig4.csv")
    assert header == ["gamma", "f2_master", "f2_analytic_tmax", "f2_analytic_final"]
    assert _config_dict(config_line)["t_max_eval"] == "4"
    row0 = [float(x) for x in rows[0]]
    assert row0[1] > 0.99 and row0[2] == 1.0 and row0[3] == 1.0
    row1 = [float(x) for x in rows[1]]
    assert row1[2] > row1[3]          # finite-time value keeps some coherence
    assert abs(row1[1] - row1[2]) < 0.05


def test_fig4_lists_the_closed_form_rows_whose_gamma_ratios_overflow(tmp_path, capsys):
    # at gamma 3000 the gamma-function ratios overflow: the closed-form cells stay NaN in the
    # CSV, nothing reaches stderr, and the manifest marks the row as analysis.sweep does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["figures", "fig4", "--gamma-grid", "0,3000", "--samples", "60",
                     "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    _, _, rows = _read_csv(tmp_path / "fig4.csv")
    assert [row[2:] for row in rows] == [["1", "1"], ["nan", "nan"]]
    assert float(rows[1][1]) < 0.01
    manifest = json.loads((tmp_path / "fig4.manifest.json").read_text())
    assert manifest["closed_form"] == [{"row": 1, "gamma": 3000.0, "error": (
        "GammaPole: the gamma-function ratios overflow (gamma T^2 / tau too large)")}]
    base = PulseConfig(ordering=Ordering.OVERLAP, omega0=50.0, tau=1.5)
    marked = analysis.sweep(base, "gamma", [3000.0], analysis.Engine.ANALYTIC)
    assert marked.errors == (manifest["closed_form"][0]["error"],)
    # a grid whose closed forms are all finite lists none
    assert main(["figures", "fig4", "--gamma-grid", "0,1", "--samples", "60",
                 "--out-dir", str(tmp_path)]) == 0
    assert "closed_form" not in json.loads((tmp_path / "fig4.manifest.json").read_text())


def test_fig4_lists_the_closed_form_rows_whose_f2_leaves_the_unit_interval(tmp_path):
    # before the pulses the closed-form F2_tmax reads 6.12 and 64.6: both rows' closed-form
    # cells stay NaN, listed as the analytic sweep marks them, next to the master column
    assert main(["figures", "fig4", "--gamma-grid", "0.5,1", "--t-max-eval", "-5",
                 "--samples", "60", "--out-dir", str(tmp_path)]) == 0
    _, _, rows = _read_csv(tmp_path / "fig4.csv")
    assert [row[2:] for row in rows] == [["nan", "nan"]] * 2
    assert all(0.0 < float(row[1]) < 1.0 for row in rows)
    error = ("GammaPole: the closed-form F2 is below 0 or above 1 "
             "(parameters outside model validity)")
    assert json.loads((tmp_path / "fig4.manifest.json").read_text())["closed_form"] == [
        {"row": 0, "gamma": 0.5, "error": error}, {"row": 1, "gamma": 1.0, "error": error}]


def test_fig5b_lists_a_zero_delay_row_and_keeps_its_master_cells(tmp_path):
    # the closed forms diverge at tau = 0: that row's closed-form cell stays NaN and the
    # manifest lists it, where the figure used to exit 2 after the whole master solve
    assert main(["figures", "fig5b", "--omega0-list", "20", "--tau-grid", "0,1",
                 "--out-dir", str(tmp_path)]) == 0
    _, header, rows = _read_csv(tmp_path / "fig5b.csv")
    assert header == ["tau", "f2_omega_20", "f2_analytic_final"]
    assert rows[0][2] == "nan" and 0.0 < float(rows[0][1]) < 1.0
    assert 0.0 < float(rows[1][2]) < 1.0
    assert json.loads((tmp_path / "fig5b.manifest.json").read_text())["closed_form"] == [
        {"row": 0, "tau": 0.0, "error": "ZeroDelay: pulse delay must be positive"}]


@pytest.mark.parametrize("args", [["fig4", "--gamma-grid", "1,0.5"],
                                  ["fig5b", "--tau-grid", "1,1"]], ids=["fig4", "fig5b"])
def test_closed_form_figures_refuse_a_grid_that_does_not_increase(tmp_path, capsys, args,
                                                                  monkeypatch):
    # the rows axis of the closed-form columns is an analytic sweep's axis: exit 2 before
    # any master solve
    monkeypatch.setattr(liouville, "integrate_many", None)
    assert main(["figures", *args, "--out-dir", str(tmp_path)]) == 2
    assert "values must be strictly increasing" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args", [["fig4", "--gamma-grid", "1,0.5"], ["fig5b", "--tau-grid", "1,1"],
                                  ["fig7", "--tau-grid", "2,1"]], ids=["fig4", "fig5b", "fig7"])
def test_a_grid_that_does_not_increase_names_its_flag_and_figure(tmp_path, capsys, args,
                                                                 monkeypatch):
    monkeypatch.setattr(liouville, "integrate_many", None)
    assert main(["figures", *args, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == \
        f"error: {args[1]} of {args[0]}: values must be strictly increasing\n"


def test_fig9a_manifest_records_its_solve(tmp_path):
    # the trajectory figure reports its batch as the final-state figures do, from the same
    # sampled solve whose F2 the CSV holds
    assert main(["figures", "fig9a", "--tau-grid", "0.5,1.5", "--samples", "80",
                 "--out-dir", str(tmp_path)]) == 0
    trajs = list(liouville.integrate_many([PulseConfig(ordering=Ordering.FRACTIONAL,
                                                       omega0=200.0, tau=t) for t in (0.5, 1.5)],
                                          samples=80))
    assert json.loads((tmp_path / "fig9a.manifest.json").read_text())["solve"] == (
        cli._solve_report([traj.stats for traj in trajs]))
    assert trajs[0].stats["nfev"] > 0


def test_fig5_column_layout(tmp_path):
    rc = main(["figures", "fig5a", "--tau-grid", "1.0,1.5", "--omega0-list", "20,50",
               "--samples", "300", "--out-dir", str(tmp_path)])
    assert rc == 0
    _, header, rows = _read_csv(tmp_path / "fig5a.csv")
    assert header == ["tau", "f2_omega_20", "f2_omega_50"]
    assert len(rows) == 2

    rc = main(["figures", "fig5b", "--tau-grid", "1.0,1.5", "--omega0-list", "20,50",
               "--samples", "300", "--out-dir", str(tmp_path)])
    assert rc == 0
    _, header_b, rows_b = _read_csv(tmp_path / "fig5b.csv")
    assert header_b == ["tau", "f2_omega_20", "f2_omega_50", "f2_analytic_final"]
    for r in rows_b:
        vals = [float(x) for x in r]
        assert abs(vals[2] - vals[3]) < 0.05


def test_fig9a_long_format(tmp_path):
    rc = main(["figures", "fig9a", "--tau-grid", "1.0", "--samples", "150",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    _, header, rows = _read_csv(tmp_path / "fig9a.csv")
    assert header == ["tau", "t", "f2"]
    assert len(rows) == 150
    assert {float(r[0]) for r in rows} == {1.0}
    f2 = [float(r[2]) for r in rows]
    assert f2[-1] > 0.9 and min(f2) > -1e-9


def test_fig9a_rows_match_the_per_sample_loop(tmp_path):
    taus = (0.5, 1.5)
    assert main(["figures", "fig9a", "--tau-grid", "0.5,1.5", "--samples", "80",
                 "--out-dir", str(tmp_path)]) == 0
    trajs = liouville.integrate_many([PulseConfig(ordering=Ordering.FRACTIONAL, omega0=200.0,
                                                  tau=t) for t in taus], samples=80)
    expected = [",".join(_loop_fmt(x) for x in (tau, traj.t[i], traj.fidelity[i]))
                for tau, traj in zip(taus, trajs) for i in range(len(traj.t))]
    assert (tmp_path / "fig9a.csv").read_text().splitlines()[2:] == expected


def test_figures_are_deterministic(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        rc = main(["figures", "fig3", "--gamma-grid", "0.5", "--samples", "200",
                   "--out-dir", str(d)])
        assert rc == 0
    assert (d1 / "fig3_numeric.csv").read_bytes() == (d2 / "fig3_numeric.csv").read_bytes()
    assert (d1 / "fig3_analytic.csv").read_bytes() == (d2 / "fig3_analytic.csv").read_bytes()


def test_batched_figures_match_per_point(tmp_path):
    # a figure integrates its whole grid in one batch; every cell must agree
    # with its point solved alone to the batch contract's 1e-9
    gammas = (0.0, 0.5)
    assert main(["figures", "fig3", "--gamma-grid", "0,0.5", "--samples", "200",
                 "--out-dir", str(tmp_path)]) == 0
    _, _, rows = _read_csv(tmp_path / "fig3_numeric.csv")
    base = PulseConfig(ordering=Ordering.OVERLAP, omega0=50.0, tau=1.5)
    for g, row in zip(gammas, rows):
        alone = liouville.integrate(base.with_updates(gamma=DephasingMatrix.equal(g)),
                                    samples=200)
        assert np.max(np.abs(np.array(row[1:], float) - alone.populations[-1])) < 1e-9


def test_default_fig5a_batch_meets_the_per_member_contract():
    # the step control sees an RMS error over all 40 members, which can dilute
    # the hardest member's own error; the final F2 of that member, Omega0=200
    # at tau=0.25 (the figure's cell), must still lie within 1e-8 of a lone
    # solve at rtol 1e-13, and its whole 2000-sample F2 trajectory within 1.1e-8
    fig = FIGURES["fig5a"]
    cfgs = [_figure_config(fig, dict(zip(fig.axes, point)))
            for point in itertools.product(*fig.axes.values())]
    assert len(cfgs) == 40
    b = next(i for i, cfg in enumerate(cfgs) if cfg.omega0 == 200.0 and cfg.tau == 0.25)
    traj = next(itertools.islice(liouville.integrate_many(cfgs), b, None))
    alone = Batch.of([cfgs[b]])
    y0 = np.zeros(10)
    y0[0] = 1.0
    sol = solve_ivp(liouville.rhs_bare, (0.0, 1.0), y0, method="DOP853",
                    t_eval=np.linspace(0.0, 1.0, 2000), args=(alone,), rtol=1e-13, atol=1e-15)
    reference = traj.target.expectation(liouville.density(sol.y.T))
    assert abs(traj.fidelity[-1] - reference[-1]) < 1e-8
    # and over the whole sampled trajectory, as integrate_many states
    assert np.max(np.abs(traj.fidelity - reference)) < 1.1e-8


def test_f2_figure_builds_no_adiabatic_states(tmp_path, monkeypatch):
    # the master engine solves in the bare basis and F2 is read there
    calls = []
    for name in ("to_adiabatic", "from_adiabatic"):
        monkeypatch.setattr(liouville, name, lambda *args, name=name: calls.append(name))
    assert main(["figures", "fig6", "--gamma-grid", "0,1", "--tau-grid", "1,1.5",
                 "--samples", "50", "--out-dir", str(tmp_path)]) == 0
    assert calls == []


def test_mixed_batch_figure_is_byte_identical_across_runs(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        assert main(["figures", "fig5b", "--tau-grid", "1.0,1.5", "--omega0-list", "20,50",
                     "--samples", "100", "--out-dir", str(d)]) == 0
    assert (d1 / "fig5b.csv").read_bytes() == (d2 / "fig5b.csv").read_bytes()


# every figure at a tiny grid: name, flags, {csv: header}, rows per csv, comment-line keys;
# the two-axis grids are not square, so a transposed table cannot pass
TINY_FIGURES = [
    ("fig3", ["--gamma-grid", "0,1"],
     {"fig3_numeric.csv": "gamma,rho11,rho22,rho33,rho44",
      "fig3_analytic.csv": "gamma,rho11,rho22,rho33,rho44"},
     2, "ordering omega0 tau samples engine"),
    ("fig4", ["--gamma-grid", "0,1", "--t-max-eval", "3"],
     {"fig4.csv": "gamma,f2_master,f2_analytic_tmax,f2_analytic_final"},
     2, "ordering omega0 tau t_max_eval samples"),
    ("fig5a", ["--tau-grid", "1,1.5,2", "--omega0-list", "20,50"],
     {"fig5a.csv": "tau,f2_omega_20,f2_omega_50"}, 3, "ordering gamma omega0_list samples"),
    ("fig5b", ["--tau-grid", "1,1.5,2", "--omega0-list", "20,50"],
     {"fig5b.csv": "tau,f2_omega_20,f2_omega_50,f2_analytic_final"},
     3, "ordering gamma omega0_list samples"),
    ("fig6", ["--gamma-grid", "0,1", "--tau-grid", "1,1.25,2"],
     {"fig6.csv": "gamma,f2_tau_1,f2_tau_1.25,f2_tau_2"}, 2, "ordering omega0 tau_list samples"),
    ("fig7", ["--tau-grid", "1,2"],
     {"fig7.csv": "tau,T_tr,error_marker"}, 2, "ordering omega0 gamma epsilon samples"),
    ("fig8", ["--gamma-grid", "0,1", "--tau-grid", "0.5,1"],
     {"fig8.csv": "gamma,f2_tau_0.5,f2_tau_1"}, 2, "ordering omega0 tau_list samples"),
    ("fig9a", ["--tau-grid", "0.5,1"],
     {"fig9a.csv": "tau,t,f2"}, 2 * 60, "ordering omega0 gamma tau_list samples"),
    ("fig9b", ["--tau-grid", "1,1.5"],
     {"fig9b.csv": "tau,T_tr,error_marker"}, 2, "ordering omega0 gamma epsilon samples"),
]


@pytest.mark.parametrize("name,flags,headers,n_rows,keys", TINY_FIGURES,
                         ids=[case[0] for case in TINY_FIGURES])
def test_every_figure_at_a_tiny_grid(tmp_path, monkeypatch, name, flags, headers, n_rows, keys):
    # the F2 and population cells read only each member's final state, so their master
    # batch has no output grid; the trajectory and T_tr cells keep theirs
    asked = []
    solve = liouville.integrate_many

    def record(cfgs, *args, samples=2000, **kwargs):
        asked.append(samples)
        return solve(cfgs, *args, samples=samples, **kwargs)

    monkeypatch.setattr(liouville, "integrate_many", record)
    assert main(["figures", name, *flags, "--samples", "60", "--out-dir", str(tmp_path)]) == 0
    assert asked == ([None] if FIGURES[name].cell in ("f2", "populations") else [60])
    manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
    assert manifest["config"] == {"command": "figures", "figure": name}
    assert [entry["path"] for entry in manifest["outputs"]] == list(headers)
    for entry, (filename, header) in zip(manifest["outputs"], headers.items()):
        config_line, head, rows = _read_csv(tmp_path / filename)
        assert ",".join(head) == header
        assert len(rows) == n_rows and all(len(r) == len(head) for r in rows)
        cfg = _config_dict(config_line)
        assert list(cfg) == ["command", "figure", *keys.split()]
        assert cfg["figure"] == name and cfg["samples"] == "60"
        blob = (tmp_path / filename).read_bytes()
        assert entry["sha256"] == hashlib.sha256(blob).hexdigest()
        assert entry["bytes"] == len(blob)


def test_final_state_figure_rows_do_not_depend_on_samples(tmp_path):
    rows = []
    for samples in ("2", "2000"):
        out = tmp_path / samples
        assert main(["figures", "fig6", "--gamma-grid", "0,1", "--tau-grid", "1,2",
                     "--samples", samples, "--out-dir", str(out)]) == 0
        config_line, _, table = _read_csv(out / "fig6.csv")
        assert _config_dict(config_line)["samples"] == samples
        rows.append(table)
    assert rows[0] == rows[1]


def test_final_state_figure_manifest_records_its_solve(tmp_path):
    # the batch's derivative calls once and its worst member invariants, from the same
    # solve as a direct integrate_many with no output grid, whose final F2 the CSV holds
    assert main(["figures", "fig6", "--gamma-grid", "0,1", "--tau-grid", "1,2",
                 "--samples", "60", "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "fig6.manifest.json").read_text())
    trajs = list(liouville.integrate_many(
        [PulseConfig(ordering="scp", omega0=200.0, tau=tau, gamma=DephasingMatrix.equal(g))
         for g in (0.0, 1.0) for tau in (1.0, 2.0)], samples=None))
    assert manifest["solve"] == {
        "nfev": trajs[0].stats["nfev"],
        "trace_error": max(traj.stats["trace_error"] for traj in trajs),
        "hermiticity_error": max(traj.stats["hermiticity_error"] for traj in trajs),
        "min_eigenvalue": min(traj.stats["min_eigenvalue"] for traj in trajs),
    }
    assert "sweep" not in manifest
    _, _, rows = _read_csv(tmp_path / "fig6.csv")
    assert [row[1:] for row in rows] == [[_loop_fmt(traj.fidelity[-1]) for traj in pair]
                                         for pair in (trajs[:2], trajs[2:])]


@pytest.mark.parametrize("name", ["fig3", "fig6", "fig9a"])
def test_figures_reject_bad_samples(tmp_path, capsys, name):
    # a final-state figure samples nothing, but --samples still goes to its comment line
    assert main(["figures", name, "--samples", "1", "--out-dir", str(tmp_path)]) == 2
    assert "samples must be at least 2" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_fig7_manifest_lists_its_ambiguous_crossing(tmp_path):
    # at tau 0.5 the fidelity rises through eps = 0.1 more than once: T_tr uses the
    # first crossing, the CSV row stays clean and the manifest names the warning
    with pytest.warns(AmbiguousCrossing, match="multiple upward crossings of 0.1"):
        assert main(["figures", "fig7", "--tau-grid", "0.5", "--samples", "200",
                     "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "fig7.manifest.json").read_text())["sweep"]
    assert report["warnings"] == [{"row": 0, "tau": 0.5, "warnings": [
        "AmbiguousCrossing: multiple upward crossings of 0.1; using the first"]}]
    [batch] = report["batches"]
    assert batch["rows"] == [0] and batch["nfev"] > 0
    _, _, rows = _read_csv(tmp_path / "fig7.csv")
    assert math.isfinite(float(rows[0][1])) and rows[0][2] == ""


@pytest.mark.parametrize("name,ordering", [("fig6", Ordering.SCP),
                                           ("fig8", Ordering.FRACTIONAL)])
def test_tau_grid_sets_the_columns_of_the_gamma_families(tmp_path, name, ordering):
    assert main(["figures", name, "--tau-grid", "1.25", "--gamma-grid", "0,0.5",
                 "--samples", "60", "--out-dir", str(tmp_path)]) == 0
    config_line, header, rows = _read_csv(tmp_path / f"{name}.csv")
    assert _config_dict(config_line)["tau_list"] == "1.25"
    assert header == ["gamma", "f2_tau_1.25"]
    trajs = liouville.integrate_many(
        [PulseConfig(ordering=ordering, omega0=200.0, tau=1.25, gamma=DephasingMatrix.equal(g))
         for g in (0.0, 0.5)], samples=60)
    assert [r[1] for r in rows] == [_loop_fmt(traj.fidelity[-1]) for traj in trajs]


def test_figure_grid_values_keep_the_csv_precision(tmp_path):
    # the two delays agree to 6 significant digits but not to the CSV's 12
    assert main(["figures", "fig6", "--tau-grid", "1.0000001,1.0000002", "--gamma-grid", "0",
                 "--samples", "60", "--out-dir", str(tmp_path)]) == 0
    config_line, header, rows = _read_csv(tmp_path / "fig6.csv")
    assert _config_dict(config_line)["tau_list"] == "1.0000001,1.0000002"
    assert header == ["gamma", "f2_tau_1.0000001", "f2_tau_1.0000002"]
    assert len(rows) == 1 and len(rows[0]) == 3


@pytest.mark.parametrize("name,flags,axes", [
    ("fig3", ["--tau-grid", "0.7"], "gamma"),
    ("fig3", ["--omega0-list", "20"], "gamma"),
    ("fig3", ["--t-max-eval", "3"], "gamma"),
    ("fig7", ["--gamma-grid", "0.5"], "tau"),
    ("fig6", ["--omega0-list", "20"], "gamma, tau"),
    ("fig5b", ["--gamma-grid", "0.5"], "omega0, tau"),
    ("fig9a", ["--t-max-eval", "3"], "tau"),
])
def test_figure_flags_outside_its_axes_exit_2(tmp_path, capsys, name, flags, axes):
    t0 = time.perf_counter()
    rc = main(["figures", name, *flags, "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{flags[0]} does not apply to {name}" in err
    assert f"(axes of {name}: {axes})" in err
    assert time.perf_counter() - t0 < 5.0
    assert not list(tmp_path.iterdir())


def test_figure_config_key_outside_its_axes_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "fig.cfg"
    cfg_file.write_text("gamma_grid = 0.5\nsamples = 60\n")
    out_dir = tmp_path / "out"
    rc = main(["figures", "fig7", "--config", str(cfg_file), "--out-dir", str(out_dir)])
    assert rc == 2
    assert "--gamma-grid does not apply to fig7 (axes of fig7: tau)" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("flag", ["--omega0", "--tau", "--width", "--t-start", "--t-end",
                                  "--gamma"])
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.usefixtures("watchdog")
def test_non_finite_inputs_exit_2_at_once(tmp_path, capsys, flag, value):
    t0 = time.perf_counter()
    rc = main(["simulate", "--ordering", "overlap", flag, value,
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err
    assert time.perf_counter() - t0 < 5.0
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(("flag", "value", "message"), [
    ("--width", "1e-10", "pulse widths long"),
    ("--tau", "1e20", "pulse widths long"),
    ("--tau", "1e300", "pulse widths long"),
    ("--width", "1e-300", "width squared must be a normal float"),
])
@pytest.mark.usefixtures("watchdog")
def test_windows_too_long_or_widths_too_small_exit_2_at_once(tmp_path, capsys, flag, value,
                                                              message):
    # a window of more than 1e6 widths would take as many geometric-phase panels; a
    # subnormal width squared would turn every adiabatic column NaN
    t0 = time.perf_counter()
    rc = main(["simulate", "--ordering", "scp", flag, value, "--samples", "50",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert time.perf_counter() - t0 < 5.0
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.usefixtures("watchdog")
def test_fig4_rejects_a_nan_evaluation_time(tmp_path, capsys):
    t0 = time.perf_counter()
    rc = main(["figures", "fig4", "--t-max-eval", "nan", "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "t_max_eval must be a number or inf" in capsys.readouterr().err
    assert time.perf_counter() - t0 < 5.0
    assert not (tmp_path / "out").exists()


# --------------------------------------------------------------- config file

def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "ordering = scp   # overridden by the flag\n"
        "gamma = 0.25\n"
        "tau = 1.0\n"
        "samples = 40\n"
        "engine = effective\n")
    out = tmp_path / "run.csv"
    rc = main(["simulate", "--config", str(cfg_file), "--ordering", "overlap",
               "--out", str(out)])
    assert rc == 0
    config_line, _, rows = _read_csv(out)
    cfg = _config_dict(config_line)
    assert cfg["ordering"] == "overlap"   # flag beats file
    assert cfg["gamma"] == "0.25" and cfg["tau"] == "1" and cfg["samples"] == "40"
    assert cfg["engine"] == "effective"
    assert len(rows) == 40


@pytest.mark.parametrize("command,text,key", [
    ("simulate", "ordering = overlap\nomgea0 = 80\nsamples = 50\n", "omgea0"),
    ("simulate", "ordering = overlap\nout = elsewhere.csv\n", "out"),
    ("sweep", "ordering = overlap\naxis = gamma\nvalues = 0,1\nengine = analytic\n"
              "basis = bare\n", "basis"),
    ("figures", "samples = 60\nordering = scp\n", "ordering"),
], ids=["simulate-misspelt", "simulate-out", "sweep-basis", "figures-ordering"])
def test_config_key_the_command_does_not_read_exits_2(tmp_path, capsys, command, text, key):
    # a file key that names none of the command's flags, a misspelt one too, is refused with
    # the key and the file before anything is written
    cfg_file = tmp_path / "f.cfg"
    cfg_file.write_text(text)
    out = tmp_path / "out"
    target = ["fig6", "--out-dir", str(out)] if command == "figures" else ["--out", str(out)]
    assert main([command, *target, "--config", str(cfg_file)]) == 2
    assert f"config key '{key}' in {cfg_file} is not read by {command}" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_config_file_rejects_malformed_lines(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("this is not a key value pair\n")
    rc = main(["simulate", "--config", str(cfg_file), "--ordering", "overlap",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "config line must be key=value" in capsys.readouterr().err


def test_missing_gamma_file_is_an_io_error(tmp_path, capsys):
    rc = main(["simulate", "--ordering", "overlap",
               "--gamma-file", str(tmp_path / "absent.txt"),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- constants

def test_constants_reports_and_passes(capsys):
    rc = main(["constants"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[ok]") == 2 and "FAIL" not in out
    assert "c_s = 2.419426821" in out
    assert "c_u = 0.676040783" in out
    assert "geometric angle samples:" in out
    assert "scp" in out and "fractional" in out


@pytest.mark.parametrize("epsabs", ["nan", "inf", "0", "-1"])
def test_constants_rejects_a_bad_tolerance(capsys, epsabs):
    rc = main(["constants", f"--epsabs={epsabs}"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: --epsabs must be finite and positive\n"


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# --------------------------------------------------------------- cold start

_NO_SCIPY = """
import sys
from tripod_stirap import cli
if sys.argv[1:]:
    assert cli.main(sys.argv[1:]) == 0
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""


@pytest.mark.parametrize("args", [
    "", "simulate --ordering scp --gamma 0.3 --samples 60 --out {tmp}/bare.csv",
    "simulate --basis adiabatic --ordering scp --gamma 0.3 --samples 60 --out {tmp}/adia.csv",
    "simulate --engine effective --ordering scp --gamma 0.3 --samples 60 --out {tmp}/eff.csv",
    "figures fig6 --gamma-grid 0.8,1.7 --out-dir {tmp}/fig6",
    "figures fig8 --gamma-grid 0.8,1.7 --out-dir {tmp}/fig8",
    "sweep --engine effective --axis tau --ordering scp --values 1,1.5 --samples 60 "
    "--out {tmp}/eff-sweep.csv",
    "sweep --engine master --axis gamma --ordering scp --values 0,0.5 --samples 60 "
    "--out {tmp}/master-sweep.csv",
    "figures fig7 --tau-grid 1,2 --out-dir {tmp}/fig7",
    "figures fig9b --tau-grid 1,1.25 --out-dir {tmp}/fig9b",
], ids=["import", "simulate-bare", "simulate-adiabatic", "simulate-effective", "fig6", "fig8",
        "sweep-effective", "sweep-master", "fig7", "fig9b"])
def test_master_and_effective_solves_load_no_scipy_module(tmp_path, args):
    # a fresh interpreter: the tableau comes from SciPy's coefficients file, T_tr and F2_tmax
    # from the PCHIP mirror, and only the closed-form and quadrature paths import their SciPy
    # subpackages, when first called
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _NO_SCIPY, *args.format(tmp=tmp_path).split()],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
