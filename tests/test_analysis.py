"""Fidelity metrics, transition-time extraction and sweeps."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from tripod_stirap import dk, effective, liouville
from tripod_stirap.analysis import (
    Engine, SweepPoint, _first_upward_crossing, _pchip, _pchip_at, _series_row, sweep,
    transition_time,
)
from tripod_stirap.errors import (
    AmbiguousCrossing, GammaPole, NoCrossing, StepBudgetExceeded, StepSizeUnderflow, TripodError,
    WrongOrdering,
)
from tripod_stirap.pulses import DephasingMatrix, Ordering, PulseConfig
from tripod_stirap.tripod import TargetState, geometric_phase, target_state


def _cfg(ordering: str = "overlap", gamma: float = 0.0, **kw) -> PulseConfig:
    return PulseConfig(ordering=ordering, omega0=50.0, tau=1.5,
                       gamma=DephasingMatrix.equal(gamma), **kw)


# ------------------------------------------------------------------- fidelity
# Two independent routes to F2 that the engines' own fidelities are checked
# against: a validated scalar <Psi|rho|Psi>, and the dark-block formula.

class NonHermitianState(TripodError):
    """A density matrix failed its Hermiticity or trace invariant."""


def fidelity(rho: np.ndarray, target: TargetState) -> float:
    """Squared overlap <Psi|rho|Psi> after validating the state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got shape {rho.shape}")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > 1e-9:
        raise NonHermitianState(f"density matrix is not Hermitian (deviation {herm:.3e})")
    tr = np.trace(rho)
    if abs(tr - 1.0) > 1e-9:
        raise NonHermitianState(f"density matrix trace deviates from 1 by {abs(tr - 1.0):.3e}")
    value = complex(target.amplitudes.conj() @ rho @ target.amplitudes)
    if abs(value.imag) > 1e-9:
        raise NonHermitianState(f"fidelity acquired an imaginary part {value.imag:.3e}")
    return float(value.real)


def fidelity_from_adiabatic(rho_a: np.ndarray, theta_g: float) -> float:
    """Fidelity from the dark block of rho^a and the geometric angle alone.

    Valid in the adiabatic limit where the bright levels are empty at the
    end of the run.
    """
    c2, s2 = math.cos(2.0 * theta_g), math.sin(2.0 * theta_g)
    return float(0.5 * np.real(rho_a[0, 0] + rho_a[1, 1])
                 + c2 * np.real(rho_a[0, 1]) - s2 * np.imag(rho_a[0, 1]))


def test_fidelity_of_the_pure_target_is_one():
    tgt = target_state(_cfg())
    rho = np.outer(tgt.amplitudes, tgt.amplitudes.conj())
    assert fidelity(rho, tgt) == pytest.approx(1.0, abs=1e-14)


def test_validated_fidelity_matches_the_engine_fidelity(master_run):
    traj = master_run("scp", gamma=1.0)
    assert fidelity(traj.rho[-1], traj.target) == pytest.approx(traj.fidelity[-1], abs=1e-14)


def test_fidelity_rejects_wrong_shape():
    tgt = target_state(_cfg())
    with pytest.raises(ValueError, match="must be 4x4"):
        fidelity(np.eye(3), tgt)


def test_fidelity_rejects_non_hermitian_state():
    tgt = target_state(_cfg())
    rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    rho[0, 1] = 1e-3
    with pytest.raises(NonHermitianState, match="not Hermitian"):
        fidelity(rho, tgt)


def test_fidelity_rejects_bad_trace():
    tgt = target_state(_cfg())
    with pytest.raises(NonHermitianState, match="trace deviates"):
        fidelity(0.5 * np.eye(4, dtype=complex), tgt)


@pytest.mark.parametrize("ordering,gamma", [
    ("overlap", 1.0), ("scp", 0.0), ("scp", 1.0), ("fractional", 1.0),
])
def test_dark_block_fidelity_matches_the_bare_basis(master_run, ordering, gamma):
    # the target lives in the final dark doublet, so the dark block of rho^a
    # carries the whole fidelity up to residual bright leakage
    traj = master_run(ordering, gamma=gamma)
    fa = fidelity_from_adiabatic(traj.rho_a[-1], traj.target.theta_g)
    assert fa == pytest.approx(traj.fidelity[-1], abs=1e-5)


# -------------------------------------------------------------- transition time

def test_transition_time_on_a_logistic_rise():
    k = 2.3
    times = np.linspace(-8.0, 8.0, 1500)
    fid = 1.0 / (1.0 + np.exp(-k * times))
    expected = 2.0 * math.log(9.0) / k
    got = transition_time(times, fid, 0.1, Ordering.OVERLAP)
    assert got == pytest.approx(expected, rel=1e-6)


def test_transition_time_on_a_linear_ramp_is_exact():
    # pchip through collinear samples is that straight line
    times = np.linspace(0.0, 10.0, 21)
    fid = times / 10.0
    assert transition_time(times, fid, 0.1, Ordering.SCP) == pytest.approx(8.0, abs=1e-12)


def test_transition_time_fractional_threshold_scales_with_the_start():
    times = np.linspace(0.0, 10.0, 201)
    fid = 0.3 + 0.07 * times   # starts at 0.3, ends at 1.0
    t_low = (1.1 * 0.3 - 0.3) / 0.07
    t_high = (0.9 - 0.3) / 0.07
    got = transition_time(times, fid, 0.1, Ordering.FRACTIONAL)
    assert got == pytest.approx(t_high - t_low, abs=1e-12)


@pytest.mark.parametrize("eps", [0.0, 0.5, -0.1, 0.7])
def test_transition_time_rejects_bad_eps(eps):
    times = np.linspace(0.0, 1.0, 10)
    with pytest.raises(ValueError, match="eps must be inside"):
        transition_time(times, times, eps, Ordering.OVERLAP)


def test_transition_time_rejects_mismatched_series():
    with pytest.raises(ValueError, match="need matching 1-d"):
        transition_time(np.linspace(0, 1, 5), np.zeros(4), 0.1, Ordering.OVERLAP)
    with pytest.raises(ValueError, match="need matching 1-d"):
        transition_time(np.zeros((2, 2)), np.zeros((2, 2)), 0.1, Ordering.OVERLAP)


def test_transition_time_without_a_crossing():
    times = np.linspace(0.0, 1.0, 50)
    with pytest.raises(NoCrossing, match="never rises through"):
        transition_time(times, np.full(50, 0.05), 0.1, Ordering.OVERLAP)


def test_transition_time_warns_on_multiple_crossings():
    # rises through 0.1 twice; the first crossing must win
    times = np.linspace(0.0, 12.0, 1201)
    fid = np.interp(times, [0.0, 2.0, 4.0, 6.0, 12.0], [0.0, 0.2, 0.05, 0.2, 1.0])
    with pytest.warns(AmbiguousCrossing, match="using the first"):
        got = transition_time(times, fid, 0.1, Ordering.OVERLAP)
    t_low_first = 1.0          # 0 -> 0.2 over [0, 2] crosses 0.1 at t = 1
    t_high = 6.0 + 0.7 / 0.8 * 6.0
    assert got == pytest.approx(t_high - t_low_first, rel=1e-3)


# The PCHIP mirror against SciPy's own class: the same coefficients and values to the last
# bit, and every crossing within 1e-12 of brentq on SciPy's interpolant.

def _assert_pchip_is_scipys(times, fid, points=(), thresholds=()):
    times, fid = np.asarray(times, dtype=float), np.asarray(fid, dtype=float)
    with np.errstate(all="ignore"):  # slopes of subnormal steps overflow the harmonic mean
        ref = PchipInterpolator(times, fid)
    c = _pchip(times, fid)
    np.testing.assert_array_equal(c, ref.c)
    for t in [*times, *points]:  # t[0], every interior node, t[-1] and points between
        assert _pchip_at(times, fid, t) == ref(t)
    for threshold in thresholds:
        d = fid - threshold
        hits = np.nonzero((d[:-1] < 0.0) & (d[1:] >= 0.0))[0]
        if hits.size == 0:
            continue
        i = hits[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AmbiguousCrossing)
            got = _first_upward_crossing(times, fid, threshold, c, None)
        want = times[i + 1] if d[i + 1] == 0.0 else brentq(
            lambda t: ref(t) - threshold, times[i], times[i + 1])
        assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("times, fid, start_slope", [
    ([0.0, 1.0], [0.2, 0.7], 0.5),                        # two samples: the straight line
    ([0.0, 1.0, 2.0], [0.0, 0.1, 1.0], 0.0),              # the three-point slope turns: 0
    ([0.0, 3.0, 4.0], [0.0, 0.3, 0.0], 0.3),              # steep against a turn: 3 m0
    ([0.0, 1.0, 2.0, 4.0, 5.0], [0.1, 0.5, 0.5, 0.9, 0.2], 0.6),  # plateau and a turn
], ids=["two-samples", "end-slope-zero", "end-slope-3m0", "plateau"])
def test_pchip_mirror_takes_each_slope_branch(times, fid, start_slope):
    _assert_pchip_is_scipys(times, fid, points=[0.5, 0.75], thresholds=[0.05, 0.3, 0.45, 0.6])
    assert _pchip(np.array(times), np.array(fid))[2, 0] == pytest.approx(start_slope, abs=1e-15)


_level = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, 0.5, 1.0]))
_step = st.one_of(st.floats(1e-3, 3.0), st.sampled_from([0.25, 0.5, 1.0]))


@given(n=st.integers(2, 10), data=st.data(), start=st.floats(-5.0, 5.0),
       threshold=st.floats(0.01, 0.99), where=st.lists(st.floats(0.0, 1.0), max_size=4))
def test_pchip_mirror_is_scipys_pchip(n, data, start, threshold, where):
    # sampled levels give plateaus and turns, short steps next to long ones steep ends
    fid = data.draw(st.lists(_level, min_size=n, max_size=n))
    times = np.cumsum([start, *data.draw(st.lists(_step, min_size=n - 1, max_size=n - 1))])
    points = [min(times[0] + u * (times[-1] - times[0]), times[-1]) for u in where]
    # a threshold next to a sample value can sit where the cubic is flat, and there no two
    # root finders need agree to 1e-12
    near = np.min(np.abs(np.asarray(fid) - threshold)) <= 1e-3
    _assert_pchip_is_scipys(times, fid, points, thresholds=[] if near else [threshold])


@pytest.mark.parametrize("times, fid", [
    ([0.0, 1.0, 2.0], [0.0, math.nan, 1.0]),
    ([0.0, math.inf, 2.0], [0.0, 0.5, 1.0]),
    ([0.0, 1.0, 1.0], [0.0, 0.5, 1.0]),
    ([0.0, 2.0, 1.0], [0.0, 0.5, 1.0]),
], ids=["nan-fidelity", "infinite-time", "repeated-time", "decreasing-time"])
def test_transition_time_refuses_what_pchip_refuses(times, fid):
    with pytest.raises(ValueError, match="finite|strictly increasing"):
        transition_time(np.array(times), np.array(fid), 0.1, Ordering.OVERLAP)
    with pytest.raises(ValueError):
        PchipInterpolator(times, fid)


# ---------------------------------------------------------------------- sweeps

def test_sweep_rejects_unknown_axis():
    with pytest.raises(ValueError, match="axis must be 'gamma' or 'tau'"):
        sweep(_cfg(), "omega0", [1.0], Engine.ANALYTIC)


def test_sweep_rejects_empty_and_unsorted_grids():
    with pytest.raises(ValueError, match="values must be non-empty"):
        sweep(_cfg(), "gamma", [], Engine.ANALYTIC)
    with pytest.raises(ValueError, match="strictly increasing"):
        sweep(_cfg(), "gamma", [1.0, 1.0], Engine.ANALYTIC)
    with pytest.raises(ValueError, match="strictly increasing"):
        sweep(_cfg(), "gamma", [2.0, 1.0], Engine.ANALYTIC)


@pytest.mark.parametrize("values", [0.5, [[0.5, 1.0]]], ids=["scalar", "2-d"])
@pytest.mark.parametrize("engine", list(Engine))
def test_sweep_rejects_a_grid_that_is_not_1d(engine, values):
    with pytest.raises(ValueError, match="one-dimensional"):
        sweep(_cfg(), "gamma", values, engine, samples=20)


def test_analytic_engine_requires_the_overlap_ordering():
    with pytest.raises(WrongOrdering, match="analytic engine requires overlap ordering"):
        sweep(_cfg(ordering="scp"), "gamma", [0.5], Engine.ANALYTIC)


def test_analytic_engine_requires_equal_rates_on_a_tau_axis():
    m = np.full((4, 4), 0.5)
    m[0, 2] = m[2, 0] = 1.5
    np.fill_diagonal(m, 0.0)
    cfg = PulseConfig(ordering="overlap", omega0=50.0, tau=1.5, gamma=DephasingMatrix(m))
    with pytest.raises(WrongOrdering, match="equal dephasing rates"):
        sweep(cfg, "tau", [1.0, 1.5], Engine.ANALYTIC)


def test_analytic_gamma_sweep_values():
    values = [0.0, 0.5, 1.0]
    res = sweep(_cfg(), "gamma", values, Engine.ANALYTIC, eps=0.1)
    assert res.errors.count(None) == 3
    law = 1.0 / (2.0 * 1.5) * math.log(9.0)
    for point, g in zip(res.points, values):
        cfg_pt = _cfg(gamma=g)
        assert point.F2_final == pytest.approx(dk.analytic_fidelity(g, cfg_pt, math.inf), rel=1e-12)
        assert point.F2_tmax == pytest.approx(dk.analytic_fidelity(g, cfg_pt, 5.0), rel=1e-12)
        assert point.T_tr == pytest.approx(law, rel=1e-12)
        assert point.theta_g == pytest.approx(0.0, abs=1e-9)
        assert point.error is None


def test_analytic_tau_sweep_uses_the_updated_delay():
    res = sweep(_cfg(gamma=1.0), "tau", [1.0, 2.0], Engine.ANALYTIC, eps=0.1)
    law = [1.0 / 2.0 * math.log(9.0), 1.0 / 4.0 * math.log(9.0)]
    for point, expected in zip(res.points, law):
        assert point.T_tr == pytest.approx(expected, rel=1e-12)
    assert res.points[0].F2_final == pytest.approx(
        dk.analytic_fidelity(1.0, _cfg(gamma=1.0).with_updates(tau=1.0), math.inf), rel=1e-12)


def test_sweep_records_failures_per_row():
    # at gamma = 1 the fidelity saturates near 0.4 and never reaches 0.9,
    # so that row must carry a NoCrossing marker instead of aborting
    res = sweep(_cfg(), "gamma", [0.0, 1.0], Engine.EFFECTIVE, samples=400)
    assert res.errors.count(None) == 1
    ok, bad = res.points
    assert ok.error is None and math.isfinite(ok.T_tr)
    assert bad.error is not None and bad.error.startswith("NoCrossing")
    assert math.isnan(bad.T_tr)
    assert bad.F2_final == pytest.approx(0.403, abs=0.01)


def test_sweep_clamps_the_evaluation_time_to_the_window():
    res = sweep(_cfg(gamma=1.0), "gamma", [1.0], Engine.EFFECTIVE,
                samples=400, t_max_eval=1e9)
    p = res.points[0]
    assert p.F2_tmax == pytest.approx(p.F2_final, rel=1e-9)


def test_sweep_master_engine_carries_run_stats():
    res = sweep(_cfg(), "gamma", [0.5], Engine.MASTER, samples=300)
    assert res.nfev[res.batch[0]] > 0
    assert res.stats["trace_error"][0] < 1e-7


def test_batched_sweep_matches_per_point():
    # the master engine solves the whole grid in one batch; each row must
    # agree with its point solved alone to the batch contract's 1e-9
    values = [1.0, 1.5, 2.0]
    res = sweep(_cfg(), "tau", values, Engine.MASTER, samples=300)
    for p in res.points:
        alone = liouville.integrate(_cfg().with_updates(tau=p.value), samples=300)
        assert p.error is None
        assert abs(p.F2_final - alone.fidelity[-1]) < 1e-9
        assert p.T_tr == pytest.approx(transition_time(alone.t, alone.fidelity, 0.1,
                                                       Ordering.OVERLAP), abs=1e-6)


def test_sweep_rejects_non_finite_values():
    with pytest.raises(ValueError, match="finite"):
        sweep(_cfg(), "gamma", [0.0, math.nan], Engine.MASTER)


@pytest.mark.parametrize("engine", [Engine.MASTER, Engine.EFFECTIVE], ids=lambda e: e.value)
def test_failing_member_is_reported_on_its_own_row(monkeypatch, engine):
    # poison the derivative of one member past mid-window: the shared solve
    # fails, and the fallback solves each point alone, so only that row
    # carries the error
    values = [0.25, 0.5, 0.75]
    clean = sweep(_cfg(), "gamma", values, engine, samples=200)
    module, name = (liouville, "rhs_bare") if engine is Engine.MASTER else (effective, "_suv_rhs")
    rhs = getattr(module, name)

    def poisoned(s, y, batch, **mode):
        out = rhs(s, y, batch, **mode)
        rates = np.array([cfg.gamma.equal_rate() for cfg in batch.cfgs])
        bad = (rates == 0.5) & (batch.start + s * batch.span > 0.0)
        # the flat master state is (B, 10) member by member, the effective one (3, B)
        members = out.reshape(len(batch), 10) if engine is Engine.MASTER else out.reshape(3, -1).T
        members[bad] = np.nan
        return out

    monkeypatch.setattr(module, name, poisoned)
    res = sweep(_cfg(), "gamma", values, engine, samples=200)
    low, bad, high = res.points
    assert bad.error.startswith(StepSizeUnderflow.__name__)
    assert math.isnan(bad.F2_final) and math.isnan(bad.T_tr)
    for p, ref in ((low, clean.points[0]), (high, clean.points[2])):
        assert p.error == ref.error
        assert abs(p.F2_final - ref.F2_final) < 1e-9
        assert abs(p.F2_tmax - ref.F2_tmax) < 1e-9


_BUDGET_ERRORS = {
    Engine.MASTER: "the master solve stopped at its budget of 500 derivative calls (about 45 per "
                   "unit of Omega0); --engine effective takes about 900 at any Omega0",
    Engine.EFFECTIVE: "the effective solve stopped at its budget of 500 derivative calls (about "
                      "30 per unit of gamma)",
}
# the master engine takes over 500 calls at overlap, the effective one at scp
_BUDGET_ORDERINGS = {Engine.MASTER: "overlap", Engine.EFFECTIVE: "scp"}


@pytest.mark.parametrize("engine", _BUDGET_ERRORS, ids=lambda e: e.value)
def test_master_rows_past_the_derivative_budget_carry_the_error(monkeypatch, engine):
    monkeypatch.setattr(liouville, "MAX_NFEV", 500)
    res = sweep(_cfg(_BUDGET_ORDERINGS[engine]), "gamma", [0.0, 0.5], engine, samples=50)
    for p in res.points:
        assert p.error == f"{StepBudgetExceeded.__name__}: {_BUDGET_ERRORS[engine]}"
        assert math.isnan(p.F2_final)


@pytest.mark.parametrize("engine", _BUDGET_ERRORS, ids=lambda e: e.value)
def test_a_one_row_sweep_past_the_budget_is_solved_once(monkeypatch, engine):
    # a failed grid is split into rows only when it has more than one: a one-row
    # sweep makes the budget's calls once, not a second time for its lone row
    monkeypatch.setattr(liouville, "MAX_NFEV", 500)
    module, name = (liouville, "rhs_bare") if engine is Engine.MASTER else (effective, "_suv_rhs")
    rhs, calls = getattr(module, name), []

    def counted(s, y, batch, **mode):
        calls.append(s)
        return rhs(s, y, batch, **mode)

    monkeypatch.setattr(module, name, counted)
    res = sweep(_cfg(_BUDGET_ORDERINGS[engine]), "gamma", [0.5], engine, samples=50)
    assert [p.error for p in res.points] == [
        f"{StepBudgetExceeded.__name__}: {_BUDGET_ERRORS[engine]}"]
    swept = len(calls)
    calls.clear()
    with pytest.raises(StepBudgetExceeded):
        module.integrate_many([_cfg(_BUDGET_ORDERINGS[engine], 0.5)], samples=50)
    # the budget is read after each step, so the step that passes it is finished first
    assert swept == len(calls) and 500 <= swept < 500 + 64


@pytest.mark.parametrize("gamma", [0.0, 1.0])
@pytest.mark.parametrize("ordering", ["overlap", "scp", "csp", "fractional"])
def test_effective_sweep_matches_per_point_runs(ordering, gamma):
    # the effective engine solves the whole grid in one batch; each row must
    # agree with its point run alone by integrate_suv
    values = np.linspace(0.5, 2.5, 6)
    cfg = _cfg(ordering, gamma=gamma)
    res = sweep(cfg, "tau", values, Engine.EFFECTIVE, samples=400)
    for p in res.points:
        traj = effective.integrate_suv(cfg.with_updates(tau=p.value), samples=400)
        f2_final, f2_tmax, t_tr, _, error = _series_row(traj, 0.1, 5.0)
        assert p.error == error
        assert abs(p.F2_final - f2_final) < 5e-10
        assert abs(p.F2_tmax - f2_tmax) < 5e-10
        assert abs(p.T_tr - t_tr) < 5e-9 or (p.error is not None and math.isnan(t_tr))


# ----------------------------------------------------------- analytic sweeps

def _per_point_analytic(cfg, axis, values, eps, t_max_eval):
    """The analytic route one point at a time, as rows of (F2_final, F2_tmax, T_tr, theta_g)."""
    rows = []
    for v in values:
        if axis == "gamma":
            cfg_pt, g = cfg.with_updates(gamma=DephasingMatrix.equal(v)), v
        else:
            cfg_pt, g = cfg.with_updates(tau=v), cfg.gamma.equal_rate()
        rows.append((dk.analytic_fidelity(g, cfg_pt, math.inf),
                     dk.analytic_fidelity(g, cfg_pt, t_max_eval),
                     cfg_pt.width ** 2 / (2.0 * cfg_pt.tau) * math.log((1.0 - eps) / eps),
                     geometric_phase(cfg_pt)))
    return rows


@pytest.mark.parametrize(("axis", "values"), [
    ("gamma", np.linspace(0.0, 2.0, 17)),
    ("tau", np.linspace(0.25, 3.0, 12)),
])
@pytest.mark.parametrize("gamma", [0.0, 0.7])
def test_analytic_sweep_matches_the_per_point_route(axis, values, gamma):
    cfg = _cfg(gamma=gamma)
    res = sweep(cfg, axis, values, Engine.ANALYTIC, eps=0.05, t_max_eval=4.0)
    ref = _per_point_analytic(cfg, axis, values, 0.05, 4.0)
    assert res.errors.count(None) == len(values)
    for p, v, (f2_final, f2_tmax, t_tr, theta_g) in zip(res.points, values, ref):
        assert p.value == v and p.error is None
        assert p.F2_final == pytest.approx(f2_final, rel=1e-13)
        assert p.F2_tmax == pytest.approx(f2_tmax, rel=1e-13)
        assert p.T_tr == t_tr and p.theta_g == theta_g == 0.0
        assert type(p.F2_final) is float and type(p.T_tr) is float
    if axis == "gamma" or gamma == 0.0:
        lossless = res.points[0] if axis == "gamma" else res.points[-1]
        assert lossless.F2_final == lossless.F2_tmax == 1.0


def test_analytic_tau_grid_from_zero_fails_only_that_row():
    values = np.linspace(0.0, 3.0, 7)
    res = sweep(_cfg(gamma=1.0), "tau", values, Engine.ANALYTIC)
    clean = sweep(_cfg(gamma=1.0), "tau", values[1:], Engine.ANALYTIC)
    bad, *rest = res.points
    assert bad.error == "ZeroDelay: pulse delay must be positive"
    assert all(math.isnan(x) for x in (bad.F2_final, bad.F2_tmax, bad.T_tr, bad.theta_g))
    assert rest == clean.points


def test_analytic_gamma_on_a_pole_fails_only_that_row():
    # 0.5 + delta + beta = 0 at this rate for tau = 1.5: a pole of the
    # first denominator gamma factor
    p1 = dk.dk_params(1.0, _cfg())
    pole = 0.5 / -(p1.delta + p1.beta)
    values = np.array([0.5, 1.0, pole, 8.0])
    res = sweep(_cfg(), "gamma", values, Engine.ANALYTIC)
    clean = sweep(_cfg(), "gamma", values[[0, 1, 3]], Engine.ANALYTIC)
    assert res.points[2].error.startswith("GammaPole: gamma function pole at ")
    assert math.isnan(res.points[2].F2_final)
    assert [res.points[i] for i in (0, 1, 3)] == clean.points
    with pytest.raises(GammaPole):
        dk.analytic_fidelity(pole, _cfg(), math.inf)


@pytest.mark.parametrize("engine", list(Engine), ids=lambda e: e.value)
def test_every_engine_checks_the_largest_axis_value(engine):
    # a window of 2e300 widths at tau = 1e300: refused before anything is solved, also
    # when the smallest value is fine
    for values in ([1.0, 1e300], [1e300]):
        with pytest.raises(ValueError, match="pulse widths long"):
            sweep(_cfg(gamma=1.0), "tau", values, engine, samples=60)


@pytest.mark.parametrize(("axis", "values", "base"), [
    ("gamma", [0.0, 1e4], _cfg()), ("tau", [0.001, 1.0], _cfg(gamma=2.0))], ids=["gamma", "tau"])
def test_analytic_rows_whose_gamma_ratios_overflow_are_marked(axis, values, base):
    # gamma T^2 / tau past about 2e3 overflows the gamma-function ratios: that row alone
    # becomes a GammaPole marker, with no RuntimeWarning and no NaN in the other row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = sweep(base, axis, values, Engine.ANALYTIC)
    bad = 1 if axis == "gamma" else 0
    assert res.errors[bad] == ("GammaPole: the gamma-function ratios overflow "
                               "(gamma T^2 / tau too large)")
    assert all(math.isnan(x) for x in res.points[bad][1:5])
    assert res.errors[1 - bad] is None and res.errors.count(None) == 1
    assert res.points[1 - bad] == sweep(base, axis, [values[1 - bad]], Engine.ANALYTIC).points[0]
    # a one-row grid carries the same marker
    assert sweep(base, axis, [values[bad]], Engine.ANALYTIC).errors == (res.errors[bad],)


@pytest.mark.parametrize(("tau", "values", "t_max_eval", "bad"), [
    (1.5, [0.5, 1.0], -5.0, [0, 1]), (0.25, [1.2, 1.22, 1.24], None, [1])],
    ids=["before-the-pulses", "next-to-a-pole"])
def test_analytic_rows_whose_f2_leaves_the_unit_interval_are_marked(tau, values, t_max_eval,
                                                                   bad):
    # before the pulses the closed-form F2_tmax reads 6.1 and 64.6, and at gamma 1.22, next
    # to a pole of the coherence amplitude's gamma factors, -0.065: each such row becomes a
    # GammaPole marker, its cells NaN, and the other rows keep their values
    base = _cfg().with_updates(tau=tau)
    res = sweep(base, "gamma", values, Engine.ANALYTIC, t_max_eval=t_max_eval)
    text = ("GammaPole: the closed-form F2 is below 0 or above 1 "
            "(parameters outside model validity)")
    assert res.errors == tuple(text if i in bad else None for i in range(len(values)))
    for i, point in enumerate(res.points):
        if i in bad:
            assert all(math.isnan(x) for x in point[1:5])
        else:
            assert 0.0 <= point.F2_tmax <= 1.0 and point == sweep(
                base, "gamma", [values[i]], Engine.ANALYTIC, t_max_eval=t_max_eval).points[0]


def test_analytic_sweep_rejects_invalid_axis_values():
    with pytest.raises(ValueError, match="tau must be non-negative"):
        sweep(_cfg(gamma=1.0), "tau", [-0.5, 1.0], Engine.ANALYTIC)
    with pytest.raises(ValueError, match="non-negative"):
        sweep(_cfg(), "gamma", [-0.5, 1.0], Engine.ANALYTIC)


def test_analytic_gamma_sweep_accepts_unequal_base_rates():
    # on a gamma axis every point's rates are the equal rate on the axis
    m = np.full((4, 4), 0.5)
    m[0, 2] = m[2, 0] = 1.5
    np.fill_diagonal(m, 0.0)
    cfg = PulseConfig(ordering="overlap", omega0=50.0, tau=1.5, gamma=DephasingMatrix(m))
    res = sweep(cfg, "gamma", [0.5, 1.0], Engine.ANALYTIC)
    assert [p.F2_final for p in res.points] == \
        [p.F2_final for p in sweep(_cfg(), "gamma", [0.5, 1.0], Engine.ANALYTIC).points]


# ---------------------------------------------------------- columnar results

def test_analytic_columns_are_one_closed_form_pass():
    values = np.linspace(0.0, 2.0, 2000)
    res = sweep(_cfg(gamma=0.3), "gamma", values, Engine.ANALYTIC, eps=0.05, t_max_eval=4.0)
    f2_final, f2_tmax = dk.analytic_fidelity(values, _cfg(), np.array([[math.inf], [4.0]]),
                                             tau=np.full_like(values, 1.5))
    assert np.array_equal(res.values, values)
    assert np.array_equal(res.F2_final, f2_final) and np.array_equal(res.F2_tmax, f2_tmax)
    assert np.array_equal(res.T_tr, np.full_like(values, 1.0 / 3.0 * math.log(19.0)))
    assert np.array_equal(res.theta_g, np.zeros_like(values))
    assert res.errors == (None,) * 2000 and res.warnings == ((),) * 2000
    assert np.array_equal(res.batch, np.full(2000, -1)) and res.nfev == () and res.stats == {}


def _poisoned(monkeypatch, engine, rate):
    """Make the batch derivative NaN past mid-window for the member at this equal rate."""
    module, name = (liouville, "rhs_bare") if engine is Engine.MASTER else (effective, "_suv_rhs")
    rhs = getattr(module, name)

    def poisoned(s, y, batch, **mode):
        out = rhs(s, y, batch, **mode)
        rates = np.array([cfg.gamma.equal_rate() for cfg in batch.cfgs])
        bad = (rates == rate) & (batch.start + s * batch.span > 0.0)
        # the flat master state is (B, 10) member by member, the effective one (3, B)
        members = out.reshape(len(batch), 10) if engine is Engine.MASTER else out.reshape(3, -1).T
        members[bad] = np.nan
        return out

    monkeypatch.setattr(module, name, poisoned)


def _same(a, b) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("engine", list(Engine), ids=lambda e: e.value)
def test_points_are_the_columns_row_by_row(monkeypatch, engine):
    # one failing row on every engine: a poisoned member, or tau = 0 for the closed forms
    if engine is Engine.ANALYTIC:
        res = sweep(_cfg(gamma=1.0), "tau", [0.0, 1.0, 2.0], engine)
    else:
        _poisoned(monkeypatch, engine, 0.5)
        res = sweep(_cfg(), "gamma", [0.25, 0.5, 5.0], engine, samples=200)
    assert len(res.points) == 3
    assert SweepPoint._fields == ("value", "F2_final", "F2_tmax", "T_tr", "theta_g", "error")
    for i, p in enumerate(res.points):
        cells = (res.values, res.F2_final, res.F2_tmax, res.T_tr, res.theta_g)
        for cell, column in zip(p[:5], cells):
            assert type(cell) is float and _same(cell, float(column[i]))
        assert p.error == res.errors[i]
        # a row's stats are in the columns: NaN where it ran no solve, else finite
        ran = res.batch[i] >= 0
        assert all(math.isfinite(column[i]) is bool(ran) for column in res.stats.values())
    failed = 0 if engine is Engine.ANALYTIC else 1
    bad = res.points[failed]
    assert bad.error.startswith("ZeroDelay" if engine is Engine.ANALYTIC else "StepSizeUnderflow")
    assert all(math.isnan(x) for x in (bad.F2_final, bad.F2_tmax, bad.T_tr, bad.theta_g))
    assert res.batch[failed] == -1
    if engine is Engine.ANALYTIC:
        assert res.stats == {} and res.nfev == ()
    else:
        # the strongly dephased row never reaches 0.9 but keeps its values and stats
        assert res.points[2].error.startswith("NoCrossing")
        assert set(res.stats) == {"trace_error", "hermiticity_error", "min_eigenvalue"}
        assert res.batch[2] >= 0 and res.nfev[res.batch[2]] > 0


def test_a_failed_grid_counts_each_batch_once(monkeypatch):
    values = [0.25, 0.5, 0.75]
    clean = sweep(_cfg(), "gamma", values, Engine.MASTER, samples=200)
    # the clean grid is one batch, whose count nfev holds once for all three rows
    batch = liouville.integrate_many([_cfg(gamma=g) for g in values], samples=200)
    assert clean.nfev == (next(batch).stats["nfev"],) and list(clean.batch) == [0, 0, 0]
    _poisoned(monkeypatch, Engine.MASTER, 0.5)
    res = sweep(_cfg(), "gamma", values, Engine.MASTER, samples=200)
    # the rows around the failing one are solved alone, two batches of one row each
    lone = [liouville.integrate(_cfg(gamma=g), samples=200).stats["nfev"] for g in (0.25, 0.75)]
    assert res.nfev == tuple(lone) and list(res.batch) == [0, -1, 1]
    assert [res.nfev[k] if k >= 0 else None for k in res.batch] == [lone[0], None, lone[1]]
    assert math.isnan(res.stats["trace_error"][1])


def test_a_row_that_fails_alone_keeps_nothing_from_the_failed_grid(monkeypatch):
    # the grid pass fills the first row, which warns AmbiguousCrossing, and then raises;
    # that row then fails alone too, so the sweep must show nothing of the grid pass
    cfg = PulseConfig(ordering="scp", omega0=200.0, tau=0.5)
    integrate_many = liouville.integrate_many

    def failing(cfgs, **kw):
        if len(cfgs) == 1 and cfgs[0].tau == 0.5:
            raise StepSizeUnderflow("alone")
        trajs = integrate_many(cfgs, **kw)
        if len(cfgs) == 1:
            return trajs

        def midway():
            yield next(trajs)
            raise StepSizeUnderflow("midway")
        return midway()

    monkeypatch.setattr(liouville, "integrate_many", failing)
    with pytest.warns(AmbiguousCrossing):
        res = sweep(cfg, "tau", [0.5, 1.0], Engine.MASTER, samples=200)
    lone = integrate_many([cfg.with_updates(tau=1.0)], samples=200)
    assert res.errors == ("StepSizeUnderflow: alone", None)
    assert all(math.isnan(column[0]) for column in (res.F2_final, res.F2_tmax, res.T_tr,
                                                     res.theta_g, *res.stats.values()))
    assert res.warnings == ((), ()) and list(res.batch) == [-1, 0]
    assert set(res.stats) == {"trace_error", "hermiticity_error", "min_eigenvalue"}
    # the row solved alone is the only batch: the failed pass counts no calls
    assert res.nfev == (next(lone).stats["nfev"],)


def test_ambiguous_crossings_are_kept_per_row():
    # scp at tau 0.5 crosses eps = 0.1 upward more than once; tau 1 crosses once
    cfg = PulseConfig(ordering="scp", omega0=200.0, tau=0.5)
    with pytest.warns(AmbiguousCrossing, match="multiple upward crossings of 0.1"):
        res = sweep(cfg, "tau", [0.5, 1.0], Engine.MASTER, samples=200)
    assert res.warnings == (("AmbiguousCrossing: multiple upward crossings of 0.1; "
                             "using the first",), ())
    assert res.errors == (None, None) and math.isfinite(res.T_tr[0])
