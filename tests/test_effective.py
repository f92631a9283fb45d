"""Dark-doublet reduction: closed-form rates, tensor extraction, (s, u, v) runs."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tripod_stirap import analysis, effective, liouville, pulses, tripod
from tripod_stirap.effective import (
    Mode, dark_density, dark_invariants, dissipator_tensor, effective_rates, integrate_many,
    integrate_suv, tensor_rates,
)
from tripod_stirap.liouville import Basis, Trajectory
from tripod_stirap.pulses import (Batch, DephasingMatrix, MixingAngles, Ordering, PulseConfig,
                                  mixing_angles)
from tripod_stirap.tripod import frame_matrix, geometric_phase

_ORDERINGS = ["overlap", "scp", "csp", "fractional"]


def _angles(theta: float, phi: float) -> MixingAngles:
    return MixingAngles(theta=theta, phi=phi, theta_dot=0.0, phi_dot=0.0)


def _random_gamma(rng: np.random.Generator) -> DephasingMatrix:
    m = rng.uniform(0.1, 2.0, size=(4, 4))
    m = 0.5 * (m + m.T)
    np.fill_diagonal(m, 0.0)
    return DephasingMatrix(m)


def test_rates_vanish_without_dephasing(rng):
    theta, phi = rng.uniform(0.0, np.pi / 2, size=2)
    r = effective_rates(_angles(theta, phi), DephasingMatrix.zeros())
    assert all(getattr(r, f) == 0.0 for f in
               ("Gamma_s", "Gamma_u", "Gamma_v", "Omega_su", "Omega_sv", "Omega_uv"))


@pytest.mark.parametrize("theta,expected", [
    # (Gamma_s, Gamma_u, Gamma_v, Omega_su) in units of the equal rate
    (0.0, (0.5, 0.25, 1.0, -0.25)),
    (math.pi / 6, (0.65625, 0.578125, 0.75, -0.046875)),
])
def test_equal_rate_spot_values(theta, expected):
    g = 0.8
    r = effective_rates(_angles(theta, math.pi / 4), DephasingMatrix.equal(g))
    got = (r.Gamma_s, r.Gamma_u, r.Gamma_v, r.Omega_su)
    assert got == pytest.approx(tuple(g * e for e in expected), abs=1e-14)
    assert r.Omega_sv == pytest.approx(0.0, abs=1e-14)
    assert r.Omega_uv == pytest.approx(0.0, abs=1e-14)


def test_rates_work_elementwise(rng):
    # (B,) angles with a (4, 4, B) stack of member rates give (B,) arrays;
    # a DephasingMatrix with scalar angles gives floats
    gammas = [_random_gamma(rng) for _ in range(5)]
    theta, phi = rng.uniform(0.0, np.pi / 2, size=(2, 5))
    stacked = effective_rates(_angles(theta, phi), np.stack([g.rates for g in gammas], axis=-1))
    fields = ("Gamma_s", "Gamma_u", "Gamma_v", "Omega_su", "Omega_sv", "Omega_uv")
    for b, gamma in enumerate(gammas):
        one = effective_rates(_angles(float(theta[b]), float(phi[b])), gamma)
        for f in fields:
            assert isinstance(getattr(one, f), float)
            assert getattr(stacked, f)[b] == pytest.approx(getattr(one, f), rel=0.0, abs=1e-15)


def test_coherence_decay_uses_the_complementary_pair_weight():
    # at theta = 0, phi = 0 the dark doublet spans psi_1 and psi_4, so the
    # doublet coherence must decay at gamma_14 even though the populations
    # relax through gamma_13
    m = np.zeros((4, 4))
    m[0, 2] = m[2, 0] = 0.3   # gamma_13
    m[0, 3] = m[3, 0] = 1.1   # gamma_14
    r = effective_rates(_angles(0.0, 0.0), DephasingMatrix(m))
    assert r.Gamma_v == pytest.approx(1.1, abs=1e-14)
    phi90 = effective_rates(_angles(0.0, math.pi / 2), DephasingMatrix(m))
    assert phi90.Gamma_v == pytest.approx(0.3, abs=1e-14)


@given(ordering=st.sampled_from(_ORDERINGS), t=st.floats(-6.0, 6.0),
       tau=st.floats(0.3, 2.5), seed=st.integers(0, 2**32 - 1))
def test_closed_forms_match_the_extracted_tensor(ordering, t, tau, seed):
    gamma = _random_gamma(np.random.default_rng(seed))
    cfg = PulseConfig(ordering=ordering, omega0=50.0, tau=tau, gamma=gamma)
    direct = effective_rates(mixing_angles(t, cfg), gamma)
    extracted = tensor_rates(dissipator_tensor(t, cfg))
    for f in ("Gamma_s", "Gamma_u", "Gamma_v", "Omega_su", "Omega_sv", "Omega_uv"):
        assert getattr(direct, f) == pytest.approx(getattr(extracted, f), abs=1e-10)


@given(ordering=st.sampled_from(_ORDERINGS), t=st.floats(-6.0, 6.0),
       seed=st.integers(0, 2**32 - 1))
def test_population_difference_stays_homogeneous(ordering, t, seed):
    # rho^a_kl' = -D[i,j,k,l] rho^a_ij - D0[k,l]; for any state with equal
    # dark populations the source of rho^a_11 - rho^a_22 must vanish, which
    # is why that difference never develops from the symmetric start
    rng = np.random.default_rng(seed)
    cfg = PulseConfig(ordering=ordering, omega0=50.0, tau=1.5, gamma=_random_gamma(rng))
    tc = dissipator_tensor(t, cfg)
    p = rng.uniform(0.0, 0.5)
    coh = rng.uniform(-0.3, 0.3) + 1j * rng.uniform(-0.3, 0.3)
    rho_d = np.array([[p, coh], [np.conj(coh), p]])
    dot = -(np.einsum("ijkl,ij->kl", tc.D, rho_d) + tc.D0)
    assert abs(dot[0, 0] - dot[1, 1]) < 1e-12
    assert tc.D0[0, 0] == pytest.approx(tc.D0[1, 1], abs=1e-12)


def test_dark_density_layout(rng):
    s, u, v = rng.uniform(-0.5, 0.5, size=3)
    rho_a = dark_density(s, u, v)
    assert np.trace(rho_a).real == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(rho_a - rho_a.conj().T)) < 1e-14
    assert rho_a[0, 0].real == pytest.approx(0.25 - 0.5 * s, abs=1e-14)
    assert rho_a[1, 1] == rho_a[0, 0]
    assert rho_a[0, 1] == pytest.approx((u + 1j * v) / math.sqrt(2.0), abs=1e-14)
    assert rho_a[2, 3] == 0.0 and rho_a[2, 2] == rho_a[3, 3]


def test_integrate_rejects_single_sample():
    with pytest.raises(ValueError, match="samples must be at least 2"):
        integrate_suv(PulseConfig(ordering="overlap", omega0=50.0, tau=1.5), samples=1)


def test_integrate_many_rejects_an_empty_batch():
    with pytest.raises(ValueError, match="at least one configuration"):
        integrate_many([], samples=10)


def test_mixed_batch_matches_batch_of_one_solves():
    # orderings, peak Rabi frequencies, delays and dephasing rates differ, so
    # the windows differ; every member keeps its own sampling grid and lands
    # within 1e-9 (F2_final) and 1e-7 (whole trajectories) of its own solve
    cfgs = [PulseConfig(ordering=o, omega0=om, tau=tau, gamma=DephasingMatrix.equal(g))
            for o in _ORDERINGS for om, tau, g in ((20.0, 0.8, 0.0), (50.0, 1.5, 0.7),
                                                  (200.0, 2.2, 2.0))]
    batch = list(integrate_many(cfgs, samples=300))
    assert len(batch) == len(cfgs)
    for cfg, traj in zip(cfgs, batch):
        alone = integrate_suv(cfg, samples=300)
        assert traj.cfg is cfg and traj.mode is Mode.FULL
        assert np.array_equal(traj.t, np.linspace(cfg.start, cfg.end, 300))
        assert abs(traj.fidelity[-1] - alone.fidelity[-1]) < 1e-9
        for name in ("s", "u", "v", "fidelity"):
            assert np.max(np.abs(getattr(traj, name) - getattr(alone, name))) < 1e-7, name


@pytest.mark.parametrize("ordering", _ORDERINGS)
def test_effective_runs_carry_the_invariant_errors(ordering):
    cfgs = [PulseConfig(ordering=ordering, omega0=om, tau=1.5, gamma=DephasingMatrix.equal(g))
            for om in (20.0, 200.0) for g in (0.0, 5.0)]
    for traj in integrate_many(cfgs, samples=300):
        assert isinstance(traj, Trajectory) and traj.basis is Basis.ADIABATIC
        assert traj.stats["nfev"] > 0
        assert traj.stats["trace_error"] < 1e-12
        assert traj.stats["hermiticity_error"] < 1e-12
        assert traj.stats["min_eigenvalue"] > -1e-8
        # the closed-form spectrum {p +- |c|, q, q} against LAPACK on the bare states
        lapack = np.min(np.linalg.eigvalsh(traj.rho)[:, 0])
        assert abs(traj.stats["min_eigenvalue"] - lapack) <= 1e-15


def test_dark_invariants_match_the_reconstructed_states(rng):
    s, u, v = rng.uniform(-0.5, 0.5, size=(3, 200))
    rho_a = dark_density(s, u, v)
    stats = dark_invariants(s, u, v)
    assert stats["hermiticity_error"] == 0.0
    assert np.array_equal(rho_a, np.conj(np.swapaxes(rho_a, -1, -2)))
    assert stats["trace_error"] <= 4e-16
    assert abs(stats["trace_error"]
               - np.max(np.abs(np.trace(rho_a, axis1=1, axis2=2) - 1.0))) <= 4e-16
    assert abs(stats["min_eigenvalue"] - np.min(np.linalg.eigvalsh(rho_a))) <= 1e-15


def test_effective_sweep_builds_no_second_basis(monkeypatch):
    # F2, theta_g and the invariants come from the adiabatic states: no frame
    # transform of any sample until a caller reads rho
    calls = []
    for name in ("to_adiabatic", "from_adiabatic"):
        monkeypatch.setattr(liouville, name, lambda *args, name=name: calls.append(name))
    cfg = PulseConfig(ordering="scp", omega0=50.0, tau=1.0)
    result = analysis.sweep(cfg, "tau", [0.8, 1.2, 1.6], analysis.Engine.EFFECTIVE, samples=80)
    assert result.succeeded() == 3
    assert calls == []
    traj = integrate_suv(cfg, samples=80)
    assert traj.states is traj.rho_a and calls == []
    traj.rho  # built on the first read, then kept
    traj.rho
    assert calls == ["from_adiabatic"]


def test_effective_sweeps_evaluate_theta_g_once_without_quad(monkeypatch, quad_calls):
    # nine dephasing rates share one pulse shape, hence one column of one
    # array pass; a tau sweep has one column per delay, still in one pass
    calls = []

    def counted(t, cfg):
        calls.append(np.shape(t))
        return mixing_angles(t, cfg)

    monkeypatch.setattr(tripod, "mixing_angles", counted)
    cfg = PulseConfig(ordering="scp", omega0=50.0, tau=1.0)
    gammas = analysis.sweep(cfg, "gamma", np.linspace(0.0, 2.0, 9), analysis.Engine.EFFECTIVE,
                            samples=100)
    assert len(calls) == 1 and calls[0][1] == 1
    taus = np.linspace(0.5, 2.5, 5)
    delays = analysis.sweep(cfg, "tau", taus, analysis.Engine.EFFECTIVE, samples=100)
    assert len(calls) == 2 and calls[1][1] == 5
    assert quad_calls == []
    monkeypatch.undo()
    assert [p.theta_g for p in gammas.points] == [geometric_phase(cfg)] * 9
    assert [p.theta_g for p in delays.points] == \
        [geometric_phase(cfg.with_updates(tau=tau)) for tau in taus]


def test_initial_values_and_shapes(effective_run):
    traj = effective_run("overlap", gamma=1.0)
    assert traj.s[0] == pytest.approx(-0.5, abs=1e-12)
    assert traj.u[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert traj.v[0] == pytest.approx(0.0, abs=1e-12)
    n = traj.t.size
    assert traj.rho.shape == (n, 4, 4) and traj.rho_a.shape == (n, 4, 4)
    assert traj.stats["nfev"] > 0


def test_overlap_without_dephasing_is_frozen(effective_run):
    # phi is constant at pi/4 and every rate vanishes, so (s, u, v) has an
    # identically zero right-hand side
    traj = effective_run("overlap", gamma=0.0)
    assert np.max(np.abs(traj.s + 0.5)) < 1e-14
    assert np.max(np.abs(traj.u - 1.0 / math.sqrt(2.0))) < 1e-14
    assert np.max(np.abs(traj.v)) < 1e-14
    assert traj.fidelity[-1] == pytest.approx(1.0, abs=1e-12)


def test_sequential_without_dephasing_rotates_the_coherence(effective_run):
    traj = effective_run("scp", gamma=0.0)
    assert np.max(np.abs(traj.s + 0.5)) < 1e-9
    norm = traj.u ** 2 + traj.v ** 2
    assert np.max(np.abs(norm - 0.5)) < 1e-7
    assert traj.fidelity[-1] > 1.0 - 1e-7


@pytest.mark.parametrize("ordering", _ORDERINGS)
def test_effective_tracks_the_master_dark_block(master_run, effective_run, ordering):
    m = master_run(ordering, gamma=1.0)
    e = effective_run(ordering, gamma=1.0)
    assert np.max(np.abs(m.rho_a[:, :2, :2] - e.rho_a[:, :2, :2])) < 0.02
    assert abs(m.fidelity[-1] - e.fidelity[-1]) < 0.01


def test_weak_mode_equals_full_without_dephasing(effective_run):
    full = effective_run("scp", gamma=0.0)
    weak = effective_run("scp", gamma=0.0, mode=Mode.WEAK_DEPHASING)
    assert np.max(np.abs(full.s - weak.s)) < 1e-12
    assert np.max(np.abs(full.u - weak.u)) < 1e-12
    assert np.max(np.abs(full.v - weak.v)) < 1e-12


def test_weak_mode_drops_the_rate_couplings(effective_run):
    # with dephasing on, the truncated equations lack the Omega couplings
    # and land on a visibly different trajectory
    full = effective_run("overlap", gamma=1.0)
    weak = effective_run("overlap", gamma=1.0, mode=Mode.WEAK_DEPHASING)
    assert np.all(weak.fidelity > -1e-9) and np.all(weak.fidelity < 1.0 + 1e-9)
    assert np.max(np.abs(np.trace(weak.rho_a, axis1=1, axis2=2).real - 1.0)) < 1e-9
    assert np.max(np.abs(full.s - weak.s)) > 0.01


def test_dark_density_on_arrays_matches_the_scalar_form(rng):
    s, u, v = rng.uniform(-0.5, 0.5, size=(3, 257))
    stack = dark_density(s, u, v)
    assert stack.shape == (257, 4, 4)
    for i in range(s.size):
        assert np.array_equal(stack[i], dark_density(s[i], u[i], v[i]))


@pytest.mark.parametrize("ordering", _ORDERINGS)
def test_reconstruction_matches_the_per_sample_loop(ordering):
    # nine delays and rates per ordering, each run solved alone
    for tau, gamma in itertools.product((0.9, 1.3, 1.7), (0.1, 0.4, 1.0)):
        cfg = PulseConfig(ordering=ordering, omega0=50.0, tau=tau,
                          gamma=DephasingMatrix.equal(gamma))
        traj = integrate_suv(cfg, samples=300)
        for i in range(traj.t.size):
            r = frame_matrix(mixing_angles(traj.t[i], cfg))
            rho_a = dark_density(traj.s[i], traj.u[i], traj.v[i])
            assert np.array_equal(traj.rho_a[i], rho_a)
            assert np.array_equal(traj.rho[i], r @ rho_a @ r.conj().T)
            # F2 is summed in long double from the same frame entries, the loop in float64
            assert abs(traj.fidelity[i] - traj.target.expectation(traj.rho[i])) <= 4e-16, \
                (tau, gamma, i)


def test_dark_fidelity_in_passes_is_the_fidelity_of_each_sample(rng):
    # a trajectory longer than one long-double pass gives each sample the bits it gets alone
    cfg = PulseConfig(ordering="fractional", omega0=50.0, tau=1.3)
    n = 2 * effective._F2_PASS + 7
    s, u, v = rng.uniform(-0.5, 0.5, size=(3, n))
    ang = mixing_angles(np.linspace(cfg.start, cfg.end, n), cfg)
    amps = tripod.target_state(cfg, 0.4).amplitudes
    alone = [effective._dark_fidelity(amps, MixingAngles(ang.theta[i:i + 1], ang.phi[i:i + 1],
                                                         0.0, 0.0), s[i:i + 1], u[i:i + 1],
                                      v[i:i + 1])[0] for i in range(n)]
    assert np.array_equal(effective._dark_fidelity(amps, ang, s, u, v), alone)


def _rates_assembly(y: np.ndarray, ang: MixingAngles, batch: Batch, mode: Mode) -> tuple:
    """d(s, u, v)/ds assembled from effective_rates at the angles ang, with rates per unit t.

    The derivative's form before its constant table, kept as the oracle; it returns the
    derivative and each member's largest generator entry, both per unit s.
    """
    r = effective_rates(ang, batch.rates.T.reshape(4, 4, -1))
    geo = 2.0 * ang.phi_dot * np.sin(ang.theta)
    su, sv, uv = math.sqrt(2.0) * r.Omega_su, math.sqrt(2.0) * r.Omega_sv, r.Omega_uv
    if mode is Mode.WEAK_DEPHASING:
        su = sv = uv = 0.0
    s, u, v = y
    out = np.array([su * u + sv * v - r.Gamma_s * s,
                    (geo + uv) * v + su * s - r.Gamma_u * u,
                    (uv - geo) * u + sv * s - r.Gamma_v * v]) * batch.span
    entries = np.abs(np.broadcast_arrays(r.Gamma_s, r.Gamma_u, r.Gamma_v, su, sv, uv, geo))
    return out, np.max(entries, axis=0) * batch.span


@given(ordering=st.sampled_from(_ORDERINGS), tau=st.floats(0.0, 3.0), x=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(Mode))
def test_suv_rhs_matches_the_rates_assembly(ordering, tau, x, seed, mode):
    rng = np.random.default_rng(seed)
    batch = Batch.of([PulseConfig(ordering=ordering, omega0=50.0, tau=tau,
                                  gamma=_random_gamma(rng))])
    y = rng.uniform(-1.0, 1.0, size=(3, 1))
    got = effective._suv_rhs(x, y, batch, mode)
    # at the derivative's own angles, from the exponents in s, the table is the closed form
    # to a few ulps of the largest entry
    centres, neg_k = liouville._constants(batch)[:2]
    d = x - centres
    cos, sin, theta_dot, phi_dot = pulses._frame_angles(neg_k * d * d, -2.0 * neg_k * d)
    theta, phi = np.arctan2(sin, cos)
    want, largest = _rates_assembly(y, MixingAngles(theta, phi, theta_dot / batch.span,
                                                    phi_dot / batch.span), batch, mode)
    assert np.all(np.abs(got - want) <= 16 * np.finfo(float).eps * largest * np.sum(np.abs(y)))
    # the arctan angles of mixing_angles at t lie up to ~1e-14 from these near the window
    # edges (test_frame_angles_match_the_mixing_angles)
    want, largest = _rates_assembly(y, mixing_angles(batch.start + x * batch.span, batch),
                                    batch, mode)
    assert np.all(np.abs(got - want) <= 5e-14 * largest * np.sum(np.abs(y)))


@pytest.mark.parametrize("mode", Mode)
def test_overlap_couplings_vanish_exactly_with_equal_ground_rates(mode):
    # phi stays at pi/4 (c = 0) and g13 = g14, so Omega_sv, Omega_uv and the geometric
    # rate are exactly 0 across the window, whatever the other rates
    m = np.array([[0.0, 0.7, 0.4, 0.4], [0.7, 0.0, 1.3, 0.2], [0.4, 1.3, 0.0, 1.9],
                  [0.4, 0.2, 1.9, 0.0]])
    batch = Batch.of([PulseConfig(ordering="overlap", omega0=50.0, tau=tau,
                                  gamma=DephasingMatrix(m)) for tau in (0.5, 1.5, 2.5)])
    for x in np.linspace(0.0, 1.0, 101):
        to_v = effective._suv_rhs(x, np.array([[0.0] * 3, [0.0] * 3, [1.0] * 3]), batch, mode)
        to_u = effective._suv_rhs(x, np.array([[0.0] * 3, [1.0] * 3, [0.0] * 3]), batch, mode)
        assert np.all(to_v[:2] == 0.0) and np.all(to_u[2] == 0.0)
        assert np.all(to_v[2] < 0.0)
