"""Master-equation propagation: generator structure and trajectory quality."""

from __future__ import annotations

import signal

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tripod_stirap import effective, liouville, pulses, tripod
from tripod_stirap.errors import StepBudgetExceeded, ToleranceNotMet
from tripod_stirap.liouville import (Basis, Batch, coords, density, dissipator, frame_map,
                                      rhs_adiabatic, rhs_bare)
from tripod_stirap.pulses import (_EXP_CLAMP, DephasingMatrix, MixingAngles, PulseConfig,
                                  mixing_angles, pulse_envelopes)
from tripod_stirap.tripod import (adiabatic_frame, frame_matrix, geometric_phase, hamiltonian,
                                  target_state)


def _random_hermitian(rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = a @ a.conj().T
    return h / np.trace(h).real


def _random_gamma(rng: np.random.Generator) -> DephasingMatrix:
    m = rng.uniform(0.1, 2.0, size=(4, 4))
    m = 0.5 * (m + m.T)
    np.fill_diagonal(m, 0.0)
    return DephasingMatrix(m)


def _cfg(gamma: float = 1.0) -> PulseConfig:
    return PulseConfig(ordering="overlap", omega0=50.0, tau=1.5,
                       gamma=DephasingMatrix.equal(gamma))


def test_dissipator_has_zero_diagonal_and_hadamard_action(rng):
    rho = _random_hermitian(rng)
    gamma = _random_gamma(rng)
    d = dissipator(rho, gamma)
    assert np.allclose(np.diagonal(d), 0.0, atol=1e-15)
    # -i*D is the actual contribution to rho': pure elementwise damping
    assert np.allclose(-1j * d, -gamma.rates * rho, atol=1e-15)


def _rhs_at(rhs, t, c: np.ndarray, cfg: PulseConfig) -> np.ndarray:
    """dc/dt of one run at a scalar t: rhs on its batch of one at s = (t - start) / span."""
    one = Batch.of([cfg])
    return rhs((t - one.start[0]) / one.span[0], c, one) / one.span[0]


def test_rhs_far_outside_window_is_pure_dephasing(rng):
    # at |t| >> window the Rabi couplings are numerically zero, so the
    # populations freeze and each coherence decays at its own gamma_mn
    cfg = _cfg()
    gamma = _random_gamma(rng)
    cfg = cfg.with_updates(gamma=gamma)
    rho = _random_hermitian(rng)
    dot = density(_rhs_at(rhs_bare, 40.0, coords(rho), cfg))
    assert np.allclose(np.diagonal(dot), 0.0, atol=1e-30)
    assert np.allclose(dot, -gamma.rates * rho, atol=1e-30)


@given(t=st.floats(-8.0, 8.0), seed=st.integers(0, 2**32 - 1))
def test_rhs_bare_preserves_trace_and_hermiticity(t, seed):
    rng = np.random.default_rng(seed)
    rho = _random_hermitian(rng)
    cfg = _cfg().with_updates(gamma=_random_gamma(rng))
    dot = density(_rhs_at(rhs_bare, t, coords(rho), cfg))
    assert abs(np.trace(dot)) < 1e-12
    assert np.max(np.abs(dot - dot.conj().T)) < 1e-12


@given(t=st.floats(-6.0, 6.0), seed=st.integers(0, 2**32 - 1),
       ordering=st.sampled_from(["overlap", "scp", "csp", "fractional"]))
def test_rhs_adiabatic_is_the_transformed_bare_equation(t, seed, ordering):
    # rho^a = R^dag rho R implies
    #   rho^a' = R^dag rho' R - [W, rho^a],  W = R^dag R'
    # which ties the two independently coded generators together; W comes
    # from a central difference of R, not from the closed form under test
    rng = np.random.default_rng(seed)
    cfg = _cfg().with_updates(ordering=ordering, gamma=_random_gamma(rng))
    rho_a = _random_hermitian(rng)
    frame = adiabatic_frame(t, cfg)
    rho = frame.R @ rho_a @ frame.R.conj().T
    h, ang = 1e-6, frame.angles
    shifted = lambda sgn: frame_matrix(MixingAngles(
        theta=ang.theta + sgn * h * ang.theta_dot, phi=ang.phi + sgn * h * ang.phi_dot,
        theta_dot=0.0, phi_dot=0.0))
    w = frame.R.conj().T @ (shifted(+1) - shifted(-1)) / (2.0 * h)
    expected = (frame.R.conj().T @ density(_rhs_at(rhs_bare, t, coords(rho), cfg)) @ frame.R
                - (w @ rho_a - rho_a @ w))
    got = density(_rhs_at(rhs_adiabatic, t, coords(rho_a), cfg))
    assert np.max(np.abs(got - expected)) < 1e-7 * cfg.omega0


@given(t=st.floats(-8.0, 8.0), seed=st.integers(0, 2**32 - 1))
def test_superoperators_reproduce_the_commutator(t, seed):
    # sum_k Omega_k L_k vec(rho) is vec(-i [H, rho]) with the assembled Hamiltonian
    rng = np.random.default_rng(seed)
    cfg = _cfg()
    rho = _random_hermitian(rng)
    op, os_, oc = pulse_envelopes(t, cfg)
    drive = op * liouville.L_PUMP + os_ * liouville.L_STOKES + oc * liouville.L_CONTROL
    h = hamiltonian(t, cfg)
    expected = -1j * (h @ rho - rho @ h)
    assert np.max(np.abs(density(drive @ coords(rho)) - expected)) < 1e-12 * cfg.omega0


def test_coordinates_round_trip_exactly(rng):
    c = rng.normal(size=(50, 16))
    assert np.array_equal(coords(density(c)), c)
    rho = _random_hermitian(rng)
    assert np.max(np.abs(density(coords(rho)) - rho)) < 1e-16


def test_every_real_coordinate_vector_is_a_hermitian_matrix(rng):
    rho = density(rng.normal(size=(50, 16)))
    assert rho.shape == (50, 4, 4)
    assert np.array_equal(rho, np.conj(np.swapaxes(rho, -1, -2)))


def test_invariants_read_the_states_as_density_builds_them(rng):
    # density's states are exactly Hermitian, so eigvalsh, which reads one triangle, gives
    # the same bits on the states themselves as on their Hermitian part
    states = density(rng.normal(size=(200, 16)))
    stats = liouville._invariants(states)
    hermitian_part = 0.5 * (states + np.conj(np.swapaxes(states, 1, 2)))
    assert stats["hermiticity_error"] == 0.0
    assert stats["min_eigenvalue"] == np.min(np.linalg.eigvalsh(hermitian_part)[:, 0])


@pytest.mark.parametrize("name,levels", [("L_PUMP", (0, 1)), ("L_STOKES", (1, 2)),
                                         ("L_CONTROL", (1, 3))])
def test_real_superoperators_are_the_coupling_commutators(rng, name, levels):
    # L_k c is the coordinate vector of -i [H_k, rho], H_k the coupling per unit Rabi frequency
    superop = getattr(liouville, name)
    assert superop.shape == (16, 16) and superop.dtype == np.float64
    h = np.zeros((4, 4))
    h[levels] = h[levels[::-1]] = 0.5
    for _ in range(20):
        rho = _random_hermitian(rng)
        expected = -1j * (h @ rho - rho @ h)
        assert np.max(np.abs(density(superop @ coords(rho)) - expected)) < 1e-15


# orderings, delays, dephasing rates and peak Rabi frequencies differ, so
# the windows and the stiffness differ
_MIXED_ORDERINGS = [PulseConfig(ordering=o, omega0=om, tau=tau, gamma=DephasingMatrix.equal(g))
                    for o, om, tau, g in (("overlap", 50.0, 1.5, 0.5), ("scp", 50.0, 1.0, 1.0),
                                          ("fractional", 30.0, 0.75, 0.0), ("csp", 60.0, 2.0, 2.0))]


def _rhs_batch(rng) -> list[PulseConfig]:
    # the four mixed orderings, plus a narrow member on a +-60 window with unequal rates,
    # whose Gaussian exponents pass the 700 clamp towards the window's edges
    wide = PulseConfig(ordering="scp", omega0=40.0, tau=1.0, width=0.5, t_start=-60.0,
                       t_end=60.0, gamma=_random_gamma(rng))
    assert pulse_envelopes(wide.start, wide) == (wide.omega0 * np.exp(-_EXP_CLAMP),) * 3
    return _MIXED_ORDERINGS + [wide]


@pytest.mark.parametrize("rhs", [rhs_bare, rhs_adiabatic], ids=["bare", "adiabatic"])
def test_batched_rhs_matches_each_member(rng, rhs):
    # every row of the batch derivative at s is that member's batch of one at the same s
    cfgs = _rhs_batch(rng)
    batch = Batch.of(cfgs)
    for s in (0.0, 0.13, 0.5, 0.77, 1.0):
        c = coords(np.stack([_random_hermitian(rng) for _ in cfgs]))
        got = rhs(s, c, batch)
        for b, cfg in enumerate(cfgs):
            assert np.max(np.abs(got[b] - rhs(s, c[b], Batch.of([cfg])))) < 1e-15 * cfg.omega0


# squared Frobenius norms of the coordinate basis matrices: |rho_ii|, then Re and Im rho_ij
_NORM2 = np.repeat([1.0, 2.0], [4, 12])


def _conjugated(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """coords(R density(c) R^dag) on stacks."""
    return coords(r @ density(c) @ r.conj().swapaxes(-1, -2))


@given(theta=st.floats(-7.0, 7.0), phi=st.floats(-7.0, 7.0), seed=st.integers(0, 2**32 - 1))
def test_frame_map_is_the_conjugation_by_the_frame(theta, phi, seed):
    # T c = coords(R rho R^dag) for any angles, and N^-1 T^T N undoes it
    rng = np.random.default_rng(seed)
    c = rng.normal(size=16)
    ang = MixingAngles(theta, phi, 0.0, 0.0)
    t = frame_map(ang)
    assert t.shape == (16, 16) and t.dtype == np.float64
    assert np.max(np.abs(t @ c - _conjugated(frame_matrix(ang), c))) < 4e-15 * np.max(np.abs(c))
    assert np.max(np.abs((t.T * _NORM2 / _NORM2[:, None]) @ t - np.eye(16))) < 4e-15


def test_frame_map_on_a_stack_of_angles_is_one_array_pass(rng):
    # (n, B) angles, as the sample times of a batch give them, map in one call
    ang = MixingAngles(rng.uniform(0.0, np.pi / 2, (7, 5)), rng.uniform(0.0, np.pi / 2, (7, 5)),
                       0.0, 0.0)
    t = frame_map(ang)
    assert t.shape == (7, 5, 16, 16)
    c = rng.normal(size=(7, 5, 16))
    got = (t @ c[..., None])[..., 0]
    assert np.max(np.abs(got - _conjugated(frame_matrix(ang), c))) < 4e-15 * np.max(np.abs(c))
    back = ((t.swapaxes(-1, -2) * _NORM2 / _NORM2[:, None]) @ got[..., None])[..., 0]
    assert np.max(np.abs(back - c)) < 1e-14 * np.max(np.abs(c))
    for i, j in ((0, 0), (3, 4), (6, 2)):
        one = frame_map(MixingAngles(ang.theta[i, j], ang.phi[i, j], 0.0, 0.0))
        assert np.max(np.abs(t[i, j] - one)) < 1e-15


def test_frame_table_is_exact_eighths_built_on_first_eigenframe_use():
    # 25 harmonics x 16 x 16, 219 nonzero coefficients, all multiples of 1/8; a bare
    # solve never builds the table, the first eigenframe derivative does
    liouville._frame_terms.cache_clear()
    liouville.integrate(PulseConfig(ordering="scp", omega0=50.0, tau=1.0), samples=20)
    assert liouville._frame_terms.cache_info().currsize == 0
    rhs_adiabatic(0.5, np.eye(16)[0], Batch.of([_cfg()]))
    terms = liouville._frame_terms()
    assert liouville._frame_terms.cache_info().currsize == 1
    assert terms.shape == (25, 256) and np.count_nonzero(terms) == 219
    assert np.array_equal(8.0 * terms, np.round(8.0 * terms))


def test_frame_dephasing_in_coordinates_matches_the_complex_frame(rng):
    # -N^-1 T^T (N gamma_c (.) T c) is coords(-R^dag (gamma (.) (R rho^a R^dag)) R), at the
    # angles of every member of the mixed batch, the clamp member's window edges included
    cfgs = [cfg.with_updates(gamma=_random_gamma(rng)) for cfg in _rhs_batch(rng)]
    batch = Batch.of(cfgs)
    weighted = _NORM2 * batch.rates.take(liouville._POS, axis=1)
    for s in (0.0, 0.02, 0.13, 0.5, 0.77, 0.98, 1.0):
        ang = mixing_angles(batch.start + s * batch.span, batch)
        c = coords(np.stack([_random_hermitian(rng) for _ in cfgs]))
        got = -liouville._frame_damping(c, frame_map(ang), weighted)
        want = coords(liouville._frame_dephasing(density(c), frame_matrix(ang),
                                                 batch.rates.reshape(-1, 4, 4)))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_frame_angles_match_the_mixing_angles(rng):
    # cos and sin of theta and phi and the angle rates, formed with no arctan, against
    # pulses.mixing_angles on the mixed batch across the window; the exponents in s and in
    # t differ by ulps of exponents up to ~1e4, which moves the angles by up to ~1e-14
    batch = Batch.of(_rhs_batch(rng))
    centres, neg_k = liouville._constants(batch)[:2]
    for s in np.linspace(0.0, 1.0, 41):
        d = s - centres
        cos, sin, theta_dot, phi_dot = pulses._frame_angles(neg_k * d * d, -2.0 * neg_k * d)
        ang = mixing_angles(batch.start + s * batch.span, batch)
        angle = np.array([ang.theta, ang.phi])
        assert np.max(np.abs(cos - np.cos(angle))) < 1e-14
        assert np.max(np.abs(sin - np.sin(angle))) < 1e-14
        # the rates of mixing_angles are per unit t; these are per unit s
        scale = 1e-14 * (1.0 + np.abs(ang.theta_dot) + np.abs(ang.phi_dot))
        assert np.all(np.abs(theta_dot / batch.span - ang.theta_dot) < scale)
        assert np.all(np.abs(phi_dot / batch.span - ang.phi_dot) < scale)


def test_rhs_adiabatic_forms_no_complex_frame_per_call(monkeypatch):
    # the derivative reads the real frame map: no 4x4 frame, density or coords round trip
    batch = Batch.of(_MIXED_ORDERINGS)
    liouville._frame_terms()
    c = np.random.default_rng(1).normal(size=(len(batch), 16))
    want = rhs_adiabatic(0.4, c, batch)

    def refuse(*args):
        raise AssertionError("called on the derivative path")

    for name in ("frame_matrix", "density", "coords", "_frame_dephasing", "mixing_angles"):
        monkeypatch.setattr(liouville, name, refuse)
    assert np.array_equal(rhs_adiabatic(0.4, c, batch), want)


def test_an_eigenframe_solve_builds_two_complex_frames_whatever_its_length(monkeypatch):
    # one frame for the initial state, one pass for F2: none per derivative call
    liouville._frame_terms()
    calls = []

    def counted(angles):
        calls.append(np.shape(angles.theta))
        return frame_matrix(angles)

    monkeypatch.setattr(liouville, "frame_matrix", counted)
    traj = liouville.integrate(_cfg(0.5), Basis.ADIABATIC, samples=500)
    assert traj.stats["nfev"] > 1000
    assert calls == [(1,), (500,)]


@pytest.mark.parametrize("engine", ["bare", "adiabatic", "effective"])
def test_a_wide_window_does_not_step_over_the_pulses(monkeypatch, engine):
    # on +-60 around pulses of width 0.5 the step grew across the quiet edges and passed
    # over the pulses (bare F2 0 in 95 calls): no step is longer than the default window,
    # and the end state is that of a solve started at the default window's start
    steps = []
    real = liouville.solve_ivp

    def recorded(*args, **kwargs):
        steps.append(kwargs["max_step"])
        return real(*args, **kwargs)

    monkeypatch.setattr(liouville, "solve_ivp", recorded)
    run = _ENGINES[engine][2]
    wide = PulseConfig(ordering="scp", omega0=50.0, tau=1.5, width=0.5, t_start=-60.0,
                       t_end=60.0, gamma=DephasingMatrix.equal(0.3))
    late = run(wide.with_updates(t_start=-wide.reach), 60)
    default = run(wide.with_updates(t_start=None, t_end=None), 60)
    traj = run(wide, 60)
    assert steps == pytest.approx([9.0 / 64.5, 1.0, 9.0 / 120.0], rel=1e-15)
    assert traj.stats["nfev"] > 1000
    assert abs(traj.fidelity[-1] - late.fidelity[-1]) < 1e-9
    assert default.fidelity[-1] > 0.9


# the derivative each engine solves, looked up by name, and a run of that engine
_ENGINES = {
    "bare": (liouville, "rhs_bare", lambda cfg, samples: liouville.integrate(cfg, samples=samples)),
    "adiabatic": (liouville, "rhs_adiabatic",
                  lambda cfg, samples: liouville.integrate(cfg, Basis.ADIABATIC, samples)),
    "effective": (effective, "_suv_rhs", effective.integrate_suv),
}


@pytest.mark.parametrize("engine", _ENGINES)
def test_engine_derivative_is_called_by_name(monkeypatch, engine):
    # the engine looks the derivative up in the module on every call: the solver's
    # evaluations plus _solve's finiteness check at the start
    module, name, run = _ENGINES[engine]
    rhs, calls = getattr(module, name), []

    def counted(s, c, batch, *mode):
        calls.append(s)
        return rhs(s, c, batch, *mode)

    monkeypatch.setattr(module, name, counted)
    traj = run(PulseConfig(ordering="scp", omega0=50.0, tau=1.0), 50)
    assert len(calls) == traj.stats["nfev"] + 1


@pytest.mark.parametrize("engine,message", [
    ("bare", "the master solve stopped at its budget of 500 derivative calls.*effective"),
    # scp at tau 1 takes 656 (s, u, v) calls at gamma 0
    ("effective", "the effective solve stopped at its budget of 500 derivative calls"),
], ids=["master", "effective"])
def test_a_solve_past_its_derivative_budget_raises(monkeypatch, engine, message):
    monkeypatch.setattr(liouville, "MAX_NFEV", 500)
    with pytest.raises(StepBudgetExceeded, match=message):
        _ENGINES[engine][2](PulseConfig(ordering="scp", omega0=50.0, tau=1.0), 50)


def test_mixed_batch_matches_batch_of_one_solves():
    # every member must land within 1e-9 of its own solve and keep its own exact sampling grid
    cfgs = _MIXED_ORDERINGS
    batch = liouville.integrate_many(cfgs, samples=60)
    for cfg, traj in zip(cfgs, batch):
        alone = liouville.integrate(cfg, samples=60)
        assert traj.cfg is cfg
        assert np.array_equal(traj.t, np.linspace(cfg.start, cfg.end, 60))
        assert np.array_equal(alone.t, traj.t)
        assert np.max(np.abs(traj.fidelity - alone.fidelity)) < 1e-9
        assert traj.stats["trace_error"] < 1e-9


def test_theta_g_of_a_batch_is_one_array_pass_with_exact_values(monkeypatch, quad_calls):
    # 12 members, 3 distinct (ordering, tau, width): Omega0 and gamma do not
    # enter theta_g, so the rule evaluates 3 columns in one mixing_angles call
    calls = []

    def counted(t, cfg):
        calls.append(np.shape(t))
        return mixing_angles(t, cfg)

    monkeypatch.setattr(tripod, "mixing_angles", counted)
    cfgs = [PulseConfig(ordering=o, omega0=om, tau=tau, gamma=DephasingMatrix.equal(g))
            for o, tau in (("scp", 1.0), ("scp", 1.5), ("fractional", 1.0))
            for om in (30.0, 60.0) for g in (0.0, 1.0)]
    trajs = list(liouville.integrate_many(cfgs, samples=40))
    assert len(calls) == 1 and calls[0][1] == 3
    assert quad_calls == []
    monkeypatch.undo()
    for cfg, traj in zip(cfgs, trajs):
        own = target_state(cfg)
        assert traj.target.theta_g == own.theta_g == geometric_phase(cfg)
        assert np.array_equal(traj.fidelity, own.expectation(traj.rho))


@pytest.mark.parametrize("cfgs", [[_cfg(0.5), _cfg(1.0).with_updates(ordering="scp", tau=1.0)],
                                  _MIXED_ORDERINGS], ids=["two", "four-orderings"])
def test_adiabatic_batch_matches_the_bare_batch(cfgs):
    bare = liouville.integrate_many(cfgs, samples=50)
    adia = liouville.integrate_many(cfgs, basis=Basis.ADIABATIC, samples=50)
    for b, a in zip(bare, adia):
        assert a.basis is Basis.ADIABATIC
        assert np.max(np.abs(b.rho - a.rho)) < 1e-6


def test_integrate_many_rejects_an_empty_batch():
    with pytest.raises(ValueError, match="at least one configuration"):
        liouville.integrate_many([], samples=10)


def test_integrate_rejects_single_sample():
    with pytest.raises(ValueError, match="samples must be at least 2"):
        liouville.integrate(_cfg(), samples=1)


def test_integrate_shapes_and_initial_state(master_run):
    traj = master_run("overlap", gamma=1.0)
    n = traj.t.size
    assert traj.rho.shape == (n, 4, 4)
    assert traj.rho_a.shape == (n, 4, 4)
    assert traj.fidelity.shape == (n,)
    rho0 = np.zeros((4, 4))
    rho0[0, 0] = 1.0
    assert np.max(np.abs(traj.rho[0] - rho0)) < 1e-12
    assert np.allclose(traj.populations.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(traj.adiabatic_populations.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(traj.fidelity > -1e-9) and np.all(traj.fidelity < 1.0 + 1e-9)


@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_integrate_quality_stats(master_run, gamma):
    stats = master_run("overlap", gamma=gamma).stats
    assert set(stats) == {"nfev", "trace_error", "hermiticity_error", "min_eigenvalue"}
    assert stats["trace_error"] < 1e-8
    assert stats["hermiticity_error"] < 1e-10
    assert stats["min_eigenvalue"] > -1e-8
    assert stats["nfev"] > 0


def test_zero_dephasing_keeps_the_state_pure(master_run):
    traj = master_run("overlap", gamma=0.0)
    purity = np.einsum("nij,nji->n", traj.rho, traj.rho).real
    assert np.max(np.abs(purity - 1.0)) < 1e-8


def test_zero_dephasing_transfer_is_nearly_ideal(master_run):
    traj = master_run("overlap", gamma=0.0)
    assert traj.fidelity[-1] > 0.99


def test_bare_and_adiabatic_bases_agree(master_run):
    bare = master_run("overlap", gamma=1.0)
    adia = master_run("overlap", gamma=1.0, basis=Basis.ADIABATIC)
    assert np.max(np.abs(bare.rho - adia.rho)) < 1e-6
    assert np.max(np.abs(bare.rho_a - adia.rho_a)) < 1e-6


def test_adiabatic_frame_roundtrip(rng):
    cfg = _cfg()
    rho = _random_hermitian(rng)
    back = liouville.from_adiabatic(liouville.to_adiabatic(rho, 0.3, cfg), 0.3, cfg)
    assert np.max(np.abs(back - rho)) < 1e-13


@pytest.mark.parametrize("ordering", ["overlap", "scp", "csp", "fractional"])
def test_stacked_transforms_match_the_per_sample_form(rng, ordering):
    cfg = PulseConfig(ordering=ordering, omega0=50.0, tau=1.3)
    t = np.linspace(cfg.start, cfg.end, 201)
    rho = rng.normal(size=(t.size, 4, 4)) + 1j * rng.normal(size=(t.size, 4, 4))
    rho_a = liouville.to_adiabatic(rho, t, cfg)
    back = liouville.from_adiabatic(rho, t, cfg)
    for i in range(t.size):
        r = adiabatic_frame(t[i], cfg).R
        assert np.array_equal(rho_a[i], r.conj().T @ rho[i] @ r)
        assert np.array_equal(back[i], r @ rho[i] @ r.conj().T)
        assert np.array_equal(rho_a[i], liouville.to_adiabatic(rho[i], t[i], cfg))


def test_nan_derivative_at_the_start_raises_instead_of_hanging(monkeypatch):
    # a NaN first derivative makes RK45's first step size NaN and its step
    # loop never ends; the alarm turns a regression into a failure, not a hang
    monkeypatch.setattr(liouville, "rhs_bare", lambda t, rho, batch: np.full_like(rho, np.nan))

    def timeout(signum, frame):
        raise TimeoutError("the solver did not return")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(30)
    try:
        with pytest.raises(ToleranceNotMet, match="non-finite derivative at the start"):
            liouville.integrate(PulseConfig(ordering="scp", omega0=50.0, tau=1.0), samples=50)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
