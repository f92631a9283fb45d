"""Master-equation propagation: generator structure and trajectory quality."""

from __future__ import annotations

import math
import signal
import warnings
from functools import partial

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, strategies as st

import liouvillian16 as oracle
from arctan_angles import arctan_angles
from tripod_stirap import effective, liouville, tripod
from tripod_stirap.errors import StepBudgetExceeded, ToleranceNotMet
from tripod_stirap.liouville import (Basis, Batch, coords, density, frame_map, rhs_adiabatic,
                                      rhs_bare)
from tripod_stirap.pulses import (_EXP_CLAMP, DephasingMatrix, MixingAngles, PulseConfig,
                                  mixing_angles, pulse_envelopes)
from tripod_stirap.tripod import (adiabatic_frame, frame_matrix, geometric_phase, hamiltonian,
                                  target_state)

_ADIABATIC = Basis.ADIABATIC


def _random_hermitian(rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = a @ a.conj().T
    return h / np.trace(h).real


def _mixed_states(rng: np.random.Generator, size: tuple = ()) -> np.ndarray:
    """Real symmetric positive states of unit trace, size + (4, 4)."""
    a = rng.normal(size=size + (4, 4))
    s = a @ a.swapaxes(-1, -2)
    return s / np.einsum("...ii->...", s)[..., None, None]


def _random_state(rng: np.random.Generator, basis: Basis = Basis.BARE,
                  size: tuple = ()) -> np.ndarray:
    """Random states of shape size + (4, 4) with the tripod's symmetry rho = P rho* P,
    P = diag(1, -1, 1, 1), in either basis: density of a real symmetric positive state."""
    return density(_mixed_states(rng, size)[..., liouville._ROW, liouville._COL], basis)


def _random_gamma(rng: np.random.Generator) -> DephasingMatrix:
    m = rng.uniform(0.1, 2.0, size=(4, 4))
    m = 0.5 * (m + m.T)
    np.fill_diagonal(m, 0.0)
    return DephasingMatrix(m)


def _cfg(gamma: float = 1.0) -> PulseConfig:
    return PulseConfig(ordering="overlap", omega0=50.0, tau=1.5,
                       gamma=DephasingMatrix.equal(gamma))


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
    rho = _random_state(rng)
    dot = density(_rhs_at(rhs_bare, 40.0, coords(rho), cfg))
    assert np.allclose(np.diagonal(dot), 0.0, atol=1e-30)
    assert np.allclose(dot, -gamma.rates * rho, atol=1e-30)


@given(t=st.floats(-8.0, 8.0), seed=st.integers(0, 2**32 - 1))
def test_rhs_bare_preserves_trace_and_hermiticity(t, seed):
    rng = np.random.default_rng(seed)
    rho = _random_state(rng)
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
    rho_a = _random_state(rng, _ADIABATIC)
    frame = adiabatic_frame(t, cfg)
    rho = frame.R @ rho_a @ frame.R.conj().T
    h, ang = 1e-6, frame.angles
    theta, phi = math.atan2(ang.sin_theta, ang.cos_theta), math.atan2(ang.sin_phi, ang.cos_phi)
    shifted = lambda sgn: frame_matrix(MixingAngles.at(theta + sgn * h * ang.theta_dot,
                                                       phi + sgn * h * ang.phi_dot))
    w = frame.R.conj().T @ (shifted(+1) - shifted(-1)) / (2.0 * h)
    expected = (frame.R.conj().T @ density(_rhs_at(rhs_bare, t, coords(rho), cfg)) @ frame.R
                - (w @ rho_a - rho_a @ w))
    got = density(_rhs_at(rhs_adiabatic, t, coords(rho_a, _ADIABATIC), cfg), _ADIABATIC)
    assert np.max(np.abs(got - expected)) < 1e-7 * cfg.omega0


@given(s=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       basis=st.sampled_from(list(Basis)))
def test_ten_coordinate_derivatives_are_the_complex_liouvillian(s, seed, basis):
    # on states rho = P rho* P the 10-coordinate derivative of either basis is the complex
    # 4x4 Liouvillian of the 16-coordinate oracle, member by member, on the mixed batch with
    # unequal rates
    rng = np.random.default_rng(seed)
    batch = Batch.of([cfg.with_updates(gamma=_random_gamma(rng)) for cfg in _rhs_batch(rng)])
    rho = _random_state(rng, basis, (len(batch),))
    rhs, reference = ((rhs_bare, oracle.rhs_bare) if basis is Basis.BARE
                      else (rhs_adiabatic, oracle.rhs_adiabatic))
    got = density(rhs(s, coords(rho, basis).ravel(), batch).reshape(-1, 10), basis)
    want = oracle.density(reference(s, oracle.coords(rho).ravel(), batch).reshape(-1, 16))
    scale = np.max(np.abs(want), axis=(1, 2))[:, None, None]
    assert np.all(np.abs(got - want) <= 1e-14 * scale)
    if basis is Basis.BARE:  # and the oracle keeps rho = P rho* P: its other six are 0.0
        assert np.all(oracle.coords(want)[:, oracle.ZERO] == 0.0)


@given(t=st.floats(-8.0, 8.0), seed=st.integers(0, 2**32 - 1))
def test_superoperators_reproduce_the_commutator(t, seed):
    # sum_k Omega_k L_k c is the coordinates of -i [H, rho] with the assembled Hamiltonian
    rng = np.random.default_rng(seed)
    cfg = _cfg()
    rho = _random_state(rng)
    op, os_, oc = pulse_envelopes(t, cfg)
    drive = op * liouville.L_PUMP + os_ * liouville.L_STOKES + oc * liouville.L_CONTROL
    h = hamiltonian(t, cfg)
    expected = -1j * (h @ rho - rho @ h)
    assert np.max(np.abs(density(drive @ coords(rho)) - expected)) < 1e-12 * cfg.omega0


def test_coordinates_round_trip_exactly(rng):
    # exactly in the bare basis, where density only multiplies by 1, -1, i and -i
    c = rng.normal(size=(50, 10))
    assert np.array_equal(coords(density(c)), c)
    rho = _random_state(rng)
    assert np.max(np.abs(density(coords(rho)) - rho)) < 1e-16
    assert np.max(np.abs(coords(density(c, _ADIABATIC), _ADIABATIC) - c)) < 1e-15 * np.abs(c).max()
    rho_a = _random_state(rng, _ADIABATIC)
    assert np.max(np.abs(density(coords(rho_a, _ADIABATIC), _ADIABATIC) - rho_a)) < 2e-16


@pytest.mark.parametrize("n", [1, 7, 622, 10_000])
def test_density_has_the_bits_of_the_complex_product(rng, n):
    # rho = U^dag rho~ U with U = diag(1, -i, 1, 1), formed as each entry of the real
    # symmetric rho~ times 1, i or -i: exactly the product, up to the sign of a zero, on
    # row-major and transposed stacks of states and on one state
    c = rng.normal(size=(n, 10))
    c[rng.random(c.shape) < 0.1] = 0.0
    u = np.diag([1.0, -1j, 1.0, 1.0])
    for states in (c, np.ascontiguousarray(c.T).T, c[0]):
        assert np.array_equal(density(states), u.conj().T @ liouville._symmetric(states) @ u)


def test_every_real_coordinate_vector_is_a_hermitian_matrix(rng):
    # in both bases, with the symmetry rho = P rho* P
    p = np.diag([1.0, -1.0, 1.0, 1.0])
    rho = density(rng.normal(size=(50, 10)))
    assert rho.shape == (50, 4, 4)
    assert np.array_equal(rho, np.conj(np.swapaxes(rho, -1, -2)))
    assert np.array_equal(rho, p @ rho.conj() @ p)
    rho_a = density(rng.normal(size=(50, 10)), _ADIABATIC)
    assert np.max(np.abs(rho_a - np.conj(np.swapaxes(rho_a, -1, -2)))) < 1e-15 * np.abs(rho_a).max()


def _folded(states: np.ndarray) -> dict:
    """The invariants _Invariants folds over one (n, 4, 4) stack handed to it at once."""
    folded = liouville._Invariants(1)
    folded.add(states[:, None])
    return folded.stats()[0]


def test_invariants_read_the_states_as_density_builds_them(rng):
    # the fold reads the real symmetric rho~, whose spectrum is that of rho = U^dag rho~ U
    c = rng.normal(size=(200, 10))
    stats = _folded(liouville._symmetric(c))
    assert stats["hermiticity_error"] == 0.0
    assert stats["min_eigenvalue"] == np.min(np.linalg.eigvalsh(liouville._symmetric(c))[:, 0])
    least = np.min(np.linalg.eigvalsh(density(c))[:, 0])
    assert abs(stats["min_eigenvalue"] - least) < 1e-14 * abs(least)


def _with_least(state: np.ndarray, least: float) -> np.ndarray:
    """The real symmetric state with its least eigenvalue set to `least`, exactly symmetric."""
    values, vectors = np.linalg.eigh(state)
    values[0] = least
    return liouville._symmetric(((vectors * values) @ vectors.T)[liouville._ROW, liouville._COL])


def test_positivity_certificate_keeps_the_warning_and_the_exact_minimum(rng):
    # a stack that passes the Cholesky certificate reports its final sample's least
    # eigenvalue; one that fails reports the least over the whole stack, and warns below -1e-6
    states = _mixed_states(rng, (60,))

    cfg = _cfg()

    def run(stack):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rho = density(stack[:, liouville._ROW, liouville._COL])
            stats = liouville._trajectory(cfg, Basis.BARE, len(stack), rho, 0, 0.0,
                                          _folded(stack)).stats
        return stats["min_eigenvalue"], [str(warning.message) for warning in caught]

    assert run(states) == (np.linalg.eigvalsh(states[-1])[0], [])
    for least, warns in ((-2e-6, True), (-5e-7, False)):
        stack = states.copy()
        stack[17] = _with_least(states[17], least)
        value, caught = run(stack)
        assert value == np.min(np.linalg.eigvalsh(stack)[:, 0])
        assert abs(value - least) < 1e-15
        assert bool(caught) is warns and all("lost positivity" in text for text in caught)


@pytest.mark.parametrize("name,levels", [("L_PUMP", (0, 1)), ("L_STOKES", (1, 2)),
                                         ("L_CONTROL", (1, 3))])
def test_real_superoperators_are_the_coupling_commutators(rng, name, levels):
    # L_k c is the coordinate vector of -i [H_k, rho], H_k the coupling per unit Rabi frequency
    superop = getattr(liouville, name)
    assert superop.shape == (10, 10) and superop.dtype == np.float64
    h = np.zeros((4, 4))
    h[levels] = h[levels[::-1]] = 0.5
    for _ in range(20):
        rho = _random_state(rng)
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
        c = rng.normal(size=(len(cfgs), 10))
        # the flat state holds the members one after another
        got = rhs(s, c.ravel(), batch).reshape(len(cfgs), 10)
        for b, cfg in enumerate(cfgs):
            assert np.max(np.abs(got[b] - rhs(s, c[b], Batch.of([cfg])))) < 1e-15 * cfg.omega0


# squared Frobenius norms of the coordinate basis matrices: the diagonal, then the i < j
_NORM2 = np.repeat([1.0, 2.0], [4, 6])


def _conjugated(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The bare coordinates of R rho^a R^dag, rho^a = density(c, ADIABATIC), on stacks."""
    return coords(r @ density(c, _ADIABATIC) @ r.conj().swapaxes(-1, -2))


@given(theta=st.floats(-7.0, 7.0), phi=st.floats(-7.0, 7.0), seed=st.integers(0, 2**32 - 1))
def test_frame_map_is_the_conjugation_by_the_frame(theta, phi, seed):
    # T c = coords(R rho^a R^dag) for any angles, and N^-1 T^T N undoes it
    rng = np.random.default_rng(seed)
    c = rng.normal(size=10)
    ang = MixingAngles.at(theta, phi)
    t = frame_map(ang)
    assert t.shape == (10, 10) and t.dtype == np.float64
    assert np.max(np.abs(t @ c - _conjugated(frame_matrix(ang), c))) < 4e-15 * np.max(np.abs(c))
    assert np.max(np.abs((t.T * _NORM2 / _NORM2[:, None]) @ t - np.eye(10))) < 4e-15


def test_frame_map_on_a_stack_of_angles_is_one_array_pass(rng):
    # (n, B) angles, as the sample times of a batch give them, map in one call
    theta, phi = rng.uniform(0.0, np.pi / 2, (2, 7, 5))
    ang = MixingAngles.at(theta, phi)
    t = frame_map(ang)
    assert t.shape == (7, 5, 10, 10)
    c = rng.normal(size=(7, 5, 10))
    got = (t @ c[..., None])[..., 0]
    assert np.max(np.abs(got - _conjugated(frame_matrix(ang), c))) < 4e-15 * np.max(np.abs(c))
    back = ((t.swapaxes(-1, -2) * _NORM2 / _NORM2[:, None]) @ got[..., None])[..., 0]
    assert np.max(np.abs(back - c)) < 1e-14 * np.max(np.abs(c))
    for i, j in ((0, 0), (3, 4), (6, 2)):
        one = frame_map(MixingAngles.at(theta[i, j], phi[i, j]))
        assert np.max(np.abs(t[i, j] - one)) < 1e-15


def test_frame_table_is_exact_eighths_built_on_first_eigenframe_use():
    # 25 harmonics x 10 x 10, 60 nonzero coefficients, all multiples of 1/8; a bare
    # solve never builds the table, the first eigenframe derivative does
    liouville._frame_terms.cache_clear()
    liouville.integrate(PulseConfig(ordering="scp", omega0=50.0, tau=1.0), samples=20)
    assert liouville._frame_terms.cache_info().currsize == 0
    rhs_adiabatic(0.5, np.eye(10)[0], Batch.of([_cfg()]))
    assert liouville._frame_terms.cache_info().currsize == 1
    terms = liouville._frame_terms()
    assert terms.shape == (25, 100) and np.count_nonzero(terms) == 60
    assert np.array_equal(8.0 * terms, np.round(8.0 * terms))


def test_adiabatic_weights_of_a_member_have_the_same_bits_alone_and_in_any_batch(rng):
    # the eigenframe weights and frame maps of each member of the mixed batch, the clamp
    # member's exponent clamp included, at the times of the step loop's passes: a step's 12
    # stage times, its 3 dense-output times, and the window's ends one at a time, as the
    # initial-step calls take them
    cfgs = _rhs_batch(rng)
    batch = Batch.of(cfgs)
    rk, t, h = liouville._DOP853, rng.random(), 0.05 * rng.random()
    for s in (t + np.append(rk.C[1:], 1.0) * h, t + rk.C_EXTRA * h, np.array([0.0]),
              np.array([1.0])):
        mixed = liouville._adiabatic_weights(s, batch)
        assert len(mixed) == len(s)
        for b, cfg in enumerate(cfgs):
            for (drive, frame), (drive_b, frame_b) in zip(
                    liouville._adiabatic_weights(s, Batch.of([cfg])), mixed):
                assert np.array_equal(drive[0], drive_b[b])
                assert np.array_equal(frame[0], frame_b[b])


def test_frame_dephasing_in_coordinates_matches_the_complex_frame(rng):
    # -N^-1 T^T (N gamma_c (.) T c) is the coordinates of -R^dag (gamma (.) (R rho^a R^dag)) R,
    # at the angles of every member of the mixed batch, the clamp member's window edges included
    cfgs = [cfg.with_updates(gamma=_random_gamma(rng)) for cfg in _rhs_batch(rng)]
    batch = Batch.of(cfgs)
    weighted = _NORM2 * batch.rates.take(4 * liouville._ROW + liouville._COL, axis=1)
    for s in (0.0, 0.02, 0.13, 0.5, 0.77, 0.98, 1.0):
        ang = mixing_angles(batch.start + s * batch.span, batch)
        rho_a = _random_state(rng, _ADIABATIC, (len(cfgs),))
        got = -liouville._frame_damping(coords(rho_a, _ADIABATIC), frame_map(ang), weighted)
        r = frame_matrix(ang)
        r_h = r.conj().swapaxes(-1, -2)
        dephasing = -(r_h @ (batch.rates.reshape(-1, 4, 4) * (r @ rho_a @ r_h)) @ r)
        want = coords(dephasing, _ADIABATIC)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_slow_function_angles_match_the_arctan_oracle(rng):
    # cos and sin of theta and phi and the angle rates of the eigenframe derivative, from the
    # exponents in s, against the arctan angles at t on the mixed batch across the window;
    # the exponents in s and in t differ by ulps of exponents up to ~1e4, which moves the
    # angles by up to ~1e-14
    batch = Batch.of(_rhs_batch(rng))
    s = np.linspace(0.0, 1.0, 41)
    drive, cos, sin = liouville._slow_functions(s, batch)
    assert drive.shape == (41, len(batch), 4)
    theta, phi, theta_dot, phi_dot = arctan_angles(batch.start + s[:, None] * batch.span, batch)
    for got, want in ((cos[0], np.cos(theta)), (sin[0], np.sin(theta)), (cos[1], np.cos(phi)),
                      (sin[1], np.sin(phi))):
        assert np.max(np.abs(got - want)) < 1e-14
    # the rates of the oracle are per unit t; these are per unit s
    scale = 1e-14 * (1.0 + np.abs(theta_dot) + np.abs(phi_dot))
    assert np.all(np.abs(drive[..., 1] / batch.span - theta_dot) < scale)
    assert np.all(np.abs(drive[..., 2] / batch.span - phi_dot * sin[0]) < scale)


def test_rhs_adiabatic_forms_no_complex_frame_per_call(monkeypatch):
    # the derivative reads the real frame map: no 4x4 frame, density or coords round trip
    batch = Batch.of(_MIXED_ORDERINGS)
    liouville._frame_terms()
    c = np.random.default_rng(1).normal(size=(len(batch), 10))
    want = rhs_adiabatic(0.4, c, batch)

    def refuse(*args):
        raise AssertionError("called on the derivative path")

    for name in ("frame_matrix", "density", "coords", "_symmetric", "mixing_angles"):
        monkeypatch.setattr(liouville, name, refuse)
    assert np.array_equal(rhs_adiabatic(0.4, c, batch), want)


def test_an_eigenframe_solve_builds_two_complex_frames_whatever_its_length(monkeypatch):
    # one frame for the initial state, one pass for F2: none per derivative call
    liouville._frame_terms()
    calls = []

    def counted(angles):
        calls.append(np.shape(angles.cos_theta))
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
    steps, bound = [], liouville._max_step

    def recorded(batch):
        steps.append(bound(batch))
        return steps[-1]

    monkeypatch.setattr(liouville, "_max_step", recorded)
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


# the derivative each engine binds by name, and a run of that engine
_ENGINES = {
    "bare": (liouville, "rhs_bare", lambda cfg, samples: liouville.integrate(cfg, samples=samples)),
    "adiabatic": (liouville, "rhs_adiabatic",
                  lambda cfg, samples: liouville.integrate(cfg, Basis.ADIABATIC, samples)),
    "effective": (effective, "_suv_rhs", effective.integrate_suv),
}


@pytest.mark.parametrize("engine", _ENGINES)
def test_engine_derivative_is_called_by_name(monkeypatch, engine):
    # the engine looks the derivative up in the module once per solve and binds it: every
    # call is one of the solve's evaluations, the finiteness check at the start reading the
    # first of them
    module, name, run = _ENGINES[engine]
    rhs, calls = getattr(module, name), []

    def counted(s, c, batch, **mode):
        calls.append(s)
        return rhs(s, c, batch, **mode)

    monkeypatch.setattr(module, name, counted)
    traj = run(PulseConfig(ordering="scp", omega0=50.0, tau=1.0), 50)
    assert len(calls) == traj.stats["nfev"]


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


# the +-60 windows of the console script's eigenframe cases: pulses of width 0.5 with its
# unequal rates, where the exponents pass the clamp towards the edges, and of width 0.25
_CLAMP_WINDOW = _cfg(0.3).with_updates(ordering="scp", width=0.5, t_start=-60.0, t_end=60.0,
                                       gamma=DephasingMatrix([[0.0, 0.2, 0.5, 1.1],
                                                              [0.2, 0.0, 0.7, 0.3],
                                                              [0.5, 0.7, 0.0, 0.9],
                                                              [1.1, 0.3, 0.9, 0.0]]))
_NARROW_WINDOW = _cfg(0.3).with_updates(ordering="scp", width=0.25, t_start=-60.0, t_end=60.0)


@pytest.mark.parametrize("cfgs,bound", [
    ([_cfg(0.5), _cfg(1.0).with_updates(ordering="scp", tau=1.0)], 1e-6),
    (_MIXED_ORDERINGS, 1e-6), ([_CLAMP_WINDOW], 1e-8), ([_NARROW_WINDOW], 1e-8)],
    ids=["two", "four-orderings", "clamp-window", "narrow-window"])
def test_adiabatic_batch_matches_the_bare_batch(cfgs, bound):
    bare = liouville.integrate_many(cfgs, samples=50)
    adia = liouville.integrate_many(cfgs, basis=Basis.ADIABATIC, samples=50)
    for b, a in zip(bare, adia):
        assert a.basis is Basis.ADIABATIC
        assert np.max(np.abs(b.rho - a.rho)) < bound


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
    # a NaN first derivative makes the first step size NaN, on which the step loop would
    # never end; the alarm turns a regression into a failure, not a hang
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


# ------------------------------------------------------------------ the step loop

def test_the_tableau_read_from_the_coefficients_file_is_scipys_dop853_to_the_bit():
    # the loop reads SciPy's coefficients file without importing scipy.integrate; its
    # slices, shapes and the two literals the file lacks are those of the DOP853 class
    got, want = liouville._DOP853, scipy.integrate.DOP853
    for name in ("A", "B", "C", "E3", "E5", "D", "A_EXTRA", "C_EXTRA"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype == np.float64, name
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
    assert got.n_stages == want.n_stages == 12
    assert got.error_estimator_order == want.error_estimator_order == 7
    assert got.TOO_SMALL_STEP == want.TOO_SMALL_STEP


def _solve_ivp(rhs, y0: np.ndarray, batch: Batch, samples: int | None):
    """solve_ivp on _solve_batch's problem: the same solver, window, tolerances and step bound,
    with the derivative rhs(s, y, batch) bound to the batch."""
    max_step = min(2.0 * cfg.reach / span for cfg, span in zip(batch.cfgs, batch.span))
    return scipy.integrate.solve_ivp(
        partial(rhs, batch=batch), (0.0, 1.0), y0, method="DOP853", rtol=liouville.RTOL,
        atol=liouville.ATOL, max_step=max_step,
        t_eval=None if samples is None else np.linspace(0.0, 1.0, samples))


def _stacked_invariants(states: np.ndarray) -> dict:
    """The invariants of one (n, 4, 4) stack in a single pass: trace and Hermiticity errors,
    and the final state's least eigenvalue if the shifted stack passes a Cholesky
    factorisation, else the least over the stack."""
    try:
        np.linalg.cholesky(states + 1e-12 * np.eye(4))
        checked = states[-1:]
    except np.linalg.LinAlgError:
        checked = states
    return {
        "trace_error": float(np.max(np.abs(np.einsum("nii->n", states) - 1.0))),
        "hermiticity_error": float(np.max(np.abs(states - np.conj(states.swapaxes(1, 2))))),
        "min_eigenvalue": float(np.min(np.linalg.eigvalsh(checked)[:, 0])),
    }


def _derivative(engine: str, batch: Batch) -> tuple:
    """An engine's derivative rhs(s, y, batch, w=None) and its weights(ts, batch), unbound
    as the step loop takes them, and the engine's initial state on `batch`."""
    if engine == "effective":
        mode = effective.Mode.FULL
        return (partial(effective._suv_rhs, mode=mode), partial(effective._suv_weights, mode=mode),
                np.repeat([-0.5, 1.0 / np.sqrt(2.0), 0.0], len(batch)))
    if engine == "bare":
        return rhs_bare, liouville._bare_weights, np.tile(np.eye(10)[0], len(batch))
    c0 = liouville.to_adiabatic(density(np.eye(10)[0]), batch.start, batch)
    return rhs_adiabatic, liouville._adiabatic_weights, coords(c0, _ADIABATIC).ravel()


def _reference(engine: str, batch: Batch) -> tuple:
    """What the solve_ivp comparisons solve: the 16-coordinate oracle of a master basis, whose
    error norm counts 16 coordinates per member as the master solve's does, or the effective
    engine's own derivative."""
    return _derivative(engine, batch) if engine == "effective" else oracle.derivative(
        Basis(engine), batch)


# the wide member of _rhs_batch's kind alone: its +-60 window bounds the step at 1/12
_WIDE = PulseConfig(ordering="scp", omega0=40.0, tau=1.0, width=0.5, t_start=-60.0, t_end=60.0,
                    gamma=DephasingMatrix.equal(0.3))

# every derivative: master bare, effective and the master eigenframe; the "-wide" cases run
# on _WIDE, where the step bound takes effect
_GRID_CASES = {"master": ("bare", 0), "effective-DOP853": ("effective", 0),
               "adiabatic": ("adiabatic", 0), "master-wide": ("bare", 1),
               "effective-wide": ("effective", 1)}


@pytest.mark.parametrize("engine,wide", _GRID_CASES.values(), ids=list(_GRID_CASES))
def test_grid_output_is_that_of_solve_ivp_to_the_bit(engine, wide):
    # the stage-batched step loop, its dense output on the steps that hold samples and its
    # count are solve_ivp's DOP853 on the same derivative, on every engine
    batch = Batch.of([_WIDE] if wide else _MIXED_ORDERINGS[:3])
    rhs, weights, y0 = _reference(engine, batch)
    y, nfev = liouville._solve_batch(rhs, weights, y0, batch, 70, "{}")
    ref = _solve_ivp(rhs, y0, batch, 70)
    assert y.shape == (len(y0), 70) and nfev == ref.nfev
    assert np.array_equal(y.view(np.uint64), ref.y.view(np.uint64))


# fig6's final-state batch on a two-value gamma grid, as perfbench's master-grid solves it
_FIG6_BATCH = Batch.of([PulseConfig(ordering="scp", omega0=200.0, tau=tau,
                                    gamma=DephasingMatrix.equal(g))
                        for g in (0.8, 1.7) for tau in (1.0, 1.5, 2.0)])


def test_final_state_of_a_fig6_batch_is_that_of_solve_ivp_to_the_bit():
    # six dephased members at Omega0 200: the batch shape and step count of the final-state
    # figures, on the final-state path
    rhs, weights, y0 = _reference("bare", _FIG6_BATCH)
    y, nfev = liouville._solve_batch(rhs, weights, y0, _FIG6_BATCH, None, "{}", lambda rows: None)
    ref = _solve_ivp(rhs, y0, _FIG6_BATCH, None)
    assert y.shape == (len(y0), 1) and nfev == ref.nfev
    assert np.array_equal(y[:, 0].view(np.uint64), ref.y[:, -1].view(np.uint64))


@pytest.mark.parametrize("engine", ["bare", "adiabatic", "effective"])
def test_weights_run_once_per_step_attempt_and_the_derivative_once_per_stage(engine):
    # one weights pass for the 12 stage times of each step attempt, rejected ones included,
    # and one for the 3 dense-output stages of each step that holds samples; the derivative
    # runs nfev times, and every call after the two of the initial step is handed its weights
    batch = Batch.of(_MIXED_ORDERINGS[:3])
    rhs, weights, y0 = _derivative(engine, batch)
    ref = _solve_ivp(rhs, y0, batch, None)
    attempts, rest = divmod(ref.nfev - 2, 12)
    assert rest == 0 and attempts > len(ref.t) - 1
    # sample s > 0 lies on the first accepted step ending at or after it, s = 0 on the first
    held = np.unique(np.maximum(ref.t.searchsorted(np.linspace(0.0, 1.0, 70)), 1)).size
    for samples, passes in ((None, {12: attempts}), (70, {12: attempts, 3: held})):
        sizes, handed = [], []

        def counted_weights(ts, batch):
            sizes.append(len(ts))
            return weights(ts, batch)

        def counted_rhs(s, y, batch, **w):
            handed.append("w" in w)
            return rhs(s, y, batch, **w)

        _, nfev = liouville._solve_batch(counted_rhs, counted_weights, y0, batch, samples, "{}",
                                         lambda rows: None)
        assert {size: sizes.count(size) for size in sizes} == passes
        assert len(handed) == nfev and handed == [False, False] + [True] * (nfev - 2)


# a lone dephased member, whose arrays NumPy may take other paths on (at gamma 0 the
# generator's sums are exact in any order, and no path shows), and the mixed batch
_STAGE_BATCHES = {1: Batch.of(_MIXED_ORDERINGS[3:]), 4: Batch.of(_MIXED_ORDERINGS)}


def _bits(weights) -> list:
    """The bit patterns of one stage time's weights: an array, or the eigenframe's pair."""
    return [part.view(np.uint64) for part in (weights if isinstance(weights, tuple) else
                                              (weights,))]


# a stage at t + h with h = 1 - t can pass 1 by an ulp
@pytest.mark.parametrize("members", _STAGE_BATCHES)
@given(engine=st.sampled_from(["bare", "adiabatic", "effective"]),
       s=st.lists(st.floats(0.0, np.nextafter(1.0, 2.0)), min_size=1, max_size=13),
       seed=st.integers(0, 2**32 - 1))
def test_weights_at_n_stage_times_are_n_one_time_calls_to_the_bit(members, engine, s, seed):
    # one weights pass over a step's stage times has the bits of a call per time, and the
    # derivative handed a time's weights has the bits of the one that computes them
    rhs, weights, y0 = _derivative(engine, batch := _STAGE_BATCHES[members])
    rhs, weights = partial(rhs, batch=batch), partial(weights, batch=batch)
    y = np.random.default_rng(seed).normal(size=y0.shape)
    at_once = weights(np.array(s))
    assert len(at_once) == len(s)
    for x, w in zip(s, at_once):
        for got, want in zip(_bits(w), _bits(weights(np.array([x]))[0]), strict=True):
            assert np.array_equal(got, want)
        assert np.array_equal(rhs(x, y, w=w).view(np.uint64), rhs(x, y).view(np.uint64))


def _recorded(monkeypatch) -> list:
    """The stacks the solves hand their folds from here on, recorded as they pass."""
    stacks, add = [], liouville._Invariants.add

    def recording(self, states):
        stacks.append(states)
        add(self, states)

    monkeypatch.setattr(liouville._Invariants, "add", recording)
    return stacks


def test_final_state_call_keeps_the_last_state_and_folds_the_invariants(monkeypatch):
    # no output grid: the solver's own last state, and invariants folded chunk by chunk that
    # equal one pass over each member's stack of every accepted step; the steps are those of
    # solve_ivp on the 16-coordinate oracle
    batch = Batch.of(_MIXED_ORDERINGS[:3])
    ref = _solve_ivp(*_reference("bare", batch)[::2], batch, None)
    # the solve rejects steps: beyond 2 start calls, 12 per attempt and more attempts than steps
    assert ref.nfev > 12 * (len(ref.t) - 1) + 2
    stacks = _recorded(monkeypatch)
    trajs = list(liouville.integrate_many(batch.cfgs, samples=None))
    assert [len(stack) for stack in stacks] == [128, 128, len(ref.t) - 256]  # three chunks
    steps = np.concatenate(stacks)
    # the step sizes differ in rounding, which moves the states by about the local error
    assert np.max(np.abs(density(steps[..., liouville._ROW, liouville._COL])
                         - oracle.density(ref.y.T.reshape(-1, 3, 16)))) < 1e-9
    for b, traj in enumerate(trajs):
        assert traj.t.shape == traj.fidelity.shape == (1,) and traj.states.shape == (1, 4, 4)
        assert np.array_equal(coords(traj.states[0]), steps[-1, b][liouville._ROW, liouville._COL])
        assert traj.stats == {"nfev": ref.nfev, **_stacked_invariants(steps[:, b])}


@pytest.mark.parametrize("basis", list(Basis))
def test_grid_solve_folds_its_samples_in_chunks(monkeypatch, basis):
    # after the step loop the samples reach the fold _FOLD // B at a time, and the folded
    # invariants equal one pass over each member's whole stack of samples
    stacks = _recorded(monkeypatch)
    trajs = list(liouville.integrate_many(_MIXED_ORDERINGS[:3], basis=basis, samples=300))
    assert liouville._FOLD // 3 == 128
    assert [stack.shape for stack in stacks] == [(128, 3, 4, 4), (128, 3, 4, 4), (44, 3, 4, 4)]
    samples = np.concatenate(stacks)
    for b, traj in enumerate(trajs):
        assert np.max(np.abs(density(samples[:, b, liouville._ROW, liouville._COL], basis)
                             - traj.states)) < 1e-15
        assert traj.stats == {"nfev": traj.stats["nfev"], **_stacked_invariants(samples[:, b])}


def test_folded_invariants_match_one_pass_where_the_certificate_fails(rng):
    # one member's state 17 has an eigenvalue of -2e-6: folded in chunks of 7 states, that
    # member reports the least over its stack, the others their final state's least
    states = _mixed_states(rng, (60, 3))
    states[17, 1] = _with_least(states[17, 1], -2e-6)
    folded = liouville._Invariants(3)
    for first in range(0, 60, 7):
        folded.add(states[first:first + 7])
    assert folded.stats() == [_stacked_invariants(states[:, b]) for b in range(3)]
    assert abs(folded.stats()[1]["min_eigenvalue"] + 2e-6) < 1e-15
