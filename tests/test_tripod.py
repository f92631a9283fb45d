from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scipy.integrate import quad

from tripod_stirap import tripod
from tripod_stirap.pulses import MixingAngles, PulseConfig, mixing_angles, rms_rabi
from tripod_stirap.tripod import (
    adiabatic_frame,
    frame_generator,
    frame_matrix,
    geometric_phase,
    geometric_phases,
    hamiltonian,
    target_state,
)

angle_st = st.floats(0.0, math.pi / 2)
rate_st = st.floats(-2.0, 2.0)


def test_hamiltonian_structure() -> None:
    cfg = PulseConfig(ordering="scp", omega0=40.0, tau=1.0)
    h = hamiltonian(0.3, cfg)
    assert np.allclose(h, h.conj().T)
    # the excited level (index 1) is the only coupled one
    coupled = np.zeros((4, 4), dtype=bool)
    coupled[1, :] = coupled[:, 1] = True
    coupled[1, 1] = False
    assert np.all(h[~coupled] == 0.0)
    assert h[0, 1] > 0 and h[1, 2] > 0 and h[1, 3] > 0


@given(theta=angle_st, phi=angle_st)
def test_frame_matrix_is_unitary(theta: float, phi: float) -> None:
    r = frame_matrix(MixingAngles.at(theta, phi))
    assert np.max(np.abs(r.conj().T @ r - np.eye(4))) < 1e-12


def test_frame_diagonalizes_the_hamiltonian() -> None:
    cfg = PulseConfig(ordering="csp", omega0=60.0, tau=1.2)
    for t in (-1.0, -0.2, 0.4, 1.3):
        frame = adiabatic_frame(t, cfg)
        h = hamiltonian(t, cfg)
        assert np.max(np.abs(h @ frame.R - frame.R @ np.diag(frame.energies))) < 1e-10
        assert math.isclose(frame.energies[2], 0.5 * float(rms_rabi(t, cfg)), rel_tol=1e-12)


def test_dark_columns_are_annihilated() -> None:
    cfg = PulseConfig(ordering="fractional", omega0=80.0, tau=1.0)
    for t in np.linspace(cfg.start, cfg.end, 23):
        frame = adiabatic_frame(t, cfg)
        h = hamiltonian(t, cfg)
        for col in (0, 1):
            assert np.linalg.norm(h @ frame.R[:, col]) < 1e-12 * cfg.omega0


@given(theta=angle_st, phi=angle_st, theta_dot=rate_st, phi_dot=rate_st)
def test_frame_generator_matches_finite_difference(theta: float, phi: float, theta_dot: float,
                                                   phi_dot: float) -> None:
    # W = R^dag dR/dt, with dR/dt a central difference along the angle rates
    h = 1e-6
    angles = MixingAngles.at(theta, phi, theta_dot, phi_dot)
    shifted = lambda sgn: frame_matrix(MixingAngles.at(theta + sgn * h * theta_dot,
                                                       phi + sgn * h * phi_dot))
    fd = (shifted(+1) - shifted(-1)) / (2.0 * h)
    w = frame_matrix(angles).conj().T @ fd
    assert np.max(np.abs(frame_generator(angles) - w)) < 1e-6


def test_generator_structure() -> None:
    cfg = PulseConfig(ordering="scp", omega0=50.0, tau=1.5)
    for t in (-1.5, -0.3, 0.6, 2.0):
        frame = adiabatic_frame(t, cfg)
        gen = frame.generator
        assert np.max(np.abs(gen + gen.conj().T)) < 1e-12
        ang = frame.angles
        expected = 1j * ang.phi_dot * ang.sin_theta
        assert abs(gen[0, 0] - expected) < 1e-12
        assert abs(gen[1, 1] + expected) < 1e-12
        # no direct coupling inside the dark doublet: transport is geometric
        assert abs(gen[0, 1]) < 1e-12


GEOMETRIC_ANGLES = {
    ("scp", 1.0): 0.70379509,
    ("scp", 1.5): 0.53338881,
    ("scp", 2.0): 0.32828477,
    ("fractional", 0.5): 0.352097,
    ("fractional", 1.0): 0.54911780,
    ("fractional", 1.5): 0.60766020,
}


@pytest.mark.parametrize(("ordering", "tau"), sorted(GEOMETRIC_ANGLES))
def test_geometric_phase_reference_values(ordering: str, tau: float) -> None:
    cfg = PulseConfig(ordering=ordering, omega0=200.0, tau=tau)
    assert math.isclose(geometric_phase(cfg), GEOMETRIC_ANGLES[(ordering, tau)],
                        rel_tol=0.0, abs_tol=2e-6)


def test_geometric_phase_signs() -> None:
    # swapping the Stokes and control roles flips the sweep direction
    scp = geometric_phase(PulseConfig(ordering="scp", omega0=200.0, tau=1.5))
    csp = geometric_phase(PulseConfig(ordering="csp", omega0=200.0, tau=1.5))
    assert math.isclose(scp, -csp, rel_tol=0.0, abs_tol=2e-9)
    overlap = geometric_phase(PulseConfig(ordering="overlap", omega0=200.0, tau=1.5))
    assert abs(overlap) < 1e-12


def _count_mixing_angles(monkeypatch) -> list:
    calls = []

    def counted(t, cfg):
        calls.append(t)
        return mixing_angles(t, cfg)

    monkeypatch.setattr(tripod, "mixing_angles", counted)
    return calls


@pytest.mark.parametrize("tau", [0.0, 0.3, 1.5, 3.0])
def test_geometric_phase_is_exactly_zero_without_quadrature_for_overlap(monkeypatch, tau) -> None:
    # identical Stokes and control shapes keep phi at pi/4: nothing to integrate
    calls = _count_mixing_angles(monkeypatch)
    assert geometric_phase(PulseConfig(ordering="overlap", omega0=200.0, tau=tau)) == 0.0
    assert calls == []


@pytest.mark.parametrize("ordering", ["scp", "csp", "fractional"])
def test_geometric_phase_integrates_when_phi_moves(monkeypatch, ordering) -> None:
    calls = _count_mixing_angles(monkeypatch)
    cfg = PulseConfig(ordering=ordering, omega0=200.0, tau=1.5)
    value = geometric_phase(cfg)
    assert len(calls) > 0
    reference = {"scp": 0.53338881, "csp": -0.53338881, "fractional": 0.60766020}[ordering]
    assert math.isclose(value, reference, rel_tol=0.0, abs_tol=2e-6)


# the rule's accuracy grid: every ordering that moves phi, delays from 0 to 3,
# three pulse widths, and the default, a long and a cut window
_RULE_GRID = [PulseConfig(ordering=o, omega0=200.0, tau=tau, width=w, **window)
              for o in ("scp", "csp", "fractional")
              for tau in (0.0, 0.01, 0.05, 0.3, 1.0, 2.0, 3.0)
              for w in (0.5, 1.0, 2.0)
              for window in ({}, {"t_start": -60.0, "t_end": 60.0},
                             {"t_start": -1.0, "t_end": 0.5})]


def test_geometric_phase_rule_matches_a_tight_adaptive_quadrature() -> None:
    def rate(t, cfg):
        ang = mixing_angles(t, cfg)
        return ang.phi_dot * ang.sin_theta

    for cfg, value in zip(_RULE_GRID, geometric_phases(_RULE_GRID)):
        reference, _ = quad(rate, cfg.start, cfg.end, args=(cfg,), epsabs=1e-13, epsrel=1e-13,
                            limit=2000)
        assert abs(value - reference) < 1e-13, cfg


def test_batched_geometric_phase_is_bit_identical_to_a_lone_one(monkeypatch) -> None:
    mixed = _RULE_GRID + [PulseConfig(ordering="overlap", omega0=50.0, tau=1.0)]
    batch = geometric_phases(mixed[::-1])[::-1].tolist()
    assert batch == [geometric_phase(cfg) for cfg in mixed]
    assert batch[-1] == 0.0
    # smaller passes cut the running sum elsewhere; every value stays the same
    monkeypatch.setattr(tripod, "_PASS_NODES", 100)
    assert geometric_phases(mixed).tolist() == batch


def test_long_window_is_evaluated_in_bounded_passes(monkeypatch) -> None:
    calls = _count_mixing_angles(monkeypatch)
    cfg = PulseConfig(ordering="scp", omega0=200.0, tau=1.0, width=0.5,
                      t_start=-2000.0, t_end=2000.0)
    value = geometric_phase(cfg)
    # 8000 panels of 20 nodes, at most _PASS_NODES of them per call
    assert sum(np.size(t) for t in calls) == 160000
    assert max(np.size(t) for t in calls) <= tripod._PASS_NODES
    # phi' sin(theta) is below 1e-100 outside +-60
    assert abs(value - geometric_phase(cfg.with_updates(t_start=-60.0, t_end=60.0))) < 1e-13


def test_target_states() -> None:
    overlap = target_state(PulseConfig(ordering="overlap", omega0=50.0, tau=1.5))
    assert np.allclose(overlap.amplitudes, np.array([0, 0, -1, -1]) / math.sqrt(2))
    assert overlap.theta_g == 0.0

    thg = 0.6
    scp = target_state(PulseConfig(ordering="scp", omega0=50.0, tau=1.5), theta_g=thg)
    assert np.allclose(scp.amplitudes, [0.0, 0.0, -math.sin(thg), -math.cos(thg)])
    csp = target_state(PulseConfig(ordering="csp", omega0=50.0, tau=1.5), theta_g=-thg)
    assert np.allclose(csp.amplitudes, [0.0, 0.0, -math.cos(thg), -math.sin(thg)])
    frac = target_state(PulseConfig(ordering="fractional", omega0=50.0, tau=1.5), theta_g=thg)
    assert np.allclose(frac.amplitudes, [math.cos(thg), 0.0, -math.sin(thg), 0.0])

    for tgt in (overlap, scp, csp, frac):
        assert math.isclose(np.linalg.norm(tgt.amplitudes), 1.0, rel_tol=1e-12)
        rho = np.outer(tgt.amplitudes, tgt.amplitudes.conj())
        assert math.isclose(tgt.expectation(rho), 1.0, rel_tol=1e-12)


def test_expectation_on_a_stack_matches_the_single_matrix_form() -> None:
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    stack = a @ np.conj(np.swapaxes(a, -1, -2))
    stack /= np.trace(stack, axis1=1, axis2=2)[:, None, None]
    tgt = target_state(PulseConfig(ordering="scp", omega0=50.0, tau=1.5), theta_g=0.6)
    values = tgt.expectation(stack)
    assert isinstance(values, np.ndarray) and values.shape == (5,)
    for value, rho in zip(values, stack):
        one = tgt.expectation(rho)
        assert isinstance(one, float)
        assert abs(value - one) <= 4e-16


@pytest.mark.parametrize("ordering", ["overlap", "scp", "csp", "fractional"])
def test_frame_matrix_on_arrays_matches_the_scalar_form(ordering: str) -> None:
    cfg = PulseConfig(ordering=ordering, omega0=60.0, tau=1.2)
    t = np.linspace(cfg.start, cfg.end, 301)
    angles = mixing_angles(t, cfg)
    stack = frame_matrix(angles)
    assert stack.shape == (t.size, 4, 4)
    for i in range(t.size):
        one = MixingAngles(*(getattr(angles, f.name)[i] for f in fields(MixingAngles)))
        assert np.array_equal(stack[i], frame_matrix(one))
        # the master engine's transforms used the frame of adiabatic_frame
        assert np.array_equal(stack[i], adiabatic_frame(t[i], cfg).R)


def test_frame_matrix_keeps_the_shape_of_its_angles() -> None:
    cfg = PulseConfig(ordering="scp", omega0=60.0, tau=1.2)
    t = np.linspace(cfg.start, cfg.end, 12).reshape(3, 4)
    stack = frame_matrix(mixing_angles(t, cfg))
    assert stack.shape == (3, 4, 4, 4)
    assert np.array_equal(stack[1, 2], frame_matrix(mixing_angles(t[1, 2], cfg)))
    assert frame_matrix(mixing_angles(0.3, cfg)).shape == (4, 4)
