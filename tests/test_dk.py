"""Closed-form route: profile functions, model parameters, amplitudes, fidelity."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.integrate import quad

from tripod_stirap import dk
from tripod_stirap.effective import effective_rates
from tripod_stirap.errors import GammaPole, WrongOrdering, ZeroDelay
from tripod_stirap.pulses import DephasingMatrix, PulseConfig, mixing_angles


def _cfg(tau: float = 1.5, gamma: float = 1.0) -> PulseConfig:
    return PulseConfig(ordering="overlap", omega0=50.0, tau=tau,
                       gamma=DephasingMatrix.equal(gamma))


# ------------------------------------------------------------- gamma function

@pytest.mark.parametrize("x,expected", [
    (1.0, 1.0), (2.0, 1.0), (3.0, 2.0), (5.0, 24.0), (7.0, 720.0),
    (0.5, math.sqrt(math.pi)), (-0.5, -2.0 * math.sqrt(math.pi)),
])
def test_gamma_real_reference_points(x, expected):
    assert dk.gamma_real(x) == pytest.approx(expected, rel=1e-13)


@given(x=st.floats(-5.0, 30.0))
def test_gamma_real_matches_the_library(x):
    assume(abs(x - round(x)) > 1e-3 or x > 0.5)
    assert dk.gamma_real(x) == pytest.approx(math.gamma(x), rel=5e-13)


@given(x=st.floats(0.05, 0.95))
def test_gamma_real_reflection(x):
    product = dk.gamma_real(x) * dk.gamma_real(1.0 - x)
    assert product == pytest.approx(math.pi / math.sin(math.pi * x), rel=1e-12)


@pytest.mark.parametrize("x", [0.0, -1.0, -3.0, -2.0 + 1e-13])
def test_gamma_real_pole_detection(x):
    with pytest.raises(GammaPole):
        dk.gamma_real(x)


# ----------------------------------------------------------- profile functions

@given(t=st.floats(-10.0, 10.0), tau=st.floats(0.1, 3.0))
def test_x_of_t_is_the_scaled_time(t, tau):
    cfg = _cfg(tau=tau)
    assert dk.x_of_t(t, cfg) == pytest.approx(4.0 * t * tau / cfg.width ** 2, rel=1e-15)


def test_f1_limits_zero_and_continuity():
    assert dk.f1(-40.0) == pytest.approx(0.75, abs=1e-12)
    assert dk.f1(40.0) == pytest.approx(-1.0, abs=1e-12)
    assert dk.f1(0.0) == 0.0
    assert dk.f1(1e-9) == pytest.approx(dk.f1(-1e-9), abs=1e-8)


def test_f2_shape():
    assert dk.f2(0.0) == pytest.approx(math.sqrt(2.0) / 3.0, rel=1e-14)
    peak = math.log(3.0)
    assert dk.f2(peak) == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-14)
    assert dk.f2(peak - 0.2) < dk.f2(peak) and dk.f2(peak + 0.2) < dk.f2(peak)
    assert dk.f2(-40.0) < 1e-15 and dk.f2(40.0) < 1e-15
    xs = np.linspace(-30.0, 30.0, 301)
    assert all(dk.f2(float(x)) > 0.0 for x in xs)


def _xi(x):
    """xi at the scaled time x, read through xi_angle."""
    cfg = _cfg()
    return dk.xi_angle(x * cfg.width ** 2 / (4.0 * cfg.tau), 1.0, cfg)[0]


def _s_exp(e):
    return np.sqrt(1.0 + 8.0 / (1.0 + e) ** 2)


# each profile, its form as a function of e = e^x, and its limits at x -> -inf, +inf
PROFILES = {
    "f1": (dk.f1, lambda e: (1.0 - e * e) * _s_exp(e) / (2.0 + e) ** 2, (0.75, -1.0)),
    "f2": (dk.f2, lambda e: 4.0 * math.sqrt(2.0) / (2.0 + e + 9.0 / e), (0.0, 0.0)),
    "g_s": (dk.g_s, lambda e: 2.0 * (1.0 + 2.0 * e) / (2.0 + e) ** 2, (0.5, 0.0)),
    "g_plus": (dk.g_plus, lambda e: (1.0 - e * e) * (1.0 + _s_exp(e)) / (2.0 * (2.0 + e) ** 2),
               (0.5, -1.0)),
    "g_minus": (dk.g_minus,
                lambda e: 4.0 * (e - 1.0) / ((1.0 + e) * (2.0 + e) ** 2 * (1.0 + _s_exp(e))),
                (-0.25, 0.0)),
    "xi": (_xi, lambda e: -0.5 * np.arctan(2.0 * math.sqrt(2.0) / (1.0 + e)),
           (-0.5 * dk.ATAN_2SQRT2, 0.0)),
}


@pytest.mark.parametrize("name", PROFILES)
def test_logistic_profiles_match_their_exponential_form(name):
    profile, exp_form, (low, high) = PROFILES[name]
    xs = np.linspace(-30.0, 30.0, 601)
    got = np.array([profile(float(x)) for x in xs])
    assert np.max(np.abs(got - exp_form(np.exp(xs)))) < 1e-14
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ends = [profile(x) for x in (-math.inf, -1e3, 1e3, math.inf)]
    assert all(math.isfinite(v) for v in ends)
    assert ends[0] == pytest.approx(low, abs=1e-15)
    assert ends[1] == pytest.approx(low, abs=1e-15)
    assert ends[2] == pytest.approx(high, abs=1e-15)
    assert ends[3] == pytest.approx(high, abs=1e-15)


@given(t=st.floats(-4.0, 4.0), gamma=st.floats(0.05, 3.0), tau=st.floats(0.2, 2.5))
def test_two_level_rates_in_the_scaled_variable(t, gamma, tau):
    # the mixing angle obeys tan^2(theta) = e^x / 2 for this ordering, which
    # turns the trigonometric rate formulas into rational functions of e^x
    cfg = _cfg(tau=tau, gamma=gamma)
    x = dk.x_of_t(t, cfg)
    ex = math.exp(x)
    omega, delta, gv = dk.su_two_level(t, gamma, cfg)
    assert omega == pytest.approx(gamma * (ex - 1.0) / (2.0 + ex) ** 2, abs=1e-13)
    assert delta == pytest.approx(gamma * (1.0 - ex * ex) / (2.0 + ex) ** 2, abs=1e-13)
    assert gv == pytest.approx(2.0 * gamma / (2.0 + ex), abs=1e-13)


@pytest.mark.parametrize("t", [-2.0, -0.4, 0.0, 0.9, 3.0])
def test_two_level_rates_match_the_effective_module(t):
    cfg = _cfg(gamma=0.8)
    omega, _, gv = dk.su_two_level(t, 0.8, cfg)
    r = effective_rates(mixing_angles(t, cfg), DephasingMatrix.equal(0.8))
    assert omega == pytest.approx(r.Omega_su, abs=1e-15)
    assert gv == pytest.approx(r.Gamma_v, abs=1e-15)


@given(t=st.floats(-5.0, 5.0), gamma=st.floats(0.05, 3.0), tau=st.floats(0.2, 2.5))
def test_epsilon_branches_solve_the_characteristic_equation(t, gamma, tau):
    # eigenvalues of the 2x2 decay matrix: sum and product must reproduce the
    # trace and determinant built from the rates, and their gap is gamma*f1
    cfg = _cfg(tau=tau, gamma=gamma)
    omega, delta, _ = dk.su_two_level(t, gamma, cfg)
    ep, em = dk.epsilon_rates(t, gamma, cfg)
    assert ep + em == pytest.approx(delta, abs=1e-12)
    assert ep * em == pytest.approx(-2.0 * omega * omega, abs=1e-12)
    assert ep - em == pytest.approx(gamma * dk.f1(dk.x_of_t(t, cfg)), abs=1e-12)


def test_epsilon_branches_cross_at_the_midpoint():
    ep, em = dk.epsilon_rates(0.0, 1.3, _cfg())
    assert ep == 0.0 and em == 0.0


def test_xi_swing_and_endpoints():
    cfg = _cfg()
    swing, _ = quad(lambda t: dk.xi_angle(t, 1.0, cfg)[1], cfg.start, cfg.end, limit=200)
    assert swing == pytest.approx(math.pi * dk.ALPHA, abs=1e-9)
    assert dk.xi_angle(cfg.start, 1.0, cfg)[0] == pytest.approx(-0.5 * dk.ATAN_2SQRT2, abs=1e-12)
    assert dk.xi_angle(cfg.end, 1.0, cfg)[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("t", [-1.5, -0.2, 0.4, 1.1])
def test_xi_rate_is_the_derivative(t):
    cfg = _cfg()
    h = 1e-6
    fd = (dk.xi_angle(t + h, 1.0, cfg)[0] - dk.xi_angle(t - h, 1.0, cfg)[0]) / (2.0 * h)
    assert dk.xi_angle(t, 1.0, cfg)[1] == pytest.approx(fd, rel=1e-6)


# ------------------------------------------------------------ model parameters

def test_dk_params_reference_values():
    p = dk.dk_params(1.0, _cfg(tau=1.0))
    assert p.A == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    assert p.t_max == pytest.approx(math.log(3.0) / 4.0, rel=1e-12)
    assert p.T_eff == pytest.approx(0.277063211989786, rel=1e-12)
    assert p.Dconst == pytest.approx(-0.39191835884530846, rel=1e-12)
    assert p.B == pytest.approx(-0.34747570988622956, rel=1e-12)
    assert p.beta == pytest.approx(-0.0481363681347549, rel=1e-12)
    assert p.delta == pytest.approx(-0.05429307966972336, rel=1e-12)


@given(gamma=st.floats(0.0, 4.0), tau=st.floats(0.1, 3.0))
def test_dk_params_pulse_area_is_universal(gamma, tau):
    # A * T_eff is the sech pulse area over pi: it fixes the lossless
    # transition probability and cannot depend on gamma or tau
    p = dk.dk_params(gamma, _cfg(tau=tau, gamma=gamma))
    assert p.alpha == pytest.approx(dk.ALPHA, rel=1e-14)
    assert p.A * p.T_eff == pytest.approx(p.alpha, rel=1e-14)


def test_dk_params_dephasing_terms_scale_linearly():
    p1 = dk.dk_params(0.7, _cfg())
    p2 = dk.dk_params(1.4, _cfg())
    assert p2.beta == pytest.approx(2.0 * p1.beta, rel=1e-14)
    assert p2.delta == pytest.approx(2.0 * p1.delta, rel=1e-14)
    assert p2.A == p1.A and p2.T_eff == p1.T_eff


def test_dk_params_rejects_zero_delay():
    with pytest.raises(ZeroDelay):
        dk.dk_params(1.0, _cfg(tau=0.0))


# ----------------------------------------------------------------- amplitudes

def test_amplitudes_without_dephasing_are_the_sech_values():
    amps = dk.dk_amplitudes(dk.dk_params(0.0, _cfg(gamma=0.0)))
    assert amps.U_pp == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
    assert amps.U_mp == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
    assert amps.U_pp ** 2 + amps.U_mp ** 2 == pytest.approx(1.0, abs=1e-12)


def test_amplitudes_with_dephasing_lose_norm():
    amps = dk.dk_amplitudes(dk.dk_params(1.0, _cfg()))
    assert amps.U_pp ** 2 + amps.U_mp ** 2 < 1.0


def test_gamma_function_amplitudes_match_the_integrated_model():
    p = dk.dk_params(1.0, _cfg())
    closed = dk.dk_amplitudes(p)
    brute = dk.dk_amplitudes_ode(p)
    assert closed.U_pp == pytest.approx(brute.U_pp, abs=1e-4)
    assert closed.U_mp == pytest.approx(brute.U_mp, abs=1e-4)


# ------------------------------------------------------------ decay integrals

def test_decay_constants_frozen_values():
    ai = dk.adiabatic_integrals(1.0, _cfg())
    assert ai.c_s == pytest.approx(2.419426821317266, abs=1e-9)
    assert ai.c_u == pytest.approx(0.676040783498922, abs=1e-9)


@pytest.mark.parametrize("epsabs", [math.nan, math.inf, 0.0, -1.0])
def test_decay_integrals_reject_a_bad_tolerance(epsabs):
    with pytest.raises(ValueError, match="epsabs must be finite and positive"):
        dk.adiabatic_integrals(1.0, _cfg(), epsabs=epsabs)


def test_quad_calls_fixture_counts_the_decay_quadratures(quad_calls):
    # the fixture that shows the ODE engines make no quad call does see dk's three
    dk._decay_constants.__wrapped__(1e-10)
    assert len(quad_calls) == 3


@given(gamma=st.floats(0.1, 4.0), tau=st.floats(0.2, 3.0))
def test_decay_integrals_scale(gamma, tau):
    cfg = _cfg(tau=tau, gamma=gamma)
    ai = dk.adiabatic_integrals(gamma, cfg)
    scale = gamma * cfg.width ** 2 / (4.0 * tau)
    assert ai.I_s == pytest.approx(-ai.c_s * scale, rel=1e-14)
    assert ai.I_u_finite == pytest.approx(-ai.c_u * scale, rel=1e-14)
    assert ai.I_s < 0.0 and ai.I_u_finite < 0.0


def test_decay_integrals_reject_zero_delay():
    with pytest.raises(ZeroDelay):
        dk.adiabatic_integrals(1.0, _cfg(tau=0.0))


# -------------------------------------------------------- observables/fidelity

def test_observables_without_dephasing():
    assert dk.analytic_dark_observables(0.0, _cfg(gamma=0.0), 0.0) == (0.5, 0.5)


def test_population_sits_between_mixed_and_ideal():
    for g in (0.25, 1.0, 4.0):
        pop, _ = dk.analytic_dark_observables(g, _cfg(gamma=g), 0.0)
        assert 0.25 < pop < 0.5


def test_coherence_decays_at_the_dephasing_rate():
    cfg = _cfg()
    _, c1 = dk.analytic_dark_observables(1.0, cfg, 1.0)
    _, c2 = dk.analytic_dark_observables(1.0, cfg, 2.0)
    assert c2 / c1 == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_fidelity_without_dephasing_is_exactly_one():
    assert dk.analytic_fidelity(0.0, _cfg(gamma=0.0), math.inf) == 1.0
    assert dk.analytic_fidelity(0.0, _cfg(gamma=0.0), 5.0) == 1.0


def test_fidelity_frozen_values_and_monotonicity():
    expected = {0.25: 0.47133122485459833, 0.5: 0.4461321360490159,
                1.0: 0.4044064599532453, 2.0: 0.3465397775619345}
    prev = 1.0
    for g, ref in expected.items():
        f = dk.analytic_fidelity(g, _cfg(gamma=g), math.inf)
        assert f == pytest.approx(ref, rel=1e-10)
        assert f < prev
        prev = f


def test_fidelity_keeps_the_coherence_at_finite_times():
    assert dk.analytic_fidelity(1.0, _cfg(), 3.0) > dk.analytic_fidelity(1.0, _cfg(), math.inf)


def test_expansion_tracks_the_full_form_at_moderate_dephasing():
    for g in (0.25, 0.5, 1.0):
        full = dk.analytic_fidelity(g, _cfg(gamma=g), math.inf)
        exp = dk.analytic_fidelity_expansion(g, _cfg(gamma=g), math.inf)
        assert abs(full - exp) < 0.02


# ----------------------------------------------------------------- precondition

def test_closed_forms_reject_other_orderings():
    cfg = PulseConfig(ordering="scp", omega0=50.0, tau=1.5, gamma=DephasingMatrix.equal(1.0))
    with pytest.raises(WrongOrdering, match="overlap ordering"):
        dk.su_two_level(0.0, 1.0, cfg)
    with pytest.raises(WrongOrdering, match="overlap ordering"):
        dk.analytic_fidelity(1.0, cfg, math.inf)


def test_closed_forms_reject_unequal_rates():
    m = np.full((4, 4), 0.5)
    m[0, 2] = m[2, 0] = 1.5
    np.fill_diagonal(m, 0.0)
    cfg = PulseConfig(ordering="overlap", omega0=50.0, tau=1.5, gamma=DephasingMatrix(m))
    with pytest.raises(WrongOrdering, match="equal dephasing rates"):
        dk.dk_params(1.0, cfg)


# ---------------------------------------------------------------- array route

def test_gamma_real_is_elementwise_with_a_per_element_pole_mask():
    x = np.array([[0.5, 2.5], [-1.5, 7.0]])
    expected = np.vectorize(math.gamma)(x)
    assert np.allclose(dk.gamma_real(x), expected, rtol=1e-13, atol=0.0)
    with pytest.raises(GammaPole, match=r"pole at -2\.0"):
        dk.gamma_real(np.array([1.5, -2.0, 0.0]))
    with pytest.raises(GammaPole, match="pole at"):
        dk.gamma_real(np.array([3.0, -3.0 - 1e-13]))


grid_st = st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(0.25, 3.0)), min_size=1, max_size=12)


@given(grid=grid_st, t=st.floats(0.0, 10.0))
def test_array_closed_forms_match_the_scalar_calls(grid, t):
    gammas, taus = (np.array(col) for col in zip(*grid))
    base = _cfg(gamma=0.0)
    pop, coh = dk.analytic_dark_observables(gammas, base, t, tau=taus)
    f2 = dk.analytic_fidelity(gammas, base, np.array([[t], [math.inf]]), tau=taus)
    assert pop.shape == coh.shape == gammas.shape and f2.shape == (2, gammas.size)
    for i, (g, tau) in enumerate(grid):
        cfg = _cfg(tau=tau, gamma=g)
        p, c = dk.analytic_dark_observables(g, cfg, t)
        assert pop[i] == pytest.approx(p, rel=1e-13)
        assert coh[i] == pytest.approx(c, rel=1e-13)
        assert f2[0, i] == pytest.approx(dk.analytic_fidelity(g, cfg, t), rel=1e-13)
        assert f2[1, i] == pytest.approx(dk.analytic_fidelity(g, cfg, math.inf), rel=1e-13)


def test_array_closed_forms_keep_the_exact_lossless_limit():
    gammas = np.array([0.0, 0.5, 0.0])
    pop, coh = dk.analytic_dark_observables(gammas, _cfg(gamma=0.0), 3.0)
    assert pop[0] == pop[2] == 0.5 and coh[0] == coh[2] == 0.5
    f2 = dk.analytic_fidelity(gammas, _cfg(gamma=0.0), math.inf)
    assert f2[0] == f2[2] == 1.0 and f2[1] < 1.0


def test_array_closed_forms_raise_for_a_zero_delay_anywhere():
    with pytest.raises(ZeroDelay, match="pulse delay must be positive"):
        dk.analytic_fidelity(1.0, _cfg(), math.inf, tau=np.array([1.0, 0.0]))
    with pytest.raises(ZeroDelay):
        dk.adiabatic_integrals(1.0, _cfg(), tau=np.array([0.0, 2.0]))


def test_array_amplitudes_match_the_scalar_form():
    gammas = np.array([0.0, 0.3, 1.1, 2.0])
    amps = dk.dk_amplitudes(dk.dk_params(gammas, _cfg()))
    for i, g in enumerate(gammas):
        one = dk.dk_amplitudes(dk.dk_params(float(g), _cfg()))
        assert amps.U_pp[i] == pytest.approx(one.U_pp, rel=1e-15)
        assert amps.U_mp[i] == pytest.approx(one.U_mp, rel=1e-15)
