"""Closed-form analytics for the overlapping ordering with equal rates.

For simultaneous Stokes and control pulses (phi = pi/4) the coherence pair
(s, u) decouples from v and behaves as a dissipative two-level system with
coupling Omega_su(t), detuning Delta_su(t) and decay Gamma_v(t).  In the
dimensionless variable x = 4 t tau / T^2 everything reduces to three
profile functions; approximating the rotated coupling by a sech pulse
with a tanh-chirped detuning gives a model whose asymptotic transition
amplitudes are ratios of real gamma functions.  Together with two
adiabatic-decay integrals this yields the final dark-state population, the
coherence and the fidelity without integrating anything stiff.  The
closed forms work elementwise on arrays of gamma and tau, so a whole grid
is evaluated in one array pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GammaPole, StepSizeUnderflow, WrongOrdering, ZeroDelay
from .pulses import Ordering, PulseConfig

# total swing of the rotation angle xi; also fixes the sech pulse area
ATAN_2SQRT2 = math.atan(2.0 * math.sqrt(2.0))
ALPHA = ATAN_2SQRT2 / (2.0 * math.pi)


def _out(x):
    """A 0-d result as a Python float; arrays pass through."""
    return x if np.ndim(x) else float(x)


@lru_cache(maxsize=None)
def _special():
    """scipy.special, imported on the first call: importing dk loads no SciPy module."""
    from scipy import special
    return special


def gamma_real(x):
    """Gamma function of real x, elementwise over arrays.

    Raises GammaPole for the first element (in C order) within 1e-12 of a
    non-positive integer.
    """
    x = np.asarray(x, dtype=float)
    n = np.round(x)
    pole = (n <= 0.0) & (np.abs(x - n) < 1e-12)
    if pole.any():
        raise GammaPole(f"gamma function pole at {float(x[pole][0])!r}")
    return _out(_special().gamma(x))


def _require_overlap_equal(cfg: PulseConfig) -> None:
    if cfg.ordering is not Ordering.OVERLAP:
        raise WrongOrdering("closed forms require the overlap ordering")
    if cfg.gamma.equal_rate() is None:
        raise WrongOrdering("closed forms require equal dephasing rates")


def _checked_tau(cfg: PulseConfig, tau=None):
    """tau, or cfg.tau when None, for an overlap config with equal rates; no element may be 0."""
    _require_overlap_equal(cfg)
    tau = cfg.tau if tau is None else tau
    if np.any(tau == 0.0):
        raise ZeroDelay("pulse delay must be positive")
    return tau


def x_of_t(t: float, cfg: PulseConfig) -> float:
    """Dimensionless time x = 4 t tau / T^2."""
    return 4.0 * t * cfg.tau / (cfg.width * cfg.width)


def _logistic(x):
    """q = 1/(1 + e^x), p = e^x/(1 + e^x) and S = sqrt(1 + 8 q^2), finite for every x."""
    q, p = _special().expit(-x), _special().expit(x)
    return q, p, np.sqrt(1.0 + 8.0 * q * q)


def f2(x):
    """Coupling profile; f2(0) = sqrt(2)/3, peak sqrt(2)/2 at x = ln 3; positive."""
    q, p, s = _logistic(x)
    return _out(4.0 * math.sqrt(2.0) * p * q / (s * s))


def g_s(x):
    q, p, _ = _logistic(x)
    return _out(2.0 * q * (1.0 + p) / (1.0 + q) ** 2)


def g_plus(x):
    q, p, s = _logistic(x)
    return _out((q - p) * (1.0 + s) / (2.0 * (1.0 + q) ** 2))


def g_minus(x):
    q, p, s = _logistic(x)
    return _out(4.0 * q * q * (p - q) / ((1.0 + q) ** 2 * (1.0 + s)))


def xi_angle(t: float, gamma: float, cfg: PulseConfig):
    """Rotation angle mixing s and u, continuous through the branch point, and its rate.

    No package code calls it.  It stays as the definition of the sech model: its rate is
    tau/T^2 f2(x), the coupling whose peak (x = ln 3, rate A) and whole swing
    (atan(2 sqrt 2)/2 = pi ALPHA) _params takes as t_max, A and the pulse area alpha, and
    the tests check those constants against it.
    """
    _require_overlap_equal(cfg)
    x = x_of_t(t, cfg)
    xi = -0.5 * math.atan(2.0 * math.sqrt(2.0) * _special().expit(-x))
    xi_dot = cfg.tau / (cfg.width * cfg.width) * f2(x)
    return xi, xi_dot


@dataclass(frozen=True)
class DKParams:
    """sech/tanh model parameters; alpha is universal, beta and delta carry the dephasing.

    The fields are floats, or arrays over a grid of gamma and tau values.
    """

    A: float
    T_eff: float
    t_max: float
    Dconst: float
    B: float
    alpha: float
    beta: float
    delta: float


def _params(gamma, tau, width: float) -> DKParams:
    """Model parameters, elementwise over broadcast gamma and tau; tau must be positive."""
    T2 = width * width
    a = tau / (math.sqrt(2.0) * T2)
    t_eff = ATAN_2SQRT2 * T2 / (math.sqrt(2.0) * math.pi * tau)
    t_max = T2 / (4.0 * tau) * math.log(3.0)
    dconst = -4.0 * math.sqrt(6.0) * gamma / 25.0
    b = -64.0 * math.sqrt(3.0) * gamma * ATAN_2SQRT2 / (125.0 * math.pi)
    return DKParams(A=a, T_eff=t_eff, t_max=t_max, Dconst=dconst, B=b,
                    alpha=a * t_eff, beta=0.5 * b * t_eff, delta=0.5 * dconst * t_eff)


def dk_params(gamma, cfg: PulseConfig) -> DKParams:
    """Model parameters at cfg's delay, after the closed forms' checks (overlap ordering,
    equal rates, no zero delay).

    No package code calls it: the closed forms call _params on their own grids.  It stays
    as the checked way to build the DKParams that dk_amplitudes_ode, the brute-force check
    of the gamma-function amplitudes, takes (acceptance criterion 6 and the amplitude tests).
    """
    return _params(gamma, _checked_tau(cfg), cfg.width)


@dataclass(frozen=True)
class DKAmplitudes:
    """Asymptotic survival/transition amplitudes of the sech/tanh model."""

    U_pp: float
    U_mp: float


def dk_amplitudes(p: DKParams) -> DKAmplitudes:
    """Gamma-function form of the asymptotic amplitudes, elementwise over array parameters.

    All gamma factors of an element are evaluated in one call, in the order
    the formulas read, so a pole raises GammaPole for the first of them.
    """
    root = np.sqrt(p.beta * p.beta + p.alpha * p.alpha)
    args = np.stack(np.broadcast_arrays(
        0.5 + p.delta - p.beta, 0.5 + p.delta + p.beta, 0.5 + p.delta + root,
        0.5 + p.delta - root, 0.5 - p.delta - p.beta, 1.0 - p.beta + root,
        1.0 - p.beta - root), axis=-1)
    g = np.moveaxis(gamma_real(args), -1, 0)
    u_pp = g[0] * g[1] / (g[2] * g[3])
    u_mp = p.alpha * g[0] * g[4] / (g[5] * g[6])
    return DKAmplitudes(U_pp=_out(u_pp), U_mp=_out(u_mp))


def dk_amplitudes_ode(p: DKParams) -> DKAmplitudes:
    """Brute-force amplitudes: integrate the two-level model across the sech pulse.

    Keeps the gamma-function route honest.  The dressing exponent is anchored
    so that it vanishes with the dephasing constants, matching the phase
    convention of the closed form; the window is t_max +- 12 T_eff, where
    the sech tail is below 1e-10.
    """
    t0, t1 = p.t_max - 12.0 * p.T_eff, p.t_max + 12.0 * p.T_eff

    def dressing(t: float) -> float:
        z = (t - p.t_max) / p.T_eff
        # log(2 cosh z) evaluated without overflow
        log2cosh = abs(z) + math.log1p(math.exp(-2.0 * abs(z)))
        return p.Dconst * (t - p.t_max) + p.B * p.T_eff * log2cosh

    def rhs(t, y):
        c_m, c_p = y
        rate = p.A / math.cosh((t - p.t_max) / p.T_eff)
        phi = dressing(t)
        return [rate * math.exp(phi) * c_p, -rate * math.exp(-phi) * c_m]

    from scipy.integrate import solve_ivp
    sol = solve_ivp(rhs, (t0, t1), [0.0, 1.0], method="RK45", rtol=1e-10, atol=1e-13)
    if not sol.success:
        raise StepSizeUnderflow(sol.message)
    c_m, c_p = sol.y[0, -1], sol.y[1, -1]
    return DKAmplitudes(U_pp=float(c_p), U_mp=float(c_m))


@dataclass(frozen=True)
class AdiabaticIntegrals:
    """Decay integrals of the adiabatic solution and their dimensionless constants."""

    I_s: float
    I_u_finite: float
    c_s: float
    c_u: float


@lru_cache(maxsize=8)
def _decay_constants(epsabs: float) -> tuple[float, float]:
    from scipy.integrate import quad
    opts = dict(epsabs=epsabs, epsrel=epsabs, limit=400)
    left, _ = quad(lambda x: g_plus(x) - g_s(x), -np.inf, 0.0, **opts)
    right_s, _ = quad(lambda x: g_minus(x) - g_s(x), 0.0, np.inf, **opts)
    right_u, _ = quad(lambda x: g_plus(x) - g_s(x) + 1.0, 0.0, np.inf, **opts)
    return -(left + right_s), -(left + right_u)


def adiabatic_integrals(gamma, cfg: PulseConfig, epsabs: float = 1e-10, *,
                        tau=None) -> AdiabaticIntegrals:
    """I_s and the finite part of I_u; the divergent part is the e^{-gamma t} factor.

    gamma and tau (which replaces cfg.tau when given) may be arrays; they
    broadcast against each other.  epsabs, the tolerance of the decay
    constants' quadratures, must be finite and positive.
    """
    if not (math.isfinite(epsabs) and epsabs > 0.0):
        raise ValueError(f"epsabs must be finite and positive, got {epsabs!r}")
    tau = _checked_tau(cfg, tau)
    c_s, c_u = _decay_constants(epsabs)
    scale = gamma * cfg.width * cfg.width / (4.0 * tau)
    return AdiabaticIntegrals(I_s=-c_s * scale, I_u_finite=-c_u * scale, c_s=c_s, c_u=c_u)


def analytic_dark_observables(gamma, cfg: PulseConfig, t, *, tau=None):
    """(rho^a_11 at the end of the run, Re rho^a_12 at time t).

    The population is time-independent once the pulses are over; the
    coherence keeps decaying as e^{-gamma t}.  gamma, t and tau (which
    replaces cfg.tau when given) may be arrays: the whole grid is one pass
    through model parameters, amplitudes and decay integrals.  Any element
    at tau = 0 or on a gamma-function pole raises for the whole call.
    """
    # the decay integrals check the ordering, the rates and the delay before _params divides
    ai = adiabatic_integrals(gamma, cfg, tau=tau)
    amps = dk_amplitudes(_params(gamma, cfg.tau if tau is None else tau, cfg.width))
    rho_a_11 = 0.25 + math.sqrt(3.0) / 4.0 * amps.U_mp * np.exp(ai.I_s)
    re_rho_a_12 = math.sqrt(3.0 / 8.0) * amps.U_pp * np.exp(ai.I_u_finite - gamma * t)
    # exact lossless limit: U_mp -> 1/sqrt(3), U_pp -> sqrt(2/3)
    lossless = gamma == 0.0
    return _out(np.where(lossless, 0.5, rho_a_11)), _out(np.where(lossless, 0.5, re_rho_a_12))


def analytic_fidelity(gamma, cfg: PulseConfig, t_max_eval, *, tau=None):
    """Squared fidelity: final population plus the coherence at t_max_eval.

    An infinite t_max_eval drops the coherence term for gamma > 0 (the
    long-time fidelity); at gamma = 0 nothing decays and the result is 1.
    Elementwise over broadcast gamma, t_max_eval and tau, as in
    analytic_dark_observables.
    """
    rho_a_11, re_rho_a_12 = analytic_dark_observables(gamma, cfg, 0.0, tau=tau)
    with np.errstate(invalid="ignore"):  # 0 * inf where gamma = 0, discarded below
        decay = np.where(gamma > 0.0, np.exp(-gamma * t_max_eval), 1.0)
    return _out(rho_a_11 + re_rho_a_12 * decay)
