"""The mixing angles through arctan: the oracle of pulses.mixing_angles' cosines and sines.

theta, phi and their rates from the Gaussian exponents with the smallest of the Stokes and
control exponents factored out, so that no ratio of underflowed envelopes appears.
"""

from __future__ import annotations

import numpy as np

from tripod_stirap.pulses import _EXP_CLAMP, Batch, PulseConfig, _exponents


def arctan_angles(t, cfg: PulseConfig | Batch) -> tuple:
    """(theta, phi, theta', phi') at the times t of mixing_angles."""
    neg_a, (dp, ds, dc) = _exponents(t, cfg)
    ap, as_, ac = -neg_a
    da = np.clip(as_ - ac, -_EXP_CLAMP, _EXP_CLAMP)
    phi = np.arctan(np.exp(da))
    phi_dot = (ds - dc) / (2.0 * np.cosh(da))
    m = np.minimum(as_, ac)
    es, ec = np.exp(-2.0 * (as_ - m)), np.exp(-2.0 * (ac - m))
    q2 = es + ec
    r = np.clip(ap - m, -0.5 * _EXP_CLAMP, 0.5 * _EXP_CLAMP)
    er, q = np.exp(-r), np.sqrt(q2)
    theta = np.arctan2(er, q)
    theta_dot = q * er / (q2 + np.exp(-2.0 * r)) * (-dp + es / q2 * ds + ec / q2 * dc)
    return theta, phi, theta_dot, phi_dot
