"""The master equation on the 16 real coordinates of a Hermitian rho, from complex 4x4
products: the oracle of the 10-coordinate derivatives of tripod_stirap.liouville.

A Hermitian rho has 16 real coordinates: the populations rho_ii, then Re rho_ij and Im rho_ij
for i < j (the coherence vector).  rhs_bare is i rho' = [H, rho] - i gamma (.) rho, and
rhs_adiabatic is rho^a' = -i [H_a - i W, rho^a] - R^dag (gamma (.) (R rho^a R^dag)) R, with
W = tripod.frame_generator.  Both take the flat (B * 16,) state at the normalised time s and
the weights of liouville's own passes, with the calling form of the step loop.
"""

from __future__ import annotations

import numpy as np

from tripod_stirap import liouville
from tripod_stirap.liouville import Basis, Batch
from tripod_stirap.pulses import MixingAngles
from tripod_stirap.tripod import frame_generator, frame_matrix

_I, _J = np.triu_indices(4, 1)
# the coordinates that are 0.0 on every state rho = P rho* P, P = diag(1, -1, 1, 1): Re rho_01,
# Re rho_12 and Re rho_13 (a ground level and the excited one), Im rho_02, Im rho_03 and
# Im rho_23 (two ground levels)
ZERO = [4, 7, 8, 11, 12, 15]
# the Hamiltonian per unit Rabi frequency of the pump, Stokes and control fields
_COUPLINGS = np.zeros((3, 4, 4))
for _k, _g in enumerate((0, 2, 3)):
    _COUPLINGS[_k, _g, 1] = _COUPLINGS[_k, 1, _g] = 0.5
# H_a - i W at unit Omega_rms, theta', phi' sin(theta) and phi' cos(theta)
_FRAME = np.array([np.diag([0.0, 0.0, 0.5, -0.5]),
                   -1j * frame_generator(MixingAngles.at(0.0, 0.0, theta_dot=1.0)),
                   np.diag([1.0, -1.0, 0.0, 0.0]),
                   -1j * frame_generator(MixingAngles.at(0.0, 0.0, phi_dot=1.0))])


def density(c: np.ndarray) -> np.ndarray:
    """The Hermitian S + (4, 4) of coordinates S + (16,)."""
    rho = np.zeros(np.shape(c)[:-1] + (4, 4), dtype=complex)
    rho[..., np.arange(4), np.arange(4)] = c[..., :4]
    rho[..., _I, _J] = c[..., 4:10] + 1j * c[..., 10:]
    rho[..., _J, _I] = c[..., 4:10] - 1j * c[..., 10:]
    return rho


def coords(rho: np.ndarray) -> np.ndarray:
    """The coordinates S + (16,) of a Hermitian rho of shape S + (4, 4)."""
    upper = rho[..., _I, _J]
    return np.concatenate([np.einsum("...ii->...i", rho).real, upper.real, upper.imag], -1)


def _rates(batch: Batch) -> np.ndarray:
    """Each member's dephasing matrix per unit s, (B, 4, 4)."""
    return batch.rates.reshape(-1, 4, 4) * batch.span[:, None, None]


def rhs_bare(s, c: np.ndarray, batch: Batch, w: np.ndarray | None = None) -> np.ndarray:
    """d(coords rho)/ds with the drive weights of liouville._bare_weights."""
    w = liouville._bare_weights(np.array([s]), batch)[0] if w is None else w
    rho, h = density(c.reshape(-1, 16)), np.tensordot(w, _COUPLINGS, 1)
    return coords(-1j * (h @ rho - rho @ h) - _rates(batch) * rho).ravel()


def adiabatic_weights(s: np.ndarray, batch: Batch) -> list:
    """Per time s, the (B, 4) weights of liouville._slow_functions and the frames R."""
    drive, cos, sin = liouville._slow_functions(s, batch)
    return list(zip(drive, frame_matrix(MixingAngles(cos[0], sin[0], cos[1], sin[1], 0.0, 0.0))))


def rhs_adiabatic(s, c: np.ndarray, batch: Batch, w: tuple | None = None) -> np.ndarray:
    """d(coords rho^a)/ds with the weights of adiabatic_weights."""
    drive, r = adiabatic_weights(np.array([s]), batch)[0] if w is None else w
    rho_a, g = density(c.reshape(-1, 16)), np.tensordot(drive, _FRAME, 1)
    r_h = r.conj().swapaxes(-1, -2)
    dephasing = r_h @ (_rates(batch) * (r @ rho_a @ r_h)) @ r
    return coords(-1j * (g @ rho_a - rho_a @ g) - dephasing).ravel()


def derivative(basis: Basis, batch: Batch) -> tuple:
    """The oracle's derivative, its weights and the state |psi_1><psi_1| on `batch`."""
    rho = np.zeros((4, 4))
    rho[0, 0] = 1.0
    if basis is Basis.BARE:
        return rhs_bare, liouville._bare_weights, np.tile(coords(rho), len(batch))
    return (rhs_adiabatic, adiabatic_weights,
            coords(liouville.to_adiabatic(rho, batch.start, batch)).ravel())
