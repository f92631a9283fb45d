"""Master equation for the dephasing tripod and its adiabatic-frame form.

The bare-basis equation of motion is

    i rho' = [H, rho] + D(rho),      D(rho) = -i * gamma (.) rho,

where (.) is the elementwise (Hadamard) product, so coherences decay as
rho_mn' = -gamma_mn rho_mn while populations are untouched.  A Hermitian
rho has 16 real coordinates c: the populations rho_ii, then Re rho_ij and
Im rho_ij for i < j (the coherence vector, T. F. Havel, J. Math. Phys. 44,
534 (2003)); two constant 16x16 maps take c to the row-major vec(rho) and
back.  In these coordinates the equation is real and linear with three
time-dependent weights,

    c' = (Omega_p L_p + Omega_s L_s + Omega_c L_c + L_gamma) c,

with constant real 16x16 matrices L_k, the coordinate form of -i [H_k, .],
and the diagonal L_gamma, which damps Re rho_ij and Im rho_ij at gamma_ij.
Runs are integrated as a batch: every member is mapped onto the
normalised time s in [0, 1] and all of them advance through one shared
eighth-order Dormand-Prince (DOP853) solve on the flat (B * 16,) real
state.  The derivatives take s itself and return dc/ds from constants built
once per batch (_constants), each member's window span folded in.  In the
instantaneous eigenframe the equation has four constant terms of the same
kind plus the dephasing rotated into the frame by a real 16x16 map
(frame_map, rhs_adiabatic), their weights and the map evaluated from their
closed forms in s (_slow_functions); both bases share the batched solve,
and the two routes are cross-checked in the tests.  Either
derivative is linear in c with coefficients in s alone, which the step loop
(_solve_batch) evaluates at every stage time of a Runge-Kutta step in one
array pass (_bare_weights, _adiabatic_weights) and hands to the derivative
stage by stage; it drives the DOP853 tableau itself, with the bits of SciPy's
solver, and so do the effective engine's (s, u, v) solves: both engines step
one tableau.  The tableau is read from SciPy's DOP853 coefficients file
(_DOP853), so neither engine imports scipy.integrate.
"""

from __future__ import annotations

import enum
import importlib.util
import math
import warnings
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import StepBudgetExceeded, StepSizeUnderflow, ToleranceNotMet
from .pulses import (_EXP_CLAMP, Batch, DephasingMatrix, MixingAngles, PulseConfig,
                     _frame_angles, _theta_dot, mixing_angles)
from .tripod import TargetState, frame_generator, frame_matrix, geometric_phases, target_state

RTOL = 1e-9
ATOL = 1e-12
# derivative calls one master solve may make, about 7x those of scp at Omega0 = 3200
MAX_NFEV = 10**6

_I, _J = np.triu_indices(4, 1)
_DIAG = 5 * np.arange(4)
# vec(rho) position of each coordinate: rho_ii, then rho_ij for Re and again for Im, i < j
_POS = np.concatenate([_DIAG, 4 * _I + _J, 4 * _I + _J])
# vec(rho) = _TO_VEC @ c: coordinate k adds _UNIT[k] at rho_ij and its conjugate at rho_ji
_UNIT = np.repeat([1.0, 1.0, 1j], [4, 6, 6])
_TO_VEC = np.zeros((16, 16), dtype=complex)
_TO_VEC[_POS, np.arange(16)] = _UNIT
_TO_VEC[np.concatenate([_DIAG, 4 * _J + _I, 4 * _J + _I]), np.arange(16)] = _UNIT.conj()
# squared Frobenius norms N of the coordinate basis matrices: tr(rho sigma) = c_rho @ (N c_sigma)
_NORM2 = np.repeat([1.0, 2.0], [4, 12])
# the columns are orthogonal: the inverse is the adjoint over the squared column norms
_FROM_VEC = _TO_VEC.conj().T / _NORM2[:, None]
# each real and imaginary part of vec(rho), interleaved, is one coordinate times 1, -1 or 0
_PARTS = np.stack([_TO_VEC.real, _TO_VEC.imag], 1).reshape(32, 16)
_GATHER = np.abs(_PARTS).argmax(1)
_SIGN = _PARTS[np.arange(32), _GATHER]


def density(c: np.ndarray) -> np.ndarray:
    """Hermitian rho of shape S + (4, 4) from real coordinates of shape S + (16,).

    A gather with the bits of c @ _TO_VEC.T: adding 0.0 turns -0.0 into 0.0 as the sums of
    the product do.  mode "clip" writes straight to `parts`, which "raise" would buffer.
    """
    parts = np.empty(np.shape(c)[:-1] + (32,))
    np.take(c, _GATHER, axis=-1, out=parts, mode="clip")
    parts *= _SIGN
    parts += 0.0
    return parts.view(complex).reshape(np.shape(c)[:-1] + (4, 4))


def coords(rho: np.ndarray) -> np.ndarray:
    """Real coordinates S + (16,) of a Hermitian rho of shape S + (4, 4); inverse of density."""
    return (np.reshape(rho, np.shape(rho)[:-2] + (16,)) @ _FROM_VEC.T).real


def _commutator_superop(m: np.ndarray) -> np.ndarray:
    """-i [M, .] in the coordinates: column k is the image of the k-th basis state."""
    basis = density(np.eye(16))
    return coords(-1j * (m @ basis - basis @ m)).T


def _coupling(i: int, j: int) -> np.ndarray:
    """Hamiltonian per unit Rabi frequency of a field driving levels i and j."""
    h = np.zeros((4, 4))
    h[i, j] = h[j, i] = 0.5
    return h


# pump, Stokes and control superoperators, in the order of pulse_envelopes
L_PUMP = _commutator_superop(_coupling(0, 1))
L_STOKES = _commutator_superop(_coupling(1, 2))
L_CONTROL = _commutator_superop(_coupling(1, 3))
# c @ _DRIVE holds L_p c, L_s c and L_c c side by side
_DRIVE = np.concatenate([L_PUMP.T, L_STOKES.T, L_CONTROL.T], axis=1)
# the same for H_a - i W at unit Omega_rms, theta', phi' sin(theta) and phi' cos(theta), with
# diag(1, -1, 0, 0) exact: frame_generator at theta = pi/2 would keep a cos of 6e-17
_FRAME_DRIVE = np.concatenate([_commutator_superop(m).T for m in (
    np.diag([0.0, 0.0, 0.5, -0.5]), -1j * frame_generator(MixingAngles.at(0, 0, theta_dot=1.0)),
    np.diag([1.0, -1.0, 0.0, 0.0]), -1j * frame_generator(MixingAngles.at(0, 0, phi_dot=1.0)))], 1)


class Basis(enum.Enum):
    BARE = "bare"
    ADIABATIC = "adiabatic"


def dissipator(rho: np.ndarray, gamma: DephasingMatrix) -> np.ndarray:
    """Dephasing matrix D with D_mn = -i * gamma_mn * rho_mn, zero diagonal."""
    return -1j * gamma.rates * rho


@lru_cache(maxsize=4)
def _constants(batch: Batch) -> tuple:
    """Per-batch constants of the derivatives in s, the window spans folded in.

    At t = start + s * span the exponent (t - c_k)^2 / w_k is k_k (s - s_k)^2 with
    s_k = (c_k - start) / span and k_k = span^2 / w_k, kept as -k_k so that a call
    negates nothing; the amplitudes omega0 and the coordinate damping gamma_c carry
    span, and so does N gamma_c, the damping of the frame dephasing (_frame_damping).
    Every array has the shape of its use: (B, 3) per pulse, (B, 16) per coordinate and the
    flat (B * 16,) damping of rhs_bare, since a broadcast (B, 1) operand makes a
    derivative's multiply about twice as slow.
    """
    span = batch.span[:, None]
    damping = batch.rates.take(_POS, axis=1) * span
    return ((batch.centers - batch.start[:, None]) / span, -span * span / batch.widths,
            np.repeat(batch.omega0 * span, 3, axis=1), damping.ravel(), damping * _NORM2)


def _drive(weights: np.ndarray, c: np.ndarray, stacked: np.ndarray) -> np.ndarray:
    """sum_k weights[:, k] L_k c, flat, for (B, K) weights, the flat state c and the K
    superoperators of `stacked`."""
    return (weights[:, None] @ (c.reshape(-1, 16) @ stacked).reshape(len(weights), -1, 16)
            ).ravel()


def _bare_weights(s: np.ndarray, batch: Batch) -> np.ndarray:
    """The (n, B, 3) drive weights Omega_k of rhs_bare, per unit s, at n stage times s."""
    centres, neg_k, amplitudes = _constants(batch)[:3]
    d = s[:, None, None] - centres
    return amplitudes * np.exp(np.maximum(neg_k * d * d, -_EXP_CLAMP))


def rhs_bare(s, c: np.ndarray, batch: Batch, w: np.ndarray | None = None) -> np.ndarray:
    """Bare-basis c' = (sum_k Omega_k L_k + L_gamma) c in the real coordinates.

    dc/ds at the normalised time s on the flat (B * 16,) state, as the solver holds it.  w,
    when given, is the (B, 3) _bare_weights at s, from the step loop's one pass over the
    stage times of a step; without it the weights are computed here.
    """
    w = _bare_weights(np.array([s]), batch)[0] if w is None else w
    return _drive(w, c, _DRIVE) - _constants(batch)[3] * c


def to_adiabatic(rho: np.ndarray, t, cfg: PulseConfig | Batch) -> np.ndarray:
    """rho^a = R^dag rho R in the instantaneous eigenframe at time t.

    Takes one 4x4 state at a scalar t, a stack of shape (n, 4, 4) with its
    n sample times, or a Batch with one time per member.
    """
    r = frame_matrix(mixing_angles(t, cfg))
    return np.conj(np.swapaxes(r, -1, -2)) @ rho @ r


def from_adiabatic(rho_a: np.ndarray, t, cfg: PulseConfig) -> np.ndarray:
    """rho = R rho^a R^dag; the inverse of to_adiabatic, on the same shapes."""
    r = frame_matrix(mixing_angles(t, cfg))
    return r @ rho_a @ np.conj(np.swapaxes(r, -1, -2))


def _frame_dephasing(rho_a: np.ndarray, r: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """-R^dag (gamma (.) (R rho^a R^dag)) R: the dephasing in the frame R, on stacks too."""
    r_h = r.conj().swapaxes(-1, -2)
    return -(r_h @ (rates * (r @ rho_a @ r_h)) @ r)


def _harmonics(cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """The 25 products h_k of [1, cos, sin](k theta) and [1, cos, sin](k phi), k <= 2.

    cos and sin hold those of (theta, phi) along their first axis, shape (2,) + S; the
    result has one row of 25 per angle pair, (prod S, 25), theta's harmonic the slower index.
    """
    h = np.array([np.ones(np.shape(cos)), cos, sin, cos * cos - sin * sin, 2.0 * sin * cos])
    return (h[:, None, 0] * h[None, :, 1]).reshape(25, -1).T


@lru_cache(maxsize=1)
def _frame_terms() -> np.ndarray:
    """The constant terms T_k of the frame map, T = sum_k h_k T_k, as a (25, 256) table.

    Every entry of R is +-1/sqrt(2) times products of 1, cos and sin of theta and of
    phi, so T, bilinear in R and R^*, is a trigonometric polynomial of degree <= 2 in
    each angle with coefficients that are multiples of 1/8.  Its values on the 5 x 5
    grid 2 pi j / 5 fix it, and rounding to eighths removes the rounding of the fit.
    Built on first use.
    """
    nodes = 0.4 * np.pi * np.arange(5)
    grid = MixingAngles.at(np.repeat(nodes, 5), np.tile(nodes, 5))  # 25 (theta, phi) points
    r = frame_matrix(grid)[:, None]
    # column l of T at a grid point is coords(R E_l R^dag), E_l the l-th basis matrix
    values = coords(r @ density(np.eye(16)) @ r.conj().swapaxes(-1, -2)).swapaxes(-1, -2)
    h = _harmonics(np.array([grid.cos_theta, grid.cos_phi]),
                   np.array([grid.sin_theta, grid.sin_phi]))
    # the harmonics are orthogonal on the grid: solving is projecting onto each of them
    terms = (h.T @ values.reshape(25, 256)) / (h * h).sum(0)[:, None]
    return np.round(8.0 * terms) / 8.0


def frame_map(angles: MixingAngles) -> np.ndarray:
    """rho = R rho^a R^dag on the real coordinates: coords(rho) = T coords(rho^a).

    R is tripod.frame_matrix; T is real, and N^-1 T^T N is its inverse (R is unitary and
    tr(rho sigma) = c_rho @ (N c_sigma), N the squared norms of the basis matrices).
    T = sum_k h_k(theta, phi) T_k over the 25 harmonics of _harmonics.  Scalar angles give
    one (16, 16) map; angles of shape S, such as (n, B), give S + (16, 16) in one matmul.
    """
    cos = np.array([angles.cos_theta, angles.cos_phi])
    sin = np.array([angles.sin_theta, angles.sin_phi])
    return (_harmonics(cos, sin) @ _frame_terms()).reshape(cos.shape[1:] + (16, 16))


def _frame_damping(vec: np.ndarray, t: np.ndarray, weighted: np.ndarray) -> np.ndarray:
    """N^-1 T^T (N gamma_c (.) T c) for (B, 16) states c, (B, 16, 16) maps T and N gamma_c.

    The coordinate form of R^dag (gamma (.) (R rho^a R^dag)) R: rho^a taken to the bare
    basis, damped there as in rhs_bare (T = 1 gives gamma_c c), and taken back.
    """
    damped = weighted * (t @ vec[:, :, None])[:, :, 0]
    return (damped[:, None] @ t)[:, 0] / _NORM2


def _slow_functions(s: np.ndarray, batch: Batch) -> tuple:
    """The pulses' part of the eigenframe derivative in closed form at n times s.

    Per unit s, the (n, B, 4) weights of _FRAME_DRIVE: Omega_rms, theta', phi' sin(theta) and
    phi' cos(theta); and cos and sin of (theta, phi), (2, n, B) each.  The angles come from
    the Gaussian exponents in s (_constants) as pulses.mixing_angles forms them in t.
    """
    centres, neg_k, amplitudes = (x.T[:, None] for x in _constants(batch)[:3])
    d = s[:, None] - centres  # (3, n, B): the pulse axis first, as _frame_angles takes it
    neg_a = neg_k * d * d
    omega = amplitudes * np.exp(np.maximum(neg_a, -_EXP_CLAMP))
    rates = -2.0 * neg_k * d
    cos, sin, phi_dot = _frame_angles(neg_a, rates)
    drive = np.stack([np.sqrt((omega * omega).sum(0)), _theta_dot(cos, sin, rates),
                      phi_dot * sin[0], phi_dot * cos[0]], -1)
    return drive, cos, sin


def _adiabatic_weights(s: np.ndarray, batch: Batch) -> list:
    """rhs_adiabatic's weights at n stage times s: per time, the (B, 4) weights of
    _FRAME_DRIVE and the (B, 16, 16) frame maps T, from one closed-form pass
    (_slow_functions) and one product of its harmonics with the table, as in frame_map."""
    drive, cos, sin = _slow_functions(s, batch)
    return list(zip(drive, (_harmonics(cos, sin) @ _frame_terms()).reshape(len(s), -1, 16, 16)))


def rhs_adiabatic(s, c: np.ndarray, batch: Batch, w: tuple | None = None) -> np.ndarray:
    """Eigenframe rho^a' = -i [H_a - i W, rho^a] - R^dag (gamma (.) (R rho^a R^dag)) R.

    On the times and flat coordinates of rhs_bare, for s in [0, 1].  H_a =
    diag(0, 0, Omega/2, -Omega/2) and W = tripod.frame_generator make the coherent part one
    contraction of _FRAME_DRIVE; the dephasing is -N^-1 T^T (N gamma_c (.) T c) with T the
    real frame map.  The weights and T come from their closed forms (_adiabatic_weights);
    w, when given, is those at s, from the step loop's one pass.
    """
    drive, frame = _adiabatic_weights(np.array([s]), batch)[0] if w is None else w
    return _drive(drive, c, _FRAME_DRIVE) - _frame_damping(
        c.reshape(-1, 16), frame, _constants(batch)[4]).ravel()


@dataclass
class Trajectory:
    """Solution of one run at its output samples or at its window's end alone, with derived
    observables.

    `states` holds them in the basis the engine solved in; the other basis is
    built on its first read through to_adiabatic or from_adiabatic and kept.
    """

    cfg: PulseConfig
    basis: Basis
    t: np.ndarray
    states: np.ndarray     # (n, 4, 4) in `basis`
    fidelity: np.ndarray   # (n,) squared overlap with the ideal end state
    target: TargetState
    stats: dict = field(default_factory=dict)

    @cached_property
    def rho(self) -> np.ndarray:
        """(n, 4, 4) bare basis."""
        if self.basis is Basis.BARE:
            return self.states
        return from_adiabatic(self.states, self.t, self.cfg)

    @cached_property
    def rho_a(self) -> np.ndarray:
        """(n, 4, 4) adiabatic basis."""
        if self.basis is Basis.ADIABATIC:
            return self.states
        return to_adiabatic(self.states, self.t, self.cfg)

    @property
    def populations(self) -> np.ndarray:
        return np.real(np.einsum("nii->ni", self.rho))

    @property
    def adiabatic_populations(self) -> np.ndarray:
        return np.real(np.einsum("nii->ni", self.rho_a))


def _certified(states: np.ndarray) -> bool:
    """Whether one Cholesky factorisation of the stack shifted by 1e-12 passes: then no state
    has an eigenvalue below about -1e-12."""
    try:
        np.linalg.cholesky(states + 1e-12 * np.eye(4))
    except np.linalg.LinAlgError:
        return False
    return True


class _Invariants:
    """Each member's trace error and a least eigenvalue, folded over the (n, B, 4, 4) stacks
    of its states handed to `add`, in any basis.

    Where a member's stacks pass the positivity certificate (_certified), min_eigenvalue is
    its final state's least eigenvalue.  Where one fails, it is the least over the stacks
    that fail, which hold every eigenvalue below about -1e-12; on a single stack that is the
    least over the whole stack.  density builds exactly Hermitian states, so the Hermiticity
    error is 0.0, as in effective.dark_invariants, and eigvalsh and cholesky, which read one
    triangle, take them as they are.
    """

    def __init__(self, members: int):
        self.trace, self.least, self.last = np.zeros(members), np.full(members, np.inf), None

    def add(self, states: np.ndarray) -> None:
        np.maximum(self.trace, np.abs(np.einsum("nbii->nb", states) - 1.0).max(0), out=self.trace)
        for b in [] if _certified(states) else range(states.shape[1]):
            if not _certified(states[:, b]):
                self.least[b] = min(self.least[b], np.linalg.eigvalsh(states[:, b])[:, 0].min())
        self.last = states[-1]

    def stats(self) -> list[dict]:
        least = np.where(np.isinf(self.least), np.linalg.eigvalsh(self.last)[:, 0], self.least)
        return [{"trace_error": float(trace), "hermiticity_error": 0.0,
                 "min_eigenvalue": float(value)} for trace, value in zip(self.trace, least)]


def _trajectory(cfg: PulseConfig, basis: Basis, samples: int | None, states: np.ndarray,
                nfev: int, theta_g: float, invariants: dict,
                fidelity: Callable[[TargetState, np.ndarray], np.ndarray] | None = None
                ) -> Trajectory:
    """Fidelity and invariant errors of one member's states in the basis solved in, at the
    output of _solve_batch: np.linspace(start, end, samples), or the window's end alone with
    samples None.

    The target state takes the member's geometric angle theta_g, which both
    engines evaluate once per batch.  In the adiabatic basis the fidelity is
    <R^dag psi| rho^a |R^dag psi>, with R the frame at each time.  The engine
    supplies the invariants, and may supply the fidelity as a function of the
    target state and the times; else it is read from the states.
    """
    t = np.linspace(cfg.start, cfg.end, samples) if samples else np.array([cfg.end])
    tgt = target_state(cfg, theta_g)
    if fidelity is not None:
        fid = fidelity(tgt, t)
    elif basis is Basis.BARE:
        fid = tgt.expectation(states)
    else:
        # row n is R_n^dag psi
        amps = tgt.amplitudes @ np.conj(frame_matrix(mixing_angles(t, cfg)))
        fid = np.real(np.einsum("ni,nij,nj->n", np.conj(amps), states, amps))

    if invariants["min_eigenvalue"] < -1e-6:
        warnings.warn("density matrix lost positivity: "
                      f"min eigenvalue {invariants['min_eigenvalue']:.3e}")
    return Trajectory(cfg=cfg, basis=basis, t=t, states=states, fidelity=fid,
                      target=tgt, stats={"nfev": nfev, **invariants})


def check_samples(samples: int) -> None:
    """An output grid needs both ends of the window."""
    if samples < 2:
        raise ValueError("samples must be at least 2")


# member states a solve folds at a time: _FOLD // B accepted steps or samples of B members,
# at least one
_FOLD = 384
# the step-size control of SciPy's Runge-Kutta solvers
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10


def _dop853() -> SimpleNamespace:
    """The DOP853 tableau under the names and slices of scipy.integrate.DOP853.

    It is read from SciPy's own coefficients module, which imports NumPy alone, loaded from
    its file: importing the scipy.integrate package would take most of this package's import
    time.  The file does not hold the error estimator's order or the step-underflow message,
    literals of scipy.integrate.DOP853 and its base class.
    """
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    spec = importlib.util.spec_from_file_location(
        "dop853_coefficients", Path(root, "integrate", "_ivp", "dop853_coefficients.py"))
    coefficients = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(coefficients)
    n, A, C = coefficients.N_STAGES, coefficients.A, coefficients.C
    return SimpleNamespace(
        n_stages=n, error_estimator_order=7, A=A[:n, :n], B=coefficients.B, C=C[:n],
        E3=coefficients.E3, E5=coefficients.E5, D=coefficients.D, A_EXTRA=A[n + 1:],
        C_EXTRA=C[n + 1:],
        TOO_SMALL_STEP="Required step size is less than spacing between numbers.")


_DOP853 = _dop853()


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm of a 1-D real array, which is sqrt(x @ x), bit for bit."""
    return math.sqrt(x.dot(x))


def _rms(x: np.ndarray) -> float:
    """The RMS norm of SciPy's initial-step rule."""
    return _norm(x) / x.size ** 0.5


def _max_step(batch: Batch) -> float:
    """The longest step in s: no member's default window (PulseConfig.reach) in one.

    On a wider custom window the step would otherwise grow across the quiet edges and pass
    over the pulses without a stage landing on them.  On a window no wider than the default
    the bound is at least the whole window, and the solve is the unbounded one.
    """
    return min(2.0 * cfg.reach / span for cfg, span in zip(batch.cfgs, batch.span))


def _solve_batch(rhs, weights, y0: np.ndarray, batch: Batch, samples: int | None, budget: str,
                 fold: Callable[[np.ndarray], None] | None = None) -> tuple:
    """The step loop of both ODE engines: one solve of rhs(s, y, batch) = dy/ds on the flat
    batch state y over s in [0, 1] by the eighth-order Dormand-Prince pair (DOP853), at RTOL
    and ATOL.

    The derivative is linear in y with coefficients that depend on s alone: weights(ts, batch)
    evaluates them at an array of times in one pass, and rhs(s, y, batch, w=w) takes those at
    s from there instead of computing them.  Both are called unbound, batch passed on each
    call.  Each step attempt makes one weights call for all its stage times, t + C h and
    t + h, and each step that holds samples one more for the three extra stages of the dense
    output; rhs runs once per stage, on views of the stage table k built once per solve.  The
    tableau is SciPy's, read from its coefficients file without importing scipy.integrate
    (_DOP853), and the initial step, the step control, the error norm, the derivative count
    and the dense output are those of SciPy's RungeKutta, select_initial_step, DOP853 and
    Dop853DenseOutput, operation for operation, so states and counts have the bits of
    solve_ivp on rhs bound to batch.  The step control runs on Python floats (math), with the
    bits of SciPy's NumPy scalars.

    Returns the states and the derivative calls.  On an output grid the states are
    (len(y0), samples) at np.linspace(0, 1, samples), read from the dense output on the
    steps that hold samples, and fold, when given, is handed the samples after the step
    loop.  With samples None the states are the final state alone, (len(y0), 1), and fold is
    handed the accepted states, y0 first, as the solve takes them.  Either way fold gets
    (k, len(y0)) chunks of at most max(_FOLD // B, 1) rows.

    A non-finite derivative at the start would make the first step size NaN, so it is
    refused up front; that first derivative is the solve's own.  A solve that needs more
    than MAX_NFEV calls, the count of a stage each, raises StepBudgetExceeded with `budget`
    formatted with MAX_NFEV (both read at call time); the count is read after each step.  A
    failed step is a step-size underflow.  No step is longer than _max_step(batch).
    """
    rk, chunk = _DOP853, max(_FOLD // len(batch), 1)
    stages, order = rk.n_stages, rk.error_estimator_order + 1
    # a step from t by h evaluates its stages at t + C[1:] h and its end derivative at t + h
    nodes, max_step = np.append(rk.C[1:], 1.0), _max_step(batch)
    k = np.empty((rk.D.shape[1], len(y0)))
    # each stage i of a step and of its dense output, with the views k[:i].T and A[i, :i] it
    # combines, and the stages of the step's new state (k_b) and of its error estimate (k_e)
    steps, extras = ([(i, k[:i].T, a[:i]) for i, a in enumerate(rows, first)]
                     for rows, first in ((rk.A[1:stages], 1), (rk.A_EXTRA, stages + 1)))
    k_b, k_e = k[:stages].T, k[:stages + 1].T
    if samples is None:
        states = np.empty((chunk, len(y0)))
        states[0], done = y0, 1
    else:
        check_samples(samples)
        grid, out, done = np.linspace(0.0, 1.0, samples), np.empty((len(y0), samples)), 0
    f = rhs(0.0, y0, batch)
    if not np.all(np.isfinite(f)):
        raise ToleranceNotMet("non-finite derivative at the start of the window")
    scale = ATOL + np.abs(y0) * RTOL  # select_initial_step
    d0, d1 = _rms(y0 / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, 1.0)
    d2 = _rms((rhs(h0, y0 + h0 * f, batch) - f) / scale) / h0
    # the step bound of select_initial_step is applied with the loop's own, below
    h_abs = min(100 * h0, max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
                else (0.01 / max(d1, d2)) ** (1 / order), 1.0)
    t, y, nfev = 0.0, y0, 2
    while t < 1.0:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max_step if h_abs > max_step else max(h_abs, min_step)
        # the growth cap falls to 1 once a step is rejected; k[0] is f at t for every attempt
        cap, error, k[0] = _MAX_FACTOR, math.inf, f
        while h_abs >= min_step:
            t_new = min(t + h_abs, 1.0)
            h = h_abs = t_new - t
            w = weights(ts := t + nodes * h, batch)
            for (i, k_i, a), s, w_s in zip(steps, ts, w):
                k[i] = rhs(s, y + np.dot(k_i, a) * h, batch, w=w_s)
            y_new = y + h * np.dot(k_b, rk.B)
            k[stages] = f_new = rhs(ts[-1], y_new, batch, w=w[-1])
            nfev += stages
            scale = ATOL + np.maximum(np.abs(y), np.abs(y_new)) * RTOL
            e5, e3 = (_norm(np.dot(k_e, e) / scale) ** 2 for e in (rk.E5, rk.E3))
            error = abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * len(scale)) if e5 or e3 else 0.0
            if error < 1:
                break
            h_abs, cap = h_abs * max(_MIN_FACTOR, _SAFETY * error ** (-1 / order)), 1
        if nfev >= MAX_NFEV:
            raise StepBudgetExceeded(budget.format(MAX_NFEV))
        if not error < 1:
            raise StepSizeUnderflow(rk.TOO_SMALL_STEP)
        h_abs *= min(cap, _MAX_FACTOR if error == 0 else _SAFETY * error ** (-1 / order))
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new
        if samples is None:
            if done == len(states):
                fold(states)
                done = 0
            states[done] = y
            done += 1
        elif (end := grid.searchsorted(t, side="right")) > done:
            x = (grid[done:end] - t_old)[:, None] / h
            ts = t_old + rk.C_EXTRA * h
            for (i, k_i, a), s, w_s in zip(extras, ts, weights(ts, batch)):
                k[i] = rhs(s, y_old + np.dot(k_i, a) * h, batch, w=w_s)
            nfev += len(rk.C_EXTRA)
            delta, value = y - y_old, np.zeros((len(x), len(y0)))
            # the terms of Dop853DenseOutput, highest first
            for i, term in enumerate([*(h * np.dot(rk.D, k))[::-1],
                                      2 * delta - h * (f + k[0]), h * k[0] - delta, delta]):
                value += term
                value *= x if i % 2 == 0 else 1 - x
            out[:, done:end] = (value + y_old).T
            done = end
    if samples is None:
        fold(states[:done])
        return y[:, None], nfev
    for first in range(0, samples, chunk) if fold else ():
        fold(out[:, first:first + chunk].T)
    return out, nfev


def integrate_many(cfgs, basis: Basis = Basis.BARE,
                   samples: int | None = 2000) -> Iterator[Trajectory]:
    """Propagate |psi_1><psi_1| for every configuration in one shared solve.

    Member b runs on t = start_b + s * (end_b - start_b) with s in [0, 1], so
    members with different windows share every DOP853 step on the flat state
    of their (B, 16) real coordinates.  The step size follows the hardest
    member and the error norm spans the batch, so a member's values depend on
    the batch at the level of the solver's own error, and the same batch gives
    the same values.  On the default fig5a, fig5b, fig6 and fig8 grids every
    member's final F2 lies within 3.2e-9 (fig6, fig8: 6.6e-11), and its whole
    F2 trajectory within 1.1e-8, of a lone solve at rtol 1e-13.  On
    _solve_batch, the stage-batched step loop shared with
    effective.integrate_many, each trajectory is sampled at
    np.linspace(start, end, samples), and its invariants are folded over the
    samples (_Invariants) a chunk at a time.  With samples None it keeps only
    the final state, the last step's own at s = 1, where a grid reads its
    interpolant, y_old + (y_new - y_old), equal to it up to an ulp; its
    invariants are folded over the states at the accepted steps as the solve
    takes them, with no output grid and no stack of the steps.
    Its `nfev` counts the calls of the batch derivative, rhs_bare or
    rhs_adiabatic (from R^dag rho R), looked up by name once per solve and
    handed to the step loop unbound, one call per stage; their weights at
    the stage times of a step come from one _bare_weights or
    _adiabatic_weights pass.
    A solve past MAX_NFEV calls raises StepBudgetExceeded; like any failed
    solve it raises for the whole batch at the call.  The trajectories are
    built as the caller iterates, and only there do their states become
    complex 4x4 matrices.
    """
    batch = Batch.of(cfgs)
    n = len(batch)
    c0 = np.eye(16)[0]  # rho_11 = 1
    y0 = (np.tile(c0, n) if basis is Basis.BARE
          else coords(to_adiabatic(density(c0), batch.start, batch)).ravel())
    folded = _Invariants(n)
    rhs, weights = ((rhs_bare, _bare_weights) if basis is Basis.BARE
                    else (rhs_adiabatic, _adiabatic_weights))
    y, nfev = _solve_batch(rhs, weights, y0, batch, samples,
                           "the master solve stopped at its budget of {} "
                           "derivative calls (about 45 per unit of Omega0); --engine effective "
                           "takes about 900 at any Omega0",
                           lambda rows: folded.add(density(rows.reshape(len(rows), n, 16))))
    return (_trajectory(cfg, basis, samples, density(c.T), nfev, theta_g, member)
            for cfg, c, theta_g, member in zip(batch.cfgs, y.reshape(n, 16, -1),
                                               geometric_phases(batch.cfgs), folded.stats()))


def integrate(cfg: PulseConfig, basis: Basis = Basis.BARE, samples: int = 2000) -> Trajectory:
    """Propagate |psi_1><psi_1| from t_start to t_end: a batch of one."""
    return next(integrate_many([cfg], basis=basis, samples=samples))
