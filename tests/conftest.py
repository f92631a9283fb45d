"""Shared fixtures: memoized trajectory runs reused across test modules.

Master-equation runs at the standard sample count dominate the suite's
runtime, so identical configurations are integrated once and shared.
"""

from __future__ import annotations

import signal

import numpy as np
import pytest
import scipy.integrate
from hypothesis import HealthCheck, settings

from tripod_stirap import effective, liouville
from tripod_stirap.pulses import DephasingMatrix, PulseConfig

settings.register_profile(
    "suite", deadline=None, max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

_MASTER: dict = {}
_EFFECTIVE: dict = {}


def _config(ordering: str, omega0: float, tau: float, gamma: float) -> PulseConfig:
    return PulseConfig(ordering=ordering, omega0=omega0, tau=tau,
                       gamma=DephasingMatrix.equal(gamma))


@pytest.fixture(scope="session")
def master_run():
    """Factory returning a cached master-equation Trajectory."""

    def run(ordering: str, omega0: float = 50.0, tau: float = 1.5,
            gamma: float = 0.0, samples: int = 2000,
            basis: liouville.Basis = liouville.Basis.BARE) -> liouville.Trajectory:
        key = (ordering, omega0, tau, gamma, samples, basis)
        if key not in _MASTER:
            _MASTER[key] = liouville.integrate(_config(ordering, omega0, tau, gamma),
                                               basis=basis, samples=samples)
        return _MASTER[key]

    return run


@pytest.fixture(scope="session")
def effective_run():
    """Factory returning a cached effective-model EffectiveTrajectory."""

    def run(ordering: str, omega0: float = 50.0, tau: float = 1.5,
            gamma: float = 0.0, samples: int = 2000,
            mode: effective.Mode = effective.Mode.FULL) -> effective.EffectiveTrajectory:
        key = (ordering, omega0, tau, gamma, samples, mode)
        if key not in _EFFECTIVE:
            _EFFECTIVE[key] = effective.integrate_suv(_config(ordering, omega0, tau, gamma),
                                                      mode=mode, samples=samples)
        return _EFFECTIVE[key]

    return run


@pytest.fixture()
def quad_calls(monkeypatch) -> list:
    """Record every scipy.integrate.quad call.  The package binds no quad of its own: dk
    imports it from scipy.integrate where it integrates, so the patched function is the one
    it calls (and a module-level import would fail the cold-start tests in test_cli)."""
    real = scipy.integrate.quad
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counted)
    return calls


@pytest.fixture()
def watchdog():
    """Fail the test with TimeoutError once it has run for 30 s, so a hang fails instead of
    stalling the suite.  SIGALRM interrupts Python code between bytecodes (main thread)."""

    def expire(signum, frame):
        raise TimeoutError("the test ran past its 30 s watchdog")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 30.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20260815)
