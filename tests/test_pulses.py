from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from arctan_angles import arctan_angles
from tripod_stirap.pulses import (
    Batch,
    DephasingMatrix,
    MixingAngles,
    Ordering,
    PulseConfig,
    mixing_angles,
    pulse_envelopes,
    rms_rabi,
)

ORDERINGS = ["overlap", "scp", "csp", "fractional"]


# ------------------------------------------------------------- orderings

def test_ordering_parse_canonical_names() -> None:
    for name in ORDERINGS:
        assert Ordering.parse(name).value == name


def test_ordering_parse_aliases_and_normalization() -> None:
    assert Ordering.parse("stokes_control_pump") is Ordering.SCP
    assert Ordering.parse("Control-Stokes-Pump") is Ordering.CSP
    assert Ordering.parse("fractional-STIRAP") is Ordering.FRACTIONAL
    assert Ordering.parse("  OVERLAP ") is Ordering.OVERLAP


def test_ordering_parse_rejects_unknown() -> None:
    with pytest.raises(ValueError, match="unknown ordering"):
        Ordering.parse("sideways")


# ------------------------------------------------------ dephasing matrix

def test_dephasing_matrix_requires_symmetry() -> None:
    rates = np.zeros((4, 4))
    rates[0, 1] = 1.0
    with pytest.raises(ValueError, match="dephasing matrix must be symmetric"):
        DephasingMatrix(rates)


def test_dephasing_matrix_requires_zero_diagonal() -> None:
    with pytest.raises(ValueError, match="zero diagonal"):
        DephasingMatrix(np.eye(4))


def test_dephasing_matrix_rejects_negative_rates() -> None:
    rates = -0.5 * (np.ones((4, 4)) - np.eye(4))
    with pytest.raises(ValueError, match="non-negative"):
        DephasingMatrix(rates)


def test_dephasing_matrix_rejects_wrong_shape() -> None:
    with pytest.raises(ValueError, match="4x4"):
        DephasingMatrix(np.zeros((3, 3)))


def test_dephasing_matrix_constructors() -> None:
    z = DephasingMatrix.zeros()
    assert not np.any(z.rates)
    assert z.equal_rate() == 0.0

    e = DephasingMatrix.equal(1.5)
    assert np.any(e.rates)
    assert e.equal_rate() == 1.5
    assert e[0, 1] == 1.5
    assert e[2, 2] == 0.0
    assert e == DephasingMatrix.equal(1.5)
    assert e != z


def test_dephasing_matrix_unequal_rates_have_no_common_value() -> None:
    rates = np.ones((4, 4)) - np.eye(4)
    rates[0, 1] = rates[1, 0] = 2.0
    assert DephasingMatrix(rates).equal_rate() is None


def test_dephasing_matrix_is_immutable() -> None:
    m = DephasingMatrix.equal(1.0)
    with pytest.raises(ValueError):
        m.rates[0, 1] = 3.0


def test_dephasing_matrix_from_file(tmp_path) -> None:
    path = tmp_path / "gamma.txt"
    path.write_text(
        "# pairwise rates\n"
        "0 1 2 3\n"
        "1 0 4 5  # row two\n"
        "2 4 0 6\n"
        "3 5 6 0\n"
    )
    m = DephasingMatrix.from_file(str(path))
    assert m[0, 3] == 3.0 and m[2, 3] == 6.0


def test_dephasing_matrix_from_file_needs_sixteen_numbers(tmp_path) -> None:
    path = tmp_path / "short.txt"
    path.write_text("0 1\n1 0\n")
    with pytest.raises(ValueError, match="16 numbers"):
        DephasingMatrix.from_file(str(path))


def test_dephasing_matrix_from_file_refuses_a_ragged_matrix(tmp_path) -> None:
    # np.loadtxt's own message: the third row has three columns
    path = tmp_path / "ragged.txt"
    path.write_text("0 1 1 1\n1 0 1 1\n1 1 0\n1 1 1 0 1\n")
    with pytest.raises(ValueError, match="number of columns changed"):
        DephasingMatrix.from_file(str(path))


def test_dephasing_matrix_tolerances_hold_at_1e_12() -> None:
    # symmetry and equal rates accept a gap of exactly 1e-12 and refuse the next float up,
    # as np.allclose(..., rtol=0, atol=1e-12) does
    for gap, ok in ((1e-12, True), (np.nextafter(1e-12, 1.0), False)):
        assert np.allclose(gap, 0.0, rtol=0.0, atol=1e-12) is ok
        lopsided = np.zeros((4, 4))
        lopsided[0, 1] = gap
        if ok:
            assert DephasingMatrix(lopsided)[1, 0] == 0.5 * gap
        else:
            with pytest.raises(ValueError, match="symmetric"):
                DephasingMatrix(lopsided)
        uneven = np.zeros((4, 4))
        uneven[2, 3] = uneven[3, 2] = gap
        assert (DephasingMatrix(uneven).equal_rate() == 0.0) is ok
    # above a first rate of 1 the tolerance scales with it: 4e-12 at a first rate of 4
    for gap, ok in ((3e-12, True), (5e-12, False)):
        uneven = np.full((4, 4), 4.0) - 4.0 * np.eye(4)
        uneven[2, 3] = uneven[3, 2] = 4.0 + gap
        assert (DephasingMatrix(uneven).equal_rate() == 4.0) is ok


# ---------------------------------------------------------------- config

def test_config_default_window_covers_the_pulses() -> None:
    cfg = PulseConfig(ordering="overlap", omega0=50.0, tau=1.5)
    assert cfg.start == -(6.0 + 1.5)
    assert cfg.end == 6.0 + 1.5
    # envelopes below ~1e-15 omega0 at both edges
    for edge in (cfg.start, cfg.end):
        assert rms_rabi(edge, cfg) < 1e-12 * cfg.omega0


def test_config_accepts_ordering_strings() -> None:
    cfg = PulseConfig(ordering="stokes_control_pump", omega0=1.0, tau=1.0)
    assert cfg.ordering is Ordering.SCP


def test_config_validation() -> None:
    with pytest.raises(ValueError, match="omega0"):
        PulseConfig(ordering="overlap", omega0=0.0, tau=1.0)
    with pytest.raises(ValueError, match="tau"):
        PulseConfig(ordering="overlap", omega0=1.0, tau=-0.5)
    with pytest.raises(ValueError, match="width"):
        PulseConfig(ordering="overlap", omega0=1.0, tau=1.0, width=0.0)
    with pytest.raises(ValueError, match="t_start"):
        PulseConfig(ordering="overlap", omega0=1.0, tau=1.0, t_start=2.0, t_end=-2.0)


def test_config_window_is_at_most_a_million_widths() -> None:
    # the geometric phase takes one quadrature panel per width of the window
    PulseConfig(ordering="scp", omega0=1.0, tau=1.0, t_start=-5e5, t_end=5e5)
    PulseConfig(ordering="scp", omega0=1.0, tau=1.0, width=0.01, t_start=-5e3, t_end=5e3)
    with pytest.raises(ValueError, match="at most 1e\\+06 pulse widths long"):
        PulseConfig(ordering="scp", omega0=1.0, tau=1.0, t_start=-5e5, t_end=5e5 + 1.0)
    with pytest.raises(ValueError, match="at most 1e\\+06 pulse widths long"):
        PulseConfig(ordering="scp", omega0=1.0, tau=1e20)
    with pytest.raises(ValueError, match="at most 1e\\+06 pulse widths long"):
        PulseConfig(ordering="scp", omega0=1.0, tau=1.0, width=1e-10)


def test_config_width_squared_must_be_a_normal_float() -> None:
    # 2e-154 squared is above the smallest normal float, 1e-154 squared below it
    PulseConfig(ordering="scp", omega0=1.0, tau=0.0, width=2e-154, t_start=-1e-150, t_end=1e-150)
    for width in (1e-154, 1e-300, 1e155):
        with pytest.raises(ValueError, match="width squared must be a normal float"):
            PulseConfig(ordering="scp", omega0=1.0, tau=1.0, width=width)


@pytest.mark.parametrize("name", ["omega0", "tau", "width", "t_start", "t_end"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_fields(name: str, value: float) -> None:
    fields = {"ordering": "overlap", "omega0": 50.0, "tau": 1.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        PulseConfig(**fields)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_dephasing_matrix_rejects_non_finite_rates(value: float) -> None:
    with pytest.raises(ValueError, match="dephasing rates must be finite"):
        DephasingMatrix.equal(value)
    rates = np.zeros((4, 4))
    rates[0, 2] = rates[2, 0] = value
    with pytest.raises(ValueError, match="dephasing rates must be finite"):
        DephasingMatrix(rates)


def test_equal_configs_hash_equal() -> None:
    a = PulseConfig(ordering="scp", omega0=50, tau=1.0, gamma=DephasingMatrix.equal(0.5))
    b = PulseConfig(ordering=Ordering.SCP, omega0=50.0, tau=1.0,
                    gamma=DephasingMatrix(0.5 * (np.ones((4, 4)) - np.eye(4))))
    assert a == b and hash(a) == hash(b)
    # -0.0 == 0.0, so their matrices must hash alike too
    assert hash(DephasingMatrix.equal(-0.0)) == hash(DephasingMatrix.zeros())
    assert len({a, b, a.with_updates(tau=2.0)}) == 2


def test_config_with_updates_replaces_fields() -> None:
    cfg = PulseConfig(ordering="overlap", omega0=50.0, tau=1.0)
    cfg2 = cfg.with_updates(tau=2.0)
    assert cfg2.tau == 2.0 and cfg2.omega0 == 50.0 and cfg.tau == 1.0


def test_shapes_centers_scale_with_tau() -> None:
    cfg = PulseConfig(ordering="scp", omega0=1.0, tau=2.0)
    (cp, wp), (cs, ws), (cc, wc) = cfg.shapes()
    assert (cp, cs, cc) == (1.0, -1.0, 0.0)
    assert (wp, ws, wc) == (1.0, 1.0, 1.0)

    frac = PulseConfig(ordering="fractional", omega0=1.0, tau=2.0)
    (cp, wp), (cs, ws), (cc, wc) = frac.shapes()
    assert (cp, cs, cc) == (-1.0, -1.0, 1.0)
    assert (wp, ws, wc) == (1.0, 2.0, 2.0)


# ------------------------------------------------------------- envelopes

def test_envelopes_peak_at_their_centers() -> None:
    cfg = PulseConfig(ordering="scp", omega0=37.0, tau=1.2)
    op, os_, oc = pulse_envelopes(0.6, cfg)
    assert math.isclose(op, 37.0, rel_tol=1e-12)
    op, os_, oc = pulse_envelopes(-0.6, cfg)
    assert math.isclose(os_, 37.0, rel_tol=1e-12)
    op, os_, oc = pulse_envelopes(0.0, cfg)
    assert math.isclose(oc, 37.0, rel_tol=1e-12)


def test_overlap_stokes_and_control_coincide() -> None:
    cfg = PulseConfig(ordering="overlap", omega0=50.0, tau=1.5)
    t = np.linspace(cfg.start, cfg.end, 101)
    _, os_, oc = pulse_envelopes(t, cfg)
    assert np.array_equal(os_, oc)


def test_fractional_stokes_control_widths_are_doubled() -> None:
    cfg = PulseConfig(ordering="fractional", omega0=10.0, tau=1.0)
    (cp, _), (cs, _), (cc, _) = cfg.shapes()
    op, os_, oc = pulse_envelopes(cs + 1.0, cfg)
    assert math.isclose(os_, 10.0 * math.exp(-0.5), rel_tol=1e-12)
    op, _, oc = pulse_envelopes(cp + 1.0, cfg)
    assert math.isclose(op, 10.0 * math.exp(-1.0), rel_tol=1e-12)


# ---------------------------------------------------------- mixing angles

def test_mixing_angles_match_envelope_ratios_mid_window() -> None:
    cfg = PulseConfig(ordering="csp", omega0=50.0, tau=1.0)
    for t in np.linspace(-2.0, 2.0, 17):
        op, os_, oc = pulse_envelopes(t, cfg)
        ang = mixing_angles(t, cfg)
        assert math.isclose(ang.sin_phi / ang.cos_phi, oc / os_, rel_tol=1e-12)
        assert math.isclose(ang.sin_theta / ang.cos_theta, op / math.hypot(os_, oc),
                            rel_tol=1e-12)


def test_mixing_angles_overlap_limits() -> None:
    # theta runs from 0 to pi/2 and phi stays at pi/4, where cos and sin are the same bits
    cfg = PulseConfig(ordering="overlap", omega0=50.0, tau=1.5)
    early, late = mixing_angles(cfg.start, cfg), mixing_angles(cfg.end, cfg)
    assert early.sin_theta < 1e-5
    assert late.cos_theta < 1e-5
    for ang in (early, late):
        assert math.isclose(ang.cos_phi, math.sqrt(0.5), rel_tol=1e-12)
        assert ang.sin_phi == ang.cos_phi
        assert ang.phi_dot == 0.0


def test_mixing_angles_survive_extreme_times() -> None:
    cfg = PulseConfig(ordering="scp", omega0=50.0, tau=1.0)
    for t in (-1e3, -50.0, 50.0, 1e3):
        ang = mixing_angles(t, cfg)
        assert np.isfinite([getattr(ang, f.name) for f in fields(MixingAngles)]).all()


def test_mixing_angles_array_matches_scalars() -> None:
    cfg = PulseConfig(ordering="fractional", omega0=20.0, tau=0.8)
    t = np.linspace(-3.0, 3.0, 7)
    arr = mixing_angles(t, cfg)
    for i, ti in enumerate(t):
        one = mixing_angles(float(ti), cfg)
        for name in ("cos_theta", "sin_theta", "phi_dot"):
            assert math.isclose(getattr(arr, name)[i], getattr(one, name), rel_tol=0.0,
                                abs_tol=1e-15)


def test_mixing_angles_of_a_batch_equal_each_member_bit_for_bit() -> None:
    cfgs = [PulseConfig(ordering=o, omega0=50.0, tau=tau, width=w)
            for o in ORDERINGS for tau, w in ((0.4, 1.0), (1.7, 0.6))]
    batch = Batch.of(cfgs)
    for s in np.linspace(0.0, 1.0, 13):
        t = batch.start + s * batch.span
        got = mixing_angles(t, batch)
        for b, cfg in enumerate(cfgs):
            one = mixing_angles(float(t[b]), cfg)
            for f in fields(MixingAngles):
                assert getattr(got, f.name)[b] == getattr(one, f.name), (cfg, s, f.name)


def test_mixing_angles_of_given_angles_are_their_cos_and_sin() -> None:
    ang = MixingAngles.at(0.3, np.array([0.1, 1.2]), phi_dot=2.0)
    assert (ang.cos_theta, ang.sin_theta) == (math.cos(0.3), math.sin(0.3))
    assert np.array_equal(ang.cos_phi, np.cos([0.1, 1.2]))
    assert np.array_equal(ang.sin_phi, np.sin([0.1, 1.2]))
    assert (ang.theta_dot, ang.phi_dot) == (0.0, 2.0)


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_mixing_angles_match_the_arctan_oracle(ordering: str) -> None:
    # cos and sin of the arctan angles, and the same rates, across a window and far past
    # its edges, where every envelope has underflowed and the exponents are clamped
    cfg = PulseConfig(ordering=ordering, omega0=50.0, tau=1.3, width=0.7)
    t = np.concatenate([np.linspace(cfg.start, cfg.end, 401), [-1e3, -60.0, 60.0, 1e3]])
    ang = mixing_angles(t, cfg)
    theta, phi, theta_dot, phi_dot = arctan_angles(t, cfg)
    for got, want in ((ang.cos_theta, np.cos(theta)), (ang.sin_theta, np.sin(theta)),
                      (ang.cos_phi, np.cos(phi)), (ang.sin_phi, np.sin(phi))):
        assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps
    # theta' cancels in its lever near the edges; past them the arctan form holds tan(theta)
    # above exp(-350), where these sines reach 0
    scale = 1e-14 * (np.abs(theta_dot) + np.abs(phi_dot)) + 1e-140
    assert np.all(np.abs(ang.theta_dot - theta_dot) <= scale)
    assert np.all(np.abs(ang.phi_dot - phi_dot) <= scale)


@given(
    ordering=st.sampled_from(ORDERINGS),
    t=st.floats(-8.0, 8.0),
    tau=st.floats(0.1, 2.5),
)
def test_mixing_angles_stay_in_quadrant(ordering: str, t: float, tau: float) -> None:
    ang = mixing_angles(t, PulseConfig(ordering=ordering, omega0=50.0, tau=tau))
    for cos, sin in ((ang.cos_theta, ang.sin_theta), (ang.cos_phi, ang.sin_phi)):
        assert 0.0 <= cos <= 1.0 and 0.0 <= sin <= 1.0
        assert math.isclose(cos * cos + sin * sin, 1.0, rel_tol=1e-15)


@given(
    ordering=st.sampled_from(ORDERINGS),
    t=st.floats(-4.0, 4.0),
    tau=st.floats(0.2, 2.0),
)
def test_mixing_angle_rates_match_finite_differences(ordering: str, t: float, tau: float) -> None:
    cfg = PulseConfig(ordering=ordering, omega0=50.0, tau=tau)
    h = 1e-6
    plus, minus = mixing_angles(t + h, cfg), mixing_angles(t - h, cfg)
    ang = mixing_angles(t, cfg)
    theta = [math.atan2(a.sin_theta, a.cos_theta) for a in (plus, minus)]
    phi = [math.atan2(a.sin_phi, a.cos_phi) for a in (plus, minus)]
    assert math.isclose(ang.theta_dot, (theta[0] - theta[1]) / (2 * h),
                        rel_tol=1e-4, abs_tol=1e-7)
    assert math.isclose(ang.phi_dot, (phi[0] - phi[1]) / (2 * h),
                        rel_tol=1e-4, abs_tol=1e-7)
