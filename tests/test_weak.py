import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from superpulse import (
    BlochState,
    IntegrationControl,
    ParameterDomainError,
    Regime,
    SampleParams,
    derive_params,
    resolve,
    sample_weak_solution,
    weak_angles,
    weak_energy,
    weak_intensity,
)
from twins import integrate_weak_ode

P_DICKE = SampleParams(10_000, 1e6, 0.0, regime=Regime.DICKE_LIMIT)  # alpha = 0
P_DENSE = SampleParams(10_000, 1e6, 1e2)          # alpha = 2
D_DICKE = derive_params(P_DICKE)
D_DENSE = derive_params(P_DENSE)
PHI0 = resolve(P_DICKE).init.phi  # the azimuth a run starts from

SECH_LN_N = 1.9999999800000002e-4  # sech(ln 1e4) = 2/(N + 1/N), mpmath 40 digits


def test_characteristic_and_delay_times_dicke():
    assert D_DICKE.tau_c_closed == pytest.approx(2e-4, rel=1e-15)
    assert D_DICKE.delay_time_closed == pytest.approx(2e-4 * math.log(1e4), rel=1e-15)


def test_characteristic_time_shrinks_with_alpha():
    assert D_DENSE.tau_c_closed == pytest.approx(2.0 / 3e4, rel=1e-15)


def test_solution_crosses_equator_at_delay_time():
    theta, _ = weak_angles(P_DICKE, D_DICKE.delay_time_closed, PHI0)
    assert theta == math.pi / 2


def test_solution_tipping_angle_at_time_zero():
    theta, _ = weak_angles(P_DICKE, 0.0, PHI0)
    assert math.sin(theta) == pytest.approx(SECH_LN_N, rel=1e-14)
    assert theta < math.pi / 2


def test_solution_branch_past_delay_time():
    t0 = D_DICKE.delay_time_closed
    theta, _ = weak_angles(P_DICKE, 2.0 * t0, PHI0)
    assert theta > math.pi / 2


def test_phase_advances_at_effective_frequency():
    t = 1e-5
    _, phi = weak_angles(P_DENSE, t, phi0=0.25)
    assert phi == pytest.approx(0.25 + 3e6 * t, rel=1e-14)


def test_energy_zero_at_delay_time():
    assert weak_energy(P_DICKE, D_DICKE.delay_time_closed) == 0.0


def test_energy_long_time_limit():
    t0 = D_DENSE.delay_time_closed
    tau = D_DENSE.tau_c_closed
    assert weak_energy(P_DENSE, t0 + 60 * tau) == pytest.approx(-1.5, rel=1e-12)


def test_energy_initially_half_tanh_log_n():
    # (1/2) tanh(ln N) = (N^2 - 1)/(2 (N^2 + 1)), mpmath 40 digits
    assert weak_energy(P_DICKE, 0.0) == pytest.approx(0.4999999900000001, rel=1e-15)


def test_intensity_peak_dicke():
    assert weak_intensity(P_DICKE, D_DICKE.delay_time_closed) == pytest.approx(2.5e7, rel=1e-12)
    assert D_DICKE.peak_intensity_pred == 2.5e7


def test_intensity_peak_enhanced():
    assert weak_intensity(P_DENSE, D_DENSE.delay_time_closed) == pytest.approx(2.25e8, rel=1e-12)


def test_intensity_half_maximum_offset():
    t0 = D_DICKE.delay_time_closed
    tau = D_DICKE.tau_c_closed
    off = tau * math.acosh(math.sqrt(2.0))
    half = D_DICKE.peak_intensity_pred / 2.0
    assert weak_intensity(P_DICKE, t0 + off) == pytest.approx(half, rel=1e-12)
    assert weak_intensity(P_DICKE, t0 - off) == pytest.approx(half, rel=1e-12)


def test_intensity_time_symmetric_exact_offsets():
    # an offset for which t0 +/- delta stays exactly representable gives
    # exact equality (the implementation depends on |t - t0| only)
    t0 = D_DENSE.delay_time_closed
    assert weak_intensity(P_DENSE, 2.0 * t0) == weak_intensity(P_DENSE, 0.0)


@given(delta=st.floats(min_value=1e-8, max_value=1e-2))
def test_intensity_time_symmetric_about_delay(delta):
    # general offsets pick up one rounding in forming t0 +/- delta, so
    # equality is asserted at the ulp level
    t0 = D_DENSE.delay_time_closed
    a = weak_intensity(P_DENSE, t0 + delta)
    b = weak_intensity(P_DENSE, t0 - delta)
    assert a == pytest.approx(b, rel=1e-12)


@given(g1=st.floats(min_value=0.0, max_value=1e4), dg=st.floats(min_value=1e-2, max_value=1e4))
def test_alpha_monotonically_sharpens_the_pulse(g1, dg):
    p1 = SampleParams(10_000, 1e6, g1)
    p2 = SampleParams(10_000, 1e6, g1 + dg)
    d1, d2 = derive_params(p1), derive_params(p2)
    assert d2.tau_c_closed < d1.tau_c_closed
    assert d2.delay_time_closed < d1.delay_time_closed
    assert d2.peak_intensity_pred > d1.peak_intensity_pred


def test_energy_intensity_identity_finite_differences():
    # I/(gamma*omega0) = -N d(eps/omega0)/d(gamma t), checked within 1e-6
    # around the pulse where both sides are appreciable
    p = P_DENSE
    d = derive_params(p)
    t0, tau = d.delay_time_closed, d.tau_c_closed
    h = tau / 2000.0
    t = np.linspace(t0 - 3 * tau, t0 + 3 * tau, 1201)
    lhs = weak_intensity(p, t)
    rhs = -p.n_atoms * (weak_energy(p, t + h) - weak_energy(p, t - h)) / (2 * h)
    assert np.max(np.abs(lhs - rhs) / lhs) < 1e-6


def test_closed_form_refuses_a_strong_config():
    with pytest.raises(ParameterDomainError, match="^regime: "):
        sample_weak_solution(resolve(P_DENSE))


def test_closed_form_refuses_another_start_angle():
    # the closed form starts at the default angle; a config built with
    # another theta is refused by the name parse_config gives it
    cfg = resolve(P_DICKE, t_end=1e-4)
    with pytest.raises(ParameterDomainError, match="^theta0: "):
        sample_weak_solution(replace(cfg, init=BlochState(1.0, cfg.init.phi)))


# --- ODE validation path ------------------------------------------------

def test_ode_matches_rate_consistent_closed_form():
    # the ODE uses the (N-1) pair rate; against the sech solution with that
    # same rate the only difference left is integrator error
    p = P_DICKE
    n = p.n_atoms
    t0 = derive_params(p).delay_time_closed
    traj = integrate_weak_ode(resolve(p, t_end=2.0 * t0))
    rate = (n - 1) * 1.0 / 2.0  # (N-1) * gamma_eff / 2 at alpha = 0
    u0 = math.log(math.tan(traj.theta[0] / 2.0))
    expected = 1.0 / np.cosh(u0 + rate * traj.t)
    assert np.max(np.abs(np.sin(traj.theta) - expected) / expected) < 1e-8


def test_ode_matches_standard_closed_form_to_order_one_over_n():
    # the standard tau_c uses N where the pair rate has N-1, so agreement
    # degrades like Gamma*t/2 ~ ln(N)/N over the window; assert within
    # that envelope
    p = P_DICKE
    d = derive_params(p)
    t0, tau = d.delay_time_closed, d.tau_c_closed
    traj = integrate_weak_ode(resolve(p, t_end=2.0 * t0))
    expected = 1.0 / np.cosh((traj.t - t0) / tau)
    rel = np.abs(np.sin(traj.theta) - expected) / expected
    bound = 2.5 * math.log(p.n_atoms) / p.n_atoms
    assert np.max(rel) < bound
    assert np.max(rel) > bound / 50.0  # the mismatch is real, not integrator noise


def test_ode_pole_is_a_fixed_point():
    cfg = replace(resolve(P_DICKE, t_end=1e-3), init=BlochState(0.0, math.pi / 2))
    traj = integrate_weak_ode(cfg)
    assert np.all(traj.theta == 0.0)


def test_two_atom_ode_is_logistic_in_half_angle():
    # N = 2: d(theta)/dt = (Gamma/2) sin(theta) separates to
    # tan(theta/2) = tan(theta0/2) exp(Gamma t / 2)
    p = SampleParams(2, 1e2, 0.0)
    theta0 = 0.2
    traj = integrate_weak_ode(replace(resolve(p, t_end=10.0), init=BlochState(theta0, math.pi / 2)))
    u0 = math.log(math.tan(theta0 / 2.0))
    expected = 1.0 / np.cosh(u0 + 0.5 * traj.t)
    assert np.max(np.abs(np.sin(traj.theta) - expected)) < 1e-9


def test_ode_phase_advances_at_effective_frequency():
    t_end = 1e-5
    traj = integrate_weak_ode(resolve(P_DICKE, t_end=t_end))
    assert traj.phi[-1] - traj.phi[0] == pytest.approx(1e6 * t_end, rel=1e-9)
