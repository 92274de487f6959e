import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from superpulse import (
    EmptyAnalysisError,
    ParameterDomainError,
    SampleParams,
    characteristic_time,
    compute_metrics,
    delay_time,
    derive_params,
    emission_arrays,
    envelope,
    find_superpulses,
    sample_weak_solution,
)
from superpulse.pulses import SECH2_FWHM_FACTOR


def sech2(x):
    return 1.0 / np.cosh(x) ** 2


def single_pulse(tau=0.1, t0=1.0, t_end=2.0, n=20001, amp=3.0):
    t = np.linspace(0.0, t_end, n)
    return t, amp * sech2((t - t0) / tau)


def comb(tau_env=1e-3, omega=1e5, t0=5e-3, t_end=1e-2, n=200001, amp=2.0):
    t = np.linspace(0.0, t_end, n)
    return t, amp * sech2((t - t0) / tau_env) * np.sin(omega * t) ** 2


def test_single_sech2_pulse_fwhm():
    tau = 0.1
    t, y = single_pulse(tau=tau)
    pulses = find_superpulses((t, y))
    assert len(pulses) == 1
    assert pulses[0].t_peak == pytest.approx(1.0, abs=1e-4)
    assert pulses[0].fwhm == pytest.approx(SECH2_FWHM_FACTOR * tau, rel=1e-2)
    # sampled finely enough, the crossing interpolation is much better than 1%
    assert pulses[0].fwhm == pytest.approx(SECH2_FWHM_FACTOR * tau, rel=1e-5)


def test_single_pulse_envelope_is_the_signal():
    t, y = single_pulse()
    et, ev = envelope((t, y))
    assert np.array_equal(et, t)
    assert np.array_equal(ev, y)


def test_comb_teeth_spacing_and_count():
    tau_env, omega, t0 = 1e-3, 1e5, 5e-3
    t, y = comb(tau_env=tau_env, omega=omega, t0=t0)
    pulses = find_superpulses((t, y))
    spacing = np.median(np.diff([p.t_peak for p in pulses]))
    assert spacing == pytest.approx(math.pi / omega, rel=1e-3)
    # ground truth: teeth at sin^2 = 1 whose envelope value clears half height
    teeth = np.arange(math.pi / 2, omega * t[-1], math.pi) / omega
    expected = int(np.sum(sech2((teeth - t0) / tau_env) >= 0.5))
    d = derive_params(SampleParams(100, 1e4, 0.0))  # predictions irrelevant here
    metrics = compute_metrics((t, y), d)
    assert metrics.pulse_count_half_height == expected
    assert metrics.envelope_fwhm == pytest.approx(SECH2_FWHM_FACTOR * tau_env, rel=2e-2)
    assert metrics.tau_c_measured == pytest.approx(tau_env, rel=2e-2)
    assert metrics.delay_time == pytest.approx(t0, abs=math.pi / omega)
    assert metrics.envelope_fwhm >= metrics.tau_1_measured
    assert metrics.pulse_count_half_height >= 1


def test_comb_tooth_width_is_quarter_period():
    # sin^2 teeth have FWHM = pi/(2 omega)
    t, y = comb()
    pulses = find_superpulses((t, y))
    heights = np.array([p.height for p in pulses])
    big = heights >= 0.5 * heights.max()
    med = np.median([p.fwhm for p, b in zip(pulses, big) if b])
    assert med == pytest.approx(math.pi / (2 * 1e5), rel=1e-2)


@given(scale=st.floats(min_value=1e-6, max_value=1e6))
def test_count_invariant_under_intensity_rescaling(scale):
    t, y = comb(n=20001)
    d = derive_params(SampleParams(100, 1e4, 0.0))
    a = compute_metrics((t, y), d).pulse_count_half_height
    b = compute_metrics((t, y * scale), d).pulse_count_half_height
    assert a == b


def test_zero_signal_raises():
    t = np.linspace(0.0, 1.0, 101)
    with pytest.raises(EmptyAnalysisError):
        find_superpulses((t, np.zeros_like(t)))


def test_empty_records_raise():
    with pytest.raises(EmptyAnalysisError):
        find_superpulses((np.empty(0), np.empty(0)))


def test_non_uniform_grid_rejected():
    t = np.array([0.0, 0.1, 0.3, 0.35, 0.6])
    y = np.array([0.0, 1.0, 0.5, 2.0, 0.1])
    with pytest.raises(ParameterDomainError):
        find_superpulses((t, y))


def test_prominence_filter_rejects_ripple():
    t, y = single_pulse(n=50001)
    ripple = 1e-4 * y.max() * np.sin(2e4 * t) ** 2
    pulses = find_superpulses((t, y + ripple))
    assert len(pulses) == 1


def test_weak_run_delay_and_tau_c_recovered():
    # sech^2 ground truth: the measured envelope statistics reproduce the
    # closed-form characteristic and delay times
    p = SampleParams(10_000, 1e6, 0.0)
    traj = sample_weak_solution(p)
    t, energy, intensity = emission_arrays(traj)
    metrics = compute_metrics((t, energy, intensity), derive_params(p))
    t0 = delay_time(p)
    tau = characteristic_time(p)
    grid_h = t[1] - t[0]
    assert abs(metrics.delay_time - t0) <= grid_h
    assert 0.99 <= metrics.tau_c_measured / tau <= 1.01
    assert metrics.pulse_count_half_height == 1
    assert metrics.envelope_fwhm >= metrics.tau_1_measured


def test_ratios_cover_all_five_metrics():
    t, y = single_pulse(n=2001)
    d = derive_params(SampleParams(100, 1e4, 0.0))
    m = compute_metrics((t, y), d)
    assert set(m.ratios) == {"tau_c", "tau_1", "pulse_count", "peak_intensity", "delay_time"}
    assert m.ratios["peak_intensity"] == pytest.approx(
        m.peak_intensity_scaled / d.peak_intensity_pred
    )
