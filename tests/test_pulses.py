import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpulse import (
    EmptyAnalysisError,
    ParameterDomainError,
    Regime,
    SampleParams,
    compute_metrics,
    derive_params,
    emission_arrays,
    envelope,
    find_superpulses,
    integrate_strong,
    resolve,
    sample_weak_solution,
)
from superpulse import rk
from superpulse.bloch import OutputGrid
from superpulse.pulses import SECH2_FWHM_FACTOR, _local_maxima, _prominences


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
    pulses = find_superpulses(t, y)
    assert len(pulses) == 1
    assert pulses[0].t_peak == pytest.approx(1.0, abs=1e-4)
    assert pulses[0].fwhm == pytest.approx(SECH2_FWHM_FACTOR * tau, rel=1e-2)
    # sampled finely enough, the crossing interpolation is much better than 1%
    assert pulses[0].fwhm == pytest.approx(SECH2_FWHM_FACTOR * tau, rel=1e-5)


def test_single_pulse_envelope_is_the_signal():
    t, y = single_pulse()
    et, ev = envelope(t, y, find_superpulses(t, y))
    assert np.array_equal(et, t)
    assert np.array_equal(ev, y)


def test_comb_teeth_spacing_and_count():
    tau_env, omega, t0 = 1e-3, 1e5, 5e-3
    t, y = comb(tau_env=tau_env, omega=omega, t0=t0)
    pulses = find_superpulses(t, y)
    spacing = np.median(np.diff([p.t_peak for p in pulses]))
    assert spacing == pytest.approx(math.pi / omega, rel=1e-3)
    # ground truth: teeth at sin^2 = 1 whose envelope value clears half height
    teeth = np.arange(math.pi / 2, omega * t[-1], math.pi) / omega
    expected = int(np.sum(sech2((teeth - t0) / tau_env) >= 0.5))
    d = derive_params(SampleParams(100, 1e4, 0.0))  # predictions irrelevant here
    metrics = compute_metrics(t, y, d)
    assert metrics.pulse_count_half_height == expected
    assert metrics.envelope_fwhm == pytest.approx(SECH2_FWHM_FACTOR * tau_env, rel=2e-2)
    assert metrics.tau_c_measured == pytest.approx(tau_env, rel=2e-2)
    assert metrics.delay_time == pytest.approx(t0, abs=math.pi / omega)
    assert metrics.envelope_fwhm >= metrics.tau_1_measured
    assert metrics.pulse_count_half_height >= 1


def test_comb_tooth_width_is_quarter_period():
    # sin^2 teeth have FWHM = pi/(2 omega)
    t, y = comb()
    pulses = find_superpulses(t, y)
    heights = np.array([p.height for p in pulses])
    big = heights >= 0.5 * heights.max()
    med = np.median([p.fwhm for p, b in zip(pulses, big) if b])
    assert med == pytest.approx(math.pi / (2 * 1e5), rel=1e-2)


@given(scale=st.floats(min_value=1e-6, max_value=1e6))
def test_count_invariant_under_intensity_rescaling(scale):
    t, y = comb(n=20001)
    d = derive_params(SampleParams(100, 1e4, 0.0))
    a = compute_metrics(t, y, d).pulse_count_half_height
    b = compute_metrics(t, y * scale, d).pulse_count_half_height
    assert a == b


def test_zero_signal_raises():
    t = np.linspace(0.0, 1.0, 101)
    with pytest.raises(EmptyAnalysisError):
        find_superpulses(t, np.zeros_like(t))


def test_empty_records_raise():
    with pytest.raises(EmptyAnalysisError):
        find_superpulses(np.empty(0), np.empty(0))


def test_non_uniform_grid_rejected():
    t = np.array([0.0, 0.1, 0.3, 0.35, 0.6])
    y = np.array([0.0, 1.0, 0.5, 2.0, 0.1])
    with pytest.raises(ParameterDomainError):
        find_superpulses(t, y)


@pytest.mark.parametrize("t, y", [
    ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 0.0]),       # t longer than y
    ([0.0, 1.0, 2.0], [0.0, 1.0, 0.0, 2.0, 0.0]),       # t shorter than y
    ([[0.0, 1.0, 2.0]], [[0.0, 1.0, 0.0]]),             # not 1-D
])
def test_mismatched_record_rejected(t, y):
    with pytest.raises(ParameterDomainError, match="1-D record of the shape of t"):
        find_superpulses(t, y)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_record_rejected(bad):
    t = np.linspace(0.0, 1.0, 5)
    y = np.array([0.0, 1.0, bad, 1.0, 0.0])
    with pytest.raises(ParameterDomainError, match="must be finite") as exc:
        find_superpulses(t, y)
    assert "identically zero" not in str(exc.value)


@pytest.mark.parametrize("bad", [-math.inf, -1e-300])
def test_negative_sample_rejected(bad):
    # a negative sample would act as a bottomless valley between the pulses
    t = np.linspace(0.0, 1.0, 7)
    y = np.array([0.0, 1.0, bad, 1.0, 0.0, 0.5, 0.0])
    with pytest.raises(ParameterDomainError, match="must be non-negative") as exc:
        find_superpulses(t, y)
    assert "identically zero" not in str(exc.value)


def test_negative_zero_sample_accepted():
    t = np.linspace(0.0, 1.0, 7)
    y = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 0.5, 0.0])
    assert find_superpulses(t, np.where(y == 0.0, -0.0, y)) == find_superpulses(t, y)


@pytest.mark.parametrize(
    "moved", [4 * rk._BLOCK - 1, 4 * rk._BLOCK, 4 * rk._BLOCK + 1, 8 * rk._BLOCK + 4]
)
def test_non_uniform_grid_past_the_first_block_rejected(moved):
    # the spacing is checked block by block; a bad spacing in any block,
    # also across a block boundary or in the partial last one, is refused
    t = np.linspace(0.0, 1.0, 8 * rk._BLOCK + 5)
    t[moved] += 1e-3 * (t[1] - t[0])
    with pytest.raises(ParameterDomainError, match="uniform time grid"):
        find_superpulses(t, np.ones_like(t))


@pytest.mark.parametrize("t", [[5.0, 0.0], [0.0, 0.0], [0.0, math.nan, 2.0], [0.0, math.inf],
                               [0.0, 1.0, math.inf], [math.nan]])
def test_non_increasing_or_non_finite_grid_rejected(t):
    # two samples are enough to be out of order; a NaN time spaces nothing
    with pytest.raises(ParameterDomainError, match="^t: must be finite and strictly increasing"):
        find_superpulses(t, np.ones(len(t)))


def test_all_zero_record_names_underflow():
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(EmptyAnalysisError, match="identically zero") as exc:
        find_superpulses(t, np.zeros_like(t))
    assert "underflows" in str(exc.value)
    assert "never emits" not in str(exc.value)


@pytest.mark.parametrize("regime", [Regime.DICKE_LIMIT, Regime.STRONG])
def test_analysis_on_the_output_grid_is_the_analysis_on_its_array(regime):
    # one pulse (the envelope is the record) and a comb of them
    p = SampleParams(10_000, 1e6, 0.0, regime=regime)
    cfg = resolve(p, t_end=2e-4 if regime is Regime.STRONG else None)
    traj = (sample_weak_solution if regime is Regime.DICKE_LIMIT else integrate_strong)(cfg)
    assert isinstance(traj.grid, OutputGrid)
    intensity = emission_arrays(traj)[2]
    d = derive_params(p)
    metrics = compute_metrics(traj.grid, intensity, d)
    assert metrics == compute_metrics(traj.t, intensity, d)
    assert (metrics.pulse_count_half_height > 1) == (regime is Regime.STRONG)
    pulses = find_superpulses(traj.grid, intensity)
    assert pulses == find_superpulses(traj.t, intensity)
    if len(pulses) == 1:
        assert envelope(traj.grid, intensity, pulses)[0] is traj.grid


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_boundary_peak_counts_as_a_pulse():
    # the global maximum is the last sample, so no local maximum: it still
    # counts, and the record's metrics stay finite
    t = np.linspace(0.0, 4e-6, 5)
    y = np.array([0.0, 1.0, 0.0, 0.5, 3.0])
    pulses = find_superpulses(t, y)
    assert [p.t_peak for p in pulses] == [t[1], t[4]]
    m = compute_metrics(t, y, derive_params(SampleParams(10_000, 1e6, 1e2)))
    assert m.peak_intensity_scaled == 3.0
    assert m.delay_time == t[4]
    assert m.pulse_count_half_height == 1
    assert m.tau_1_measured == pytest.approx(0.6 * (t[1] - t[0]))
    assert all(math.isfinite(v) for v in m.ratios.values())


def test_prominence_filter_rejects_ripple():
    t, y = single_pulse(n=50001)
    ripple = 1e-4 * y.max() * np.sin(2e4 * t) ** 2
    pulses = find_superpulses(t, y + ripple)
    assert len(pulses) == 1


@pytest.mark.parametrize("ripple", [0.0, 1e-4], ids=["monotone", "sub-threshold-ripple"])
def test_ramp_is_one_pulse_at_the_global_maximum(ripple):
    # no local maximum, or only ripple maxima below the prominence cut: the
    # global maximum is the single pulse
    t = np.linspace(0.0, 1.0, 200001)
    y = t + ripple * np.sin(2e4 * t) ** 2
    assert (len(_local_maxima(y)) > 1000) == (ripple > 0)
    pulses = find_superpulses(t, y)
    assert len(pulses) == 1
    assert pulses[0].t_peak == t[np.argmax(y)]
    assert pulses[0].height == y.max()


def test_weak_run_delay_and_tau_c_recovered():
    # sech^2 ground truth: the measured envelope statistics reproduce the
    # closed-form characteristic and delay times
    p = SampleParams(10_000, 1e6, 0.0, regime=Regime.DICKE_LIMIT)
    traj = sample_weak_solution(resolve(p))
    t, energy, intensity = emission_arrays(traj)
    d = derive_params(p)
    metrics = compute_metrics(t, intensity, d)
    t0, tau = d.delay_time_closed, d.tau_c_closed
    grid_h = t[1] - t[0]
    assert abs(metrics.delay_time - t0) <= grid_h
    assert 0.99 <= metrics.tau_c_measured / tau <= 1.01
    assert metrics.pulse_count_half_height == 1
    assert metrics.envelope_fwhm >= metrics.tau_1_measured


def test_ratios_cover_all_five_metrics():
    t, y = single_pulse(n=2001)
    d = derive_params(SampleParams(100, 1e4, 0.0))
    m = compute_metrics(t, y, d)
    assert set(m.ratios) == {"tau_c", "tau_1", "pulse_count", "peak_intensity", "delay_time"}
    assert m.ratios["peak_intensity"] == pytest.approx(
        m.peak_intensity_scaled / d.peak_intensity_pred
    )


# --- prominences against the quadratic reference -------------------------

def prominences_reference(y, peaks):
    """The direct O(k^2) walk: from each peak, out to the nearest strictly
    higher peak on each side, taking the lowest valley on the way."""
    k = len(peaks)
    heights = y[peaks]
    valleys = np.empty(k + 1)
    valleys[0] = y[: peaks[0] + 1].min()
    for i in range(k - 1):
        valleys[i + 1] = y[peaks[i]: peaks[i + 1] + 1].min()
    valleys[k] = y[peaks[-1]:].min()

    prom = np.empty(k)
    for i in range(k):
        base_left = valleys[i]
        j = i - 1
        while j >= 0 and heights[j] <= heights[i]:
            base_left = min(base_left, valleys[j])
            j -= 1
        base_right = valleys[i + 1]
        j = i + 1
        while j < k and heights[j] <= heights[i]:
            base_right = min(base_right, valleys[j + 1])
            j += 1
        prom[i] = heights[i] - max(base_left, base_right)
    return prom


_levels = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def skeleton_signals(draw):
    """Random samples, samples drawn from a few levels (long plateaus and
    tied peaks), or runs that each rise or fall monotonically."""
    kind = draw(st.sampled_from(["random", "plateau", "monotone"]))
    if kind == "random":
        return np.array(draw(st.lists(_levels, min_size=3, max_size=200)))
    if kind == "plateau":
        levels = draw(st.lists(_levels, min_size=1, max_size=4))
        picks = draw(st.lists(st.integers(0, len(levels) - 1), min_size=3, max_size=200))
        return np.array([levels[i] for i in picks])
    runs = []
    for start, step, length in draw(
        st.lists(st.tuples(_levels, _levels, st.integers(1, 30)), min_size=1, max_size=12)
    ):
        runs.append(start + step * np.arange(length))
    return np.concatenate(runs)


@settings(max_examples=300, deadline=None)
@given(y=skeleton_signals())
def test_prominences_match_the_quadratic_reference(y):
    peaks = _local_maxima(y)
    if len(peaks):
        assert np.array_equal(_prominences(y, peaks), prominences_reference(y, peaks))


def test_prominences_match_the_reference_on_a_comb():
    t, y = comb(n=20001)
    y = y + 1e-4 * np.sin(3e6 * t) ** 2  # resampling-like ripple between the teeth
    peaks = _local_maxima(y)
    assert len(peaks) > 100
    assert np.array_equal(_prominences(y, peaks), prominences_reference(y, peaks))


@pytest.mark.filterwarnings("ignore:some peaks have a prominence of 0")
@settings(max_examples=100, deadline=None)
@given(y=skeleton_signals())
def test_prominences_match_scipy(y):
    signal = pytest.importorskip("scipy.signal")
    peaks = _local_maxima(y)
    if len(peaks):
        assert np.array_equal(_prominences(y, peaks), signal.peak_prominences(y, peaks)[0])
