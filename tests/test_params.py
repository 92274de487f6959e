import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpulse import (
    ParameterDomainError,
    Regime,
    SampleParams,
    classify_regime,
    derive_params,
)


def test_fig1_collective_quantities():
    # N*gamma/omega0 = 1e-2 and alpha = 2 for the reference strong run
    d = derive_params(SampleParams(10_000, 1e6, 1e2))
    assert d.alpha == 2.0
    assert d.omega_eff == 3e6
    assert d.gamma_eff == 3.0
    assert d.coupling_strength_ratio == pytest.approx(1e-2, rel=1e-15)


def test_g_zero_collapses_enhancements():
    d = derive_params(SampleParams(10_000, 1e6, 0.0))
    assert d.alpha == 0.0
    assert d.omega_eff == 1e6
    assert d.gamma_eff == 1.0


def test_large_n_collective_quantities():
    # N = 1e6 at the same omega0 and g pushes the ratio to 1 and alpha to 2e2
    d = derive_params(SampleParams(1_000_000, 1e6, 1e2))
    assert d.alpha == pytest.approx(2e2, rel=1e-15)
    assert d.coupling_strength_ratio == pytest.approx(1.0, rel=1e-15)


def test_scaling_law_predictions_fig1():
    d = derive_params(SampleParams(10_000, 1e6, 1e2))
    assert d.tau_c_pred == pytest.approx(1.0 / 3e4, rel=1e-15)
    assert d.tau_1_pred == pytest.approx(1.0 / 3e6, rel=1e-15)
    assert d.pulse_count_pred == pytest.approx(100.0, rel=1e-15)
    assert d.peak_intensity_pred == pytest.approx(2.25e8, rel=1e-15)
    assert d.delay_time_pred == pytest.approx(math.log(1e4) / 3e4, rel=1e-15)


def test_classifier_boundary_is_strong():
    assert classify_regime(SampleParams(10_000, 1e6)) is Regime.STRONG
    assert classify_regime(SampleParams(100, 1e6)) is Regime.WEAK
    assert classify_regime(SampleParams(10_000_000, 1e6)) is Regime.STRONG


def test_regime_autoclassified_when_unset():
    assert SampleParams(10_000, 1e6).regime is Regime.STRONG
    assert SampleParams(100, 1e6).regime is Regime.WEAK


def test_regime_override_is_respected():
    # weak equations may deliberately be run at strong-regime parameters
    p = SampleParams(10_000, 1e6, 0.0, regime=Regime.WEAK)
    assert p.regime is Regime.WEAK


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(n_atoms=1, omega0=1e6), "n_atoms"),
        (dict(n_atoms=10**9 + 1, omega0=1e6), "n_atoms"),
        (dict(n_atoms=10.5, omega0=1e6), "n_atoms"),
        (dict(n_atoms=100, omega0=0.0), "omega0"),
        (dict(n_atoms=100, omega0=-1.0), "omega0"),
        (dict(n_atoms=100, omega0=1e6, g=-1.0), "g"),
        (dict(n_atoms=100, omega0=1e6, gamma=2.0), "gamma"),
        (dict(n_atoms=100, omega0=1e6, g=1.0, regime=Regime.DICKE_LIMIT), "regime"),
        (dict(n_atoms=100, omega0=1e6, g=math.nan), "g"),
        (dict(n_atoms=100, omega0=1e6, g=math.inf), "g"),
        (dict(n_atoms=100, omega0=math.inf), "omega0"),
        (dict(n_atoms=100, omega0=math.nan), "omega0"),
        (dict(n_atoms=math.inf, omega0=1e6), "n_atoms"),
        (dict(n_atoms=10**400, omega0=1e6), "n_atoms"),
        (dict(n_atoms=100, omega0=10**400), "omega0"),
        (dict(n_atoms=10_000, omega0=1e-310, g=1.0), "alpha"),
        (dict(n_atoms=100, omega0=1e6, g=10**400), "g"),
        (dict(n_atoms=100, omega0=1e6, gamma=10**400), "gamma"),
    ],
)
def test_invalid_params_name_the_field(kwargs, field):
    with pytest.raises(ParameterDomainError) as exc:
        SampleParams(**kwargs)
    assert exc.value.field == field
    # an integer beyond float range is spelled short, not as its 401 digits
    assert len(str(exc.value)) < 120


positive_n = st.integers(min_value=2, max_value=10**9)
frequencies = st.floats(min_value=1e-3, max_value=1e12)
couplings = st.floats(min_value=0.0, max_value=1e9)


@given(n=positive_n, omega0=frequencies, g=couplings)
def test_effective_quantities_share_the_enhancement(n, omega0, g):
    d = derive_params(SampleParams(n, omega0, g))
    assert d.omega_eff / omega0 == pytest.approx(1.0 + d.alpha, rel=1e-12)
    assert d.gamma_eff == pytest.approx(1.0 + d.alpha, rel=1e-12)


@given(
    n=positive_n,
    omega0=frequencies,
    g=st.floats(min_value=1e-6, max_value=1e6),
    scale=st.floats(min_value=1e-5, max_value=1e5),
)
def test_alpha_depends_only_on_the_ratio(n, omega0, g, scale):
    a1 = derive_params(SampleParams(n, omega0, g)).alpha
    a2 = derive_params(SampleParams(n, omega0 * scale, g * scale)).alpha
    assert a2 == pytest.approx(a1, rel=1e-12)


@given(n=positive_n, omega0=frequencies, g=couplings)
@settings(max_examples=200)
def test_count_times_tooth_width_is_envelope_width(n, omega0, g):
    d = derive_params(SampleParams(n, omega0, g))
    assert d.pulse_count_pred * d.tau_1_pred == pytest.approx(d.tau_c_pred, rel=1e-12)


@given(n=positive_n, omega0=frequencies, g=couplings)
def test_predictions_strictly_positive(n, omega0, g):
    d = derive_params(SampleParams(n, omega0, g))
    for value in (
        d.tau_c_pred,
        d.tau_1_pred,
        d.pulse_count_pred,
        d.peak_intensity_pred,
        d.delay_time_pred,
    ):
        assert value > 0.0
