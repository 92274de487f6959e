import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from twins import ladder_rows

from superpulse import ParameterDomainError, StepSizeError, cascade_rates, evolve_ladder, ladder


def test_cascade_rates_endpoints():
    g = cascade_rates(10)
    assert g[0] == 10.0          # top rung decays at N
    assert g[-1] == 0.0          # bottom rung is absorbing
    assert g.max() == 30.0       # (J+M)(J-M+1) peaks mid-ladder


def test_fully_excited_state():
    # all population starts on M = J, so only the top rung's rate N counts,
    # and by the default window it has all reached M = -J
    run = evolve_ladder(10, 1.0)
    assert run.mean_m[0] == 5.0
    assert run.intensity[0] == 10.0
    assert run.final_populations[-1] == pytest.approx(1.0, abs=1e-12)


def test_interval_propagator_matches_plain_rk4_steps():
    # m classical RK4 steps of size h per output interval, h = interval/m at
    # no more than half the positivity bound, stepped one by one
    n, gamma_eff, t_end, n_out = 10, 1.37, 2.0, 21
    run = evolve_ladder(n, gamma_eff, t_end, n_out=n_out)
    g = cascade_rates(n)
    interval = t_end / (n_out - 1)
    m = math.ceil(interval * gamma_eff * g.max() / 0.05)
    h = interval / m

    def flow(p):
        flux = gamma_eff * g * p
        return np.concatenate(([0.0], flux[:-1])) - flux

    m_values = n / 2.0 - np.arange(n + 1)
    p = np.zeros(n + 1)
    p[0] = 1.0
    for i in range(1, n_out):
        for _ in range(m):
            k1 = flow(p)
            k2 = flow(p + 0.5 * h * k1)
            k3 = flow(p + 0.5 * h * k2)
            k4 = flow(p + h * k3)
            p = p + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert abs(run.mean_m[i] - p @ m_values) < 1e-12 * n
        assert abs(run.intensity[i] - gamma_eff * (p @ g)) < 1e-12 * gamma_eff * g.max()
    assert np.max(np.abs(run.final_populations - p)) < 1e-12


@pytest.mark.parametrize(
    "n, t_end, n_out",
    [(n, t_end, 2001) for n in (2, 10, 100) for t_end in (None, 1e6)]
    + [(n, None, n_out) for n in (2, 10, 100) for n_out in (2, 3, 21)],
)
def test_blocks_match_row_by_row_loop(n, t_end, n_out):
    run = evolve_ladder(n, 1.3, t_end, n_out=n_out, omega_ratio=0.7)
    pops, mean_m, intensity = ladder_rows(run)
    for got, want in ((run.mean_m, mean_m), (run.intensity, intensity),
                      (run.final_populations, pops[-1])):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_population_drift_raises(monkeypatch):
    # a propagator that gains 1e-9 per interval must trip the 1e-10 drift check
    exact = ladder.interval_propagator
    monkeypatch.setattr(ladder, "interval_propagator",
                        lambda *args: (1.0 + 1e-9) * exact(*args))
    with pytest.raises(StepSizeError, match=r"^population drift 1\.000e-09 exceeds 1e-10$"):
        evolve_ladder(10, 1.0)


def test_populations_held_in_two_blocks():
    # 2001 rows of 51 populations would be 816 kB; two blocks of 44 rows are 36 kB
    evolve_ladder(50, 1.0)  # warm numpy's caches outside the trace
    tracemalloc.start()
    try:
        evolve_ladder(50, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400_000


def test_long_window_costs_no_more_steps():
    start = time.perf_counter()
    run = evolve_ladder(100, 1.0, 1e6)
    assert time.perf_counter() - start < 1.0
    assert run.mean_m[0] - run.mean_m[-1] == pytest.approx(100.0, rel=1e-12)


def test_two_atom_cascade_closed_form():
    # N=2 three-level cascade: P1 = e^{-2Gt}, P0 = 2Gt e^{-2Gt}, so
    # <M>(t) = 2(1 + G t) e^{-2 G t} - 1 (hand integration)
    run = evolve_ladder(2, 1.0, 1.0, n_out=11)
    for t, m in zip(run.t, run.mean_m):
        expected = 2.0 * (1.0 + t) * math.exp(-2.0 * t) - 1.0
        assert m == pytest.approx(expected, abs=2e-7)


def test_two_atom_rate_scaling():
    # doubling Gamma_eff is a pure time rescaling
    a = evolve_ladder(2, 1.0, 1.0, n_out=6)
    b = evolve_ladder(2, 2.0, 0.5, n_out=6)
    assert b.mean_m == pytest.approx(a.mean_m, abs=1e-9)


def test_probability_conserved_throughout():
    # evolve_ladder checks every row's total and returns only the last row;
    # a unit total keeps <M> within [-J, J] throughout
    run = evolve_ladder(10, 1.0, 5.0, n_out=201)
    assert abs(run.final_populations.sum() - 1.0) < 1e-10
    assert np.max(np.abs(run.mean_m)) <= 5.0 + 1e-12


def test_mean_m_strictly_decreasing_until_absorbed():
    run = evolve_ladder(10, 1.0, 5.0, n_out=201)
    dm = np.diff(run.mean_m)
    active = run.mean_m[:-1] > -4.999
    assert np.all(dm[active] < 0.0)


def test_all_quanta_emitted():
    run = evolve_ladder(10, 1.0, 8.0, n_out=101)
    assert run.mean_m[0] - run.mean_m[-1] == pytest.approx(10.0, rel=1e-8)


def test_initial_intensity_counts_top_rate():
    assert evolve_ladder(10, 1.0, omega_ratio=1.0).intensity[0] == 10.0
    assert evolve_ladder(10, 3.0, omega_ratio=3.0).intensity[0] == 90.0


def test_time_integrated_intensity_counts_all_quanta():
    # energy bookkeeping: integral of the scaled intensity equals
    # omega_ratio * N once the cascade has fully decayed
    for gamma_eff, omega_ratio in ((1.0, 1.0), (3.0, 3.0)):
        run = evolve_ladder(10, gamma_eff, 8.0 / gamma_eff, n_out=4001,
                            omega_ratio=omega_ratio)
        integral = np.trapezoid(run.intensity, run.t)
        assert integral == pytest.approx(omega_ratio * 10.0, rel=1e-3)


def test_exact_peak_rate_close_to_mean_field():
    # the exact N=10 cascade peaks within a factor 2 of the mean-field
    # (N/2)^2 peak emission rate
    run = evolve_ladder(10, 1.0, 3.0, n_out=3001)
    peak = run.intensity.max()
    mean_field_peak = (10 / 2) ** 2
    assert mean_field_peak / 2 <= peak <= mean_field_peak * 2


def test_oracle_n_cap():
    for n in (1, 2_001, 10_001, 10.5, math.nan):
        with pytest.raises(ParameterDomainError, match="^n_atoms: "):
            evolve_ladder(n, 1.0)


@pytest.mark.parametrize("field", ["gamma_eff", "t_end", "omega_ratio", "n_atoms", "n_out"])
def test_integers_beyond_float_range_rejected(field):
    kwargs = {"n_atoms": 10, "gamma_eff": 1.0, field: 10**400}
    with pytest.raises(ParameterDomainError, match=f"^{field}: ") as exc:
        evolve_ladder(**kwargs)
    # the value is spelled short, not as its 401 digits
    assert "1.00e+400" in str(exc.value) and len(str(exc.value)) < 120


def test_huge_integer_overflows_as_its_float():
    # the scaled-intensity check multiplies floats, not unbounded ints
    messages = set()
    for gamma_eff, omega_ratio in [(10**300, 10**10), (1e300, 1e10)]:
        with pytest.raises(ParameterDomainError, match="^omega_ratio: .* overflows") as exc:
            evolve_ladder(10, gamma_eff, omega_ratio=omega_ratio)
        messages.add(str(exc.value))
    assert len(messages) == 1


def test_oracle_integral_float_n_runs_like_the_int():
    for a, b in [(evolve_ladder(10.0, 1.0, n_out=11), evolve_ladder(10, 1.0, n_out=11)),
                 (evolve_ladder(10, 1.0, n_out=2001.0), evolve_ladder(10, 1.0, n_out=2001)),
                 (evolve_ladder(10, 1.0, t_end=10**300), evolve_ladder(10, 1.0, t_end=1e300))]:
        for name in ("t", "final_populations", "mean_m", "intensity"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("n_out", [2.5, math.nan, math.inf])
def test_n_out_must_be_an_integer(n_out):
    with pytest.raises(ParameterDomainError, match="^n_out: must be an integer"):
        evolve_ladder(10, 1.0, n_out=n_out)


@given(
    n=st.integers(min_value=2, max_value=40),
    gamma_eff=st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=25, deadline=None)
def test_conservation_for_random_rates(n, gamma_eff):
    t_end = 4.0 / (n * gamma_eff) * math.log(max(n, 3)) + 1.0 / gamma_eff
    run = evolve_ladder(n, gamma_eff, t_end, n_out=21)
    assert abs(run.final_populations.sum() - 1.0) < 1e-10
    assert run.final_populations.min() >= 0.0
