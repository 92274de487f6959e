import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpulse import (
    BlochState,
    IntegrationControl,
    IntegrationFailure,
    ParameterDomainError,
    Regime,
    SampleBudgetError,
    SampleParams,
    compute_metrics,
    default_initial_state,
    derive_params,
    emission_arrays,
    integrate_strong,
    resolve,
)
from superpulse import rk
from superpulse.bloch import fast_phase_max_step, output_grid
from superpulse.runner import PRESETS
from superpulse.strong import _make_rhs
from twins import cartesian_state, integrate_cartesian, make_cartesian_rhs

P_FIG1 = SampleParams(10_000, 1e6, 1e2)
P_FIG2 = SampleParams(10_000, 1e5, 1e2)   # same physics, ~20x cheaper window
P_FIG6 = SampleParams(10_000, 1e6, 0.0)
D_FIG1 = derive_params(P_FIG1)
RHS_FIG1 = _make_rhs(D_FIG1)


def test_rhs_at_equator_with_full_emission_channel():
    # sin(theta) = sin(phi)^2 = 1 and sin(2 phi) = 0
    dth, dph = RHS_FIG1(0.0, math.pi / 2, math.pi / 2)
    assert dth == pytest.approx(1.49985e4, rel=1e-12)
    assert dph == pytest.approx(3e6, rel=1e-12)


def test_rhs_pole_is_fixed_point_of_theta():
    for phi in (0.0, 0.3, 2.0, math.pi):
        dth, _ = RHS_FIG1(0.0, 0.0, phi)
        assert dth == 0.0


def test_rhs_at_quarter_angles():
    # frozen from a 40-digit evaluation of the right-hand side:
    # (N-1)(Gamma/2) sin(pi/4) sin^2(pi/4) and
    # Omega - (N-1)(Gamma/4) cos(pi/4) sin(pi/2)
    dth, dph = RHS_FIG1(0.0, math.pi / 4, math.pi / 4)
    assert dth == pytest.approx(5302.7705288132165, rel=1e-13)
    assert dph == pytest.approx(2994697.2294711866, rel=1e-13)


def test_zero_window_returns_single_initial_sample():
    init = default_initial_state(P_FIG1)
    traj = integrate_strong(resolve(P_FIG1, t_end=0.0))
    assert len(traj) == 1
    assert traj.t[0] == 0.0
    assert traj.theta[0] == init.theta
    assert traj.phi[0] == init.phi
    # the initial point is the only natural step
    res = rk.solve(RHS_FIG1, (init.theta, init.phi), np.zeros(1), 1e-9, 1e-12, 1e-6)
    assert list(res.step_times) == [0.0]
    assert [list(v) for v in res.step_values] == [[init.theta], [init.phi]]


def test_samples_start_at_zero_and_increase():
    traj = integrate_strong(resolve(P_FIG2))
    assert traj.t[0] == 0.0
    assert np.all(np.diff(traj.t) > 0)


def test_theta_never_decreases():
    # monotone up to integrator tolerance (the dense-output quartic can
    # wiggle at the solution-error level where d(theta)/dt ~ 0)
    traj = integrate_strong(resolve(P_FIG2))
    tol = 10 * IntegrationControl().rtol * math.pi
    assert np.all(np.diff(traj.theta) >= -tol)


def test_theta_spans_the_sphere():
    # the window is sized to cover the whole emission envelope
    traj = integrate_strong(resolve(P_FIG2))
    assert traj.theta[0] < 1e-3
    assert traj.theta[-1] > math.pi - 0.1


def test_deterministic_reruns_bit_identical():
    a = integrate_strong(resolve(P_FIG2))
    b = integrate_strong(resolve(P_FIG2))
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.phi, b.phi)
    assert a.stats == b.stats


def test_self_convergence_under_tighter_tolerance():
    base = integrate_strong(resolve(P_FIG1))
    tight = integrate_strong(
        replace(resolve(P_FIG1), integration=IntegrationControl(rtol=1e-11, atol=1e-14))
    )
    eps_base = (1 + D_FIG1.alpha) / 2 * np.cos(base.theta)
    eps_tight = (1 + D_FIG1.alpha) / 2 * np.cos(tight.theta)
    scale = np.abs(eps_tight).max()
    assert np.max(np.abs(eps_base - eps_tight)) < 1e-6 * scale


def test_solve_records_natural_steps():
    # angle and cartesian flows on the grid and step cap integrate_strong uses
    d = derive_params(P_FIG2)
    init = default_initial_state(P_FIG2)
    ctrl = IntegrationControl()
    grid = output_grid(1e-4, d, ctrl)
    for rhs, y0 in (
        (_make_rhs(d), (init.theta, init.phi)),
        (make_cartesian_rhs(d), cartesian_state(init)),
    ):
        res = rk.solve(rhs, y0, grid, ctrl.rtol, ctrl.atol, fast_phase_max_step(d, ctrl))
        n = res.n_accepted + 1
        assert n > 10
        assert len(res.step_times) == n
        assert [len(v) for v in res.step_values] == [n] * len(y0)
        assert res.step_times[0] == 0.0
        assert res.step_times[-1] == grid[-1]
        assert np.all(np.diff(res.step_times) > 0)


def test_dense_output_depends_only_on_the_step_sequence():
    # the step controller never looks at the grid, so refining the grid
    # leaves every shared sample bit-identical
    grid = np.linspace(0.0, 1e-4, 201)
    fine = np.sort(np.concatenate([grid, (grid[:-1] + grid[1:]) / 2.0]))
    args = (RHS_FIG1, (0.1, 0.3))
    coarse_res = rk.solve(*args, grid, 1e-9, 1e-12, 1e-6)
    fine_res = rk.solve(*args, fine, 1e-9, 1e-12, 1e-6)
    assert np.array_equal(fine[::2], grid)
    for a, b in zip(coarse_res.grid_values, fine_res.grid_values):
        assert np.array_equal(a, b[::2])
    assert np.array_equal(coarse_res.step_times, fine_res.step_times)
    assert coarse_res.n_accepted == fine_res.n_accepted > 10


def _dense_path_values():
    """Grid values of the angle and cartesian fills, the observables and a zero window."""
    angles = integrate_strong(resolve(P_FIG2, t_end=2e-5))
    cart = integrate_cartesian(resolve(P_FIG2, t_end=2e-5))
    zero = integrate_strong(resolve(P_FIG2, t_end=0.0))
    return [angles.theta, angles.phi, *emission_arrays(angles), cart.theta, cart.phi,
            zero.theta, zero.phi, *emission_arrays(zero)]


@pytest.mark.parametrize("block", [7, 1])
def test_dense_fill_is_blockwise_invariant(monkeypatch, block):
    default = _dense_path_values()
    assert len(default[0]) > 50 * block
    monkeypatch.setattr(rk, "_BLOCK", block)
    for a, b in zip(default, _dense_path_values(), strict=True):
        assert np.array_equal(_bits(a), _bits(b))


def test_dense_path_peak_memory_is_the_columns_and_a_few_blocks():
    # fig5 keeps 1.01M samples: the five output columns (t, theta, phi,
    # energy, intensity) set the peak, not full-length temporaries
    p = PRESETS["fig5"]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        traj = integrate_strong(resolve(p))
        t, energy, intensity = emission_arrays(traj)
        compute_metrics(t, intensity, derive_params(p))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(t) > 10**6
    assert peak <= 5 * 8 * len(t) + 4 * 2**20


def test_weak_like_config_refused():
    for regime in (Regime.WEAK, Regime.DICKE_LIMIT):
        cfg = resolve(SampleParams(10_000, 1e6, 0.0, regime=regime))
        with pytest.raises(ParameterDomainError, match="^regime: "):
            integrate_strong(cfg)


def test_sample_budget_guard():
    with pytest.raises(SampleBudgetError):
        integrate_strong(replace(resolve(P_FIG1), integration=IntegrationControl(max_samples=1000)))


@pytest.mark.parametrize(
    "cls, field",
    [(IntegrationControl, f) for f in ("rtol", "atol", "max_samples", "max_step")]
    + [(BlochState, f) for f in ("theta", "phi")]
    + [(output_grid, "t_end")],
)
def test_integers_beyond_float_range_are_spelled_short(cls, field):
    kwargs = {BlochState: {"theta": 0.5, "phi": 0.0},
              output_grid: {"d": D_FIG1, "ctrl": IntegrationControl()}}.get(cls, {})
    with pytest.raises(ParameterDomainError, match=f"^{field}: ") as exc:
        cls(**{**kwargs, field: 10**400})
    # the value is spelled short, not as its 401 digits
    assert "1.00e+400" in str(exc.value) and len(str(exc.value)) < 120


def test_step_budget_stops_a_stiff_window():
    # at N = 1e9 the decaying polar mode near theta = pi holds explicit steps
    # near 1/(N gamma), far below the 20-sample grid's spacing
    p = SampleParams(10**9, 1e4, 10.0)
    with pytest.raises(IntegrationFailure, match="step budget of 1000 "):
        integrate_strong(
            replace(resolve(p, t_end=1e-10), integration=IntegrationControl(max_samples=1000))
        )


def test_step_size_underflow_raises_with_last_state():
    # a NaN-producing right-hand side can never satisfy the error test
    def bad(t, x):
        return (math.nan,)

    with pytest.raises(IntegrationFailure) as exc:
        rk.solve(bad, (1.0,), np.linspace(0, 1, 11), 1e-9, 1e-12, 0.1)
    assert exc.value.t == 0.0
    assert exc.value.state == (1.0,)


def plain_dp5_step(rhs, t, h, y, f, atol, rtol):
    """One step attempt straight from the tableau, every sum accumulated
    left to right from 0.0 in an explicit loop."""
    ndim = len(y)
    k = [tuple(f)]

    def combo(coefs, i):
        acc = 0.0
        for j, c in enumerate(coefs):
            acc = acc + c * k[j][i]
        return acc

    for s in range(1, 6):
        ys = [y[i] + h * combo(rk._A[s], i) for i in range(ndim)]
        k.append(tuple(rhs(t + rk._C[s] * h, *ys)))
    z = tuple(y[i] + h * combo(rk._B, i) for i in range(ndim))
    k.append(tuple(rhs(t + h, *z)))
    err = 0.0
    for i in range(ndim):
        r = h * combo(rk._E, i) / (atol + rtol * max(abs(y[i]), abs(z[i])))
        err = err + r * r
    return z, [v for stage in k for v in stage], math.sqrt(err / ndim)


def _bits(values):
    return np.array(values, dtype=float).view(np.int64)


@settings(max_examples=200, deadline=None)
@given(
    cartesian=st.booleans(),
    angles=st.tuples(st.floats(0.0, math.pi), st.floats(-10.0, 10.0)),
    t=st.floats(0.0, 1e-2),
    h=st.floats(1e-12, 1e-5),
)
def test_generated_step_matches_the_plain_tableau_loop(cartesian, angles, t, h):
    theta, phi = angles
    if cartesian:
        rhs = make_cartesian_rhs(D_FIG1)
        y = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
    else:
        rhs, y = RHS_FIG1, (theta, phi)
    f = rhs(t, *y)
    got = rk._step_kernel(len(y))(rhs, t, h, y, f, 1e-12, 1e-9)
    want = plain_dp5_step(rhs, t, h, y, f, 1e-12, 1e-9)
    for a, b in zip(got, want):  # z, the seven stages, the error
        assert np.array_equal(_bits(a), _bits(b))


# --- cartesian diagnostic twin -------------------------------------------

def test_cartesian_matches_angle_formulation():
    # dual-formulation oracle: identical flow in different variables; run
    # tight so formulation differences, not step error, would dominate
    ctrl = IntegrationControl(rtol=1e-11, atol=1e-14)
    ang = integrate_strong(replace(resolve(P_FIG6), integration=ctrl))
    cart = integrate_cartesian(replace(resolve(P_FIG6), integration=ctrl))
    d = derive_params(P_FIG6)
    eps_a = (1 + d.alpha) / 2 * np.cos(ang.theta)
    eps_c = (1 + d.alpha) / 2 * np.cos(cart.theta)
    scale = np.abs(eps_a).max()
    assert np.max(np.abs(eps_a - eps_c)) < 1e-6 * scale


def test_cartesian_norm_drift_small_at_tight_tolerance():
    ctrl = IntegrationControl(rtol=1e-11, atol=1e-14)
    traj = integrate_cartesian(replace(resolve(P_FIG1), integration=ctrl))
    assert traj.stats.norm_drift is not None
    assert traj.stats.norm_drift <= 1e-8


def test_cartesian_pole_stays_put():
    cfg = replace(resolve(P_FIG2, t_end=1e-4), init=BlochState(0.0, math.pi / 2))
    traj = integrate_cartesian(cfg)
    assert np.max(traj.theta) < 1e-12


def test_cartesian_phase_on_requested_branch():
    traj = integrate_cartesian(resolve(P_FIG2, t_end=1e-5))
    assert traj.phi[0] == pytest.approx(math.pi / 2, abs=1e-9)
    assert np.all(np.diff(traj.phi) > 0)  # phase accumulates, no wrapping
