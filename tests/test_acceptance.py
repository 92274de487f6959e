"""Acceptance suite.

One test per criterion; each prints its sub-check details and a final
"criterion N: PASS/FAIL" line, then asserts that every sub-check held at
its stated tolerance.  Expensive preset pipelines are computed once and
shared across criteria.
"""
import functools
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from superpulse import (
    IntegrationControl,
    Regime,
    SampleParams,
    characteristic_time,
    compute_metrics,
    delay_time,
    derive_params,
    emission_arrays,
    evolve_ladder,
    integrate_cartesian,
    integrate_strong,
    peak_intensity,
    sample_weak_solution,
    weak_intensity,
)
from superpulse.pulses import SECH2_FWHM_FACTOR
from superpulse.runner import PRESETS


@dataclass
class Pipeline:
    name: str
    params: SampleParams
    elapsed: float
    traj: object
    t: np.ndarray
    energy: np.ndarray
    intensity: np.ndarray
    metrics: object


@functools.lru_cache(maxsize=None)
def pipeline(name: str) -> Pipeline:
    p = PRESETS[name]
    d = derive_params(p)
    start = time.perf_counter()
    if p.regime.is_weak_like():
        traj = sample_weak_solution(p)
    else:
        traj = integrate_strong(p)
    t, energy, intensity = emission_arrays(traj)
    metrics = compute_metrics(t, intensity, d)
    elapsed = time.perf_counter() - start
    return Pipeline(name, p, elapsed, traj, t, energy, intensity, metrics)


def finish(criterion: str, checks: list[tuple[str, bool, str]]):
    for label, ok, detail in checks:
        print(f"  [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    ok_all = all(ok for _, ok, _ in checks)
    print(f"{criterion}: {'PASS' if ok_all else 'FAIL'}")
    failing = [label for label, ok, _ in checks if not ok]
    assert ok_all, f"{criterion} failed sub-checks: {failing}"


def within_factor(measured: float, reference: float, factor: float) -> bool:
    return reference / factor <= measured <= reference * factor


def test_criterion_1_dicke_recovery():
    print("\ncriterion 1 [Dicke recovery, fig7 preset]")
    pl = pipeline("fig7")
    p = pl.params
    closed_peak = weak_intensity(p, delay_time(p))
    tau_c = characteristic_time(p)
    fwhm_expected = SECH2_FWHM_FACTOR * tau_c
    checks = [
        (
            "closed-form peak = (N/2)^2 = 2.5e7 within 1e-9",
            abs(closed_peak / 2.5e7 - 1.0) < 1e-9,
            f"{closed_peak:.12g}",
        ),
        (
            "sampled pulse FWHM = 1.7627 tau_c within 1%",
            abs(pl.metrics.envelope_fwhm / fwhm_expected - 1.0) < 0.01,
            f"{pl.metrics.envelope_fwhm:.6g} vs {fwhm_expected:.6g}",
        ),
        ("runtime < 1 s", pl.elapsed < 1.0, f"{pl.elapsed:.3f} s"),
    ]
    finish("criterion 1", checks)


def test_criterion_2_weak_coupling_enhancement():
    print("\ncriterion 2 [weak-coupling enhancement]")
    start = time.perf_counter()
    # strong-regime parameters deliberately run through the weak pipeline
    p = SampleParams(10_000, 1e6, 1e2, regime=Regime.WEAK)
    closed_peak = weak_intensity(p, delay_time(p))
    tau_c = characteristic_time(p)
    traj = sample_weak_solution(p)
    t, energy, intensity = emission_arrays(traj)
    sampled_peak = intensity.max()
    elapsed = time.perf_counter() - start
    checks = [
        (
            "closed-form peak = 2.25e8 within 1e-9",
            abs(closed_peak / 2.25e8 - 1.0) < 1e-9,
            f"{closed_peak:.12g}",
        ),
        (
            "gamma tau_c = 2/3e4 = 6.667e-5 within 1e-9",
            abs(tau_c / (2.0 / 3e4) - 1.0) < 1e-9,
            f"{tau_c:.12g}",
        ),
        (
            "sampled peak agrees with closed form (grid resolution)",
            abs(sampled_peak / closed_peak - 1.0) < 1e-6,
            f"{sampled_peak:.10g}",
        ),
        ("runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f} s"),
    ]
    finish("criterion 2", checks)


def test_criterion_3_fig1_reproduction():
    print("\ncriterion 3 [fig1 strong-coupling comb]")
    pl = pipeline("fig1")
    m = pl.metrics
    d = derive_params(pl.params)
    checks = [
        (
            "comb present (>= 5 half-height superpulses)",
            m.pulse_count_half_height >= 5,
            f"count = {m.pulse_count_half_height}",
        ),
        (
            "half-height superpulse count in [50, 200] (prediction 1e2)",
            50 <= m.pulse_count_half_height <= 200,
            f"count = {m.pulse_count_half_height}",
        ),
        (
            "envelope gamma tau_c within factor 3 of 3.33e-5",
            within_factor(m.tau_c_measured, d.tau_c_pred, 3.0),
            f"{m.tau_c_measured:.4g} (ratio {m.ratios['tau_c']:.3f})",
        ),
        (
            "median superpulse gamma tau_1 within factor 3 of 3.33e-7",
            within_factor(m.tau_1_measured, d.tau_1_pred, 3.0),
            f"{m.tau_1_measured:.4g} (ratio {m.ratios['tau_1']:.3f})",
        ),
        (
            "envelope peak within factor 2 of 2.25e8",
            within_factor(m.peak_intensity_scaled, d.peak_intensity_pred, 2.0),
            f"{m.peak_intensity_scaled:.6g} (ratio {m.ratios['peak_intensity']:.4f})",
        ),
        (
            "delay within factor 2 of tau_c ln N = 3.07e-4",
            within_factor(m.delay_time, d.delay_time_pred, 2.0),
            f"{m.delay_time:.4g} (ratio {m.ratios['delay_time']:.3f})",
        ),
        ("runtime < 30 s", pl.elapsed < 30.0, f"{pl.elapsed:.2f} s"),
    ]
    finish("criterion 3", checks)


def test_criterion_4_parameter_trends():
    print("\ncriterion 4 [fig2-fig5 trends]")
    pl1 = pipeline("fig1")
    pl2 = pipeline("fig2")
    pl3 = pipeline("fig3")
    pl4 = pipeline("fig4")
    pl5 = pipeline("fig5")
    c1 = pl1.metrics.pulse_count_half_height
    c3 = pl3.metrics.pulse_count_half_height
    shrink_tau_c = pl1.metrics.tau_c_measured / pl3.metrics.tau_c_measured
    shrink_tau_1 = pl1.metrics.tau_1_measured / pl3.metrics.tau_1_measured
    checks = [
        (
            "fig2 count ~ 10 (accept 5-20)",
            5 <= pl2.metrics.pulse_count_half_height <= 20,
            f"count = {pl2.metrics.pulse_count_half_height}",
        ),
        (
            "fig3 count stays ~ 1e2 (order of magnitude)",
            32 <= c3 <= 316,
            f"count = {c3}",
        ),
        (
            "fig3 count unchanged from fig1 (same omega0/(N gamma))",
            abs(c3 - c1) <= max(2, 0.1 * c1),
            f"fig3 {c3} vs fig1 {c1}",
        ),
        (
            "fig3 timescales shrunk ~10x vs fig1",
            5.0 <= shrink_tau_c <= 20.0 and 5.0 <= shrink_tau_1 <= 20.0,
            f"tau_c x{shrink_tau_c:.2f}, tau_1 x{shrink_tau_1:.2f}",
        ),
        (
            "fig4 count ~ 1-3",
            1 <= pl4.metrics.pulse_count_half_height <= 3,
            f"count = {pl4.metrics.pulse_count_half_height}",
        ),
        (
            "fig5 single deformed pulse (count = 1)",
            pl5.metrics.pulse_count_half_height == 1,
            f"count = {pl5.metrics.pulse_count_half_height}",
        ),
        (
            "runtime < 60 s each",
            all(pl.elapsed < 60.0 for pl in (pl2, pl3, pl4, pl5)),
            ", ".join(f"{pl.name} {pl.elapsed:.2f} s" for pl in (pl2, pl3, pl4, pl5)),
        ),
    ]
    finish("criterion 4", checks)


def test_criterion_5_superpulse_origin():
    print("\ncriterion 5 [superpulse origin, g = 0]")
    pl6 = pipeline("fig6")
    pl7 = pipeline("fig7")
    pl8 = pipeline("fig8")
    checks = [
        (
            "fig6 (g=0, strong) exhibits a comb",
            pl6.metrics.pulse_count_half_height >= 5,
            f"count = {pl6.metrics.pulse_count_half_height}",
        ),
        (
            "fig7 (g=0, weak) does not",
            pl7.metrics.pulse_count_half_height == 1,
            f"count = {pl7.metrics.pulse_count_half_height}",
        ),
        (
            "fig8 (N gamma/omega0 = 10) single deformed pulse",
            pl8.metrics.pulse_count_half_height == 1,
            f"count = {pl8.metrics.pulse_count_half_height}",
        ),
        (
            "runtime < 30 s each",
            all(pl.elapsed < 30.0 for pl in (pl6, pl7, pl8)),
            ", ".join(f"{pl.name} {pl.elapsed:.2f} s" for pl in (pl6, pl7, pl8)),
        ),
    ]
    finish("criterion 5", checks)


def test_criterion_6_numerical_invariants():
    print("\ncriterion 6 [numerical invariants, fig1]")
    pl = pipeline("fig1")
    p = pl.params
    d = derive_params(p)
    ctrl = IntegrationControl()

    monotone_tol = 10 * ctrl.rtol * math.pi
    monotone = bool(np.all(np.diff(pl.traj.theta) >= -monotone_tol))
    worst = float(np.diff(pl.traj.theta).min())

    # I = -N d(eps)/dt via fourth-order central differences near the peaks
    t, energy, intensity = pl.t, pl.energy, pl.intensity
    h = t[1] - t[0]
    didt = np.full_like(energy, np.nan)
    didt[2:-2] = -p.n_atoms * (
        -energy[4:] + 8 * energy[3:-1] - 8 * energy[1:-3] + energy[:-4]
    ) / (12 * h)
    sel = np.zeros(len(t), dtype=bool)
    sel[2:-2] = intensity[2:-2] >= 0.5 * np.nanmax(intensity)
    fd_rel = float(np.max(np.abs(didt[sel] - intensity[sel]) / intensity[sel]))

    halved = integrate_strong(p, ctrl=IntegrationControl(rtol=5e-10, atol=5e-13))
    tight = integrate_strong(p, ctrl=IntegrationControl(rtol=1e-11, atol=1e-14))
    enh = (1 + d.alpha) / 2
    eps_base = enh * np.cos(pl.traj.theta)
    scale = float(np.abs(enh * np.cos(tight.theta)).max())
    conv_half = float(np.max(np.abs(eps_base - enh * np.cos(halved.theta)))) / scale
    conv_tight = float(np.max(np.abs(eps_base - enh * np.cos(tight.theta)))) / scale

    cart = integrate_cartesian(p)
    drift = cart.stats.norm_drift

    rerun = integrate_strong(p)
    identical = bool(
        np.array_equal(pl.traj.theta, rerun.theta) and np.array_equal(pl.traj.phi, rerun.phi)
    )

    checks = [
        ("theta monotone up to integrator tolerance", monotone, f"min diff {worst:.2e}"),
        ("energy-intensity identity < 1e-3 near peaks", fd_rel < 1e-3, f"{fd_rel:.2e}"),
        (
            "self-convergence under tolerance halving (<= 1e-6 of scale)",
            conv_half < 1e-6,
            f"{conv_half:.2e}",
        ),
        (
            "self-convergence vs rtol 1e-11 (<= 1e-6 of scale)",
            conv_tight < 1e-6,
            f"{conv_tight:.2e}",
        ),
        ("cartesian norm drift < 1e-6", drift is not None and drift < 1e-6, f"{drift:.2e}"),
        ("bit-identical rerun", identical, "theta/phi arrays equal"),
    ]
    finish("criterion 6", checks)


def test_criterion_7_oracle_validation():
    print("\ncriterion 7 [exact cascade vs weak mean field, N = 10]")
    start = time.perf_counter()
    n = 10
    p = SampleParams(n, 1e6, 0.0)
    gamma_eff = derive_params(p).gamma_eff  # identical Gamma on both sides
    run = evolve_ladder(n, gamma_eff, 8.0, n_out=4001)
    elapsed = time.perf_counter() - start

    peak_time = float(run.t[int(np.argmax(run.intensity))])
    peak_rate = float(run.intensity.max())
    integral = float(np.trapezoid(run.intensity, run.t))
    t0 = delay_time(p)
    mf_peak = peak_intensity(p)
    omega_n = 1.0 * n  # (Omega/omega0) * N with alpha = 0
    checks = [
        (
            "peak emission time within factor 2 of tau_c ln N",
            within_factor(peak_time, t0, 2.0),
            f"{peak_time:.4f} vs {t0:.4f} (ratio {peak_time / t0:.3f})",
        ),
        (
            "peak rate within factor 2 of mean-field peak",
            within_factor(peak_rate, mf_peak, 2.0),
            f"{peak_rate:.3f} vs {mf_peak:.1f} (ratio {peak_rate / mf_peak:.3f})",
        ),
        (
            "integrated intensity = Omega N within 1e-3",
            abs(integral / omega_n - 1.0) < 1e-3,
            f"{integral:.6f} vs {omega_n:.1f}",
        ),
        ("runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f} s"),
    ]
    finish("criterion 7", checks)
