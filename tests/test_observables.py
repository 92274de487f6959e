import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from superpulse import (
    BlochTrajectory,
    IntegratorStats,
    Regime,
    SampleParams,
    derive_params,
    emission_arrays,
    find_superpulses,
    integrate_strong,
    resolve,
    sample_weak_solution,
    weak_energy,
    weak_intensity,
)

P_DENSE = SampleParams(10_000, 1e6, 1e2)
D_DENSE = derive_params(P_DENSE)
P_DICKE = SampleParams(10_000, 1e6, 0.0, regime=Regime.DICKE_LIMIT)


def strong_trajectory(theta, phi, p=P_DENSE) -> BlochTrajectory:
    """A strong-regime trajectory holding the given angle samples."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return BlochTrajectory.of_arrays(
        p,
        t=np.zeros(len(theta)),
        theta=theta,
        phi=np.broadcast_to(np.asarray(phi, dtype=float), theta.shape),
        stats=IntegratorStats(0, 0, 0.0),
    )


def energy_at(theta, phi, p=P_DENSE):
    return emission_arrays(strong_trajectory(theta, phi, p))[1][0]


def intensity_at(theta, phi, p=P_DENSE):
    return emission_arrays(strong_trajectory(theta, phi, p))[2][0]


def test_energy_fully_excited():
    assert energy_at(0.0, 0.0) == 1.5


def test_energy_equator_zero():
    assert energy_at(math.pi / 2, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_energy_ground_state():
    p = SampleParams(10_000, 1e6, 0.0)
    assert energy_at(math.pi, 0.0, p) == pytest.approx(-0.5, rel=1e-15)


def test_intensity_maximal_configuration():
    assert intensity_at(math.pi / 2, math.pi / 2) == pytest.approx(
        0.25 * 1e4 * 9999 * 9, rel=1e-14
    )


def test_intensity_vanishes_on_the_zero_set():
    assert intensity_at(1.0, 0.0) == 0.0
    assert intensity_at(0.0, 1.0) == 0.0
    # sin(pi) is one ulp away from zero in floats
    assert intensity_at(1.0, math.pi) < 1e-20


angles = st.floats(min_value=0.0, max_value=math.pi)
phases = st.floats(min_value=-50.0, max_value=50.0)


@given(theta=angles, phi=phases)
def test_intensity_nonnegative_and_bounded(theta, phi):
    val = intensity_at(theta, phi)
    assert val >= 0.0
    assert val <= D_DENSE.peak_intensity_pred * (1.0 + 1e-9)


@given(theta=angles)
def test_energy_bounded_by_half_enhancement(theta):
    val = energy_at(theta, 0.0)
    assert abs(val) <= (1.0 + D_DENSE.alpha) / 2.0


def test_weak_trajectory_emission_single_sech_pulse():
    # Dicke-limit run: single pulse peaking at the delay time near (N/2)^2
    traj = sample_weak_solution(resolve(P_DICKE))
    t, energy, intensity = emission_arrays(traj)
    ipk = int(np.argmax(intensity))
    t0 = derive_params(P_DICKE).delay_time_closed
    dt = t[1] - t[0]
    assert abs(t[ipk] - t0) <= dt
    assert intensity[ipk] == pytest.approx(2.5e7, rel=1e-6)
    assert np.all(intensity >= 0.0)
    pulses = find_superpulses(t, intensity)
    assert len(pulses) == 1


def test_weak_emission_arrays_match_closed_forms():
    traj = sample_weak_solution(resolve(P_DICKE, t_end=1e-4))
    t, energy, intensity = emission_arrays(traj)
    assert len(traj) == len(t)
    assert t[7] == traj.t[7]
    assert energy[7] == weak_energy(P_DICKE, t[7])
    assert intensity[7] == weak_intensity(P_DICKE, t[7])


def test_zero_length_trajectory_gives_empty_arrays():
    t, energy, intensity = emission_arrays(strong_trajectory(np.empty(0), np.empty(0)))
    assert len(t) == len(energy) == len(intensity) == 0


def test_strong_peaks_sit_where_the_phase_channel_opens():
    # intensity maxima of the comb coincide with |sin(phi)| ~ 1 and are
    # spaced by half a phase period, pi/omega_eff
    p = SampleParams(10_000, 1e5, 1e2)
    d = derive_params(p)
    traj = integrate_strong(resolve(p))
    t, energy, intensity = emission_arrays(traj)
    pulses = find_superpulses(t, intensity)
    big = [q for q in pulses if q.height >= 0.1 * max(q.height for q in pulses)]
    phi_at_peaks = np.interp([q.t_peak for q in big], t, traj.phi)
    assert np.min(np.abs(np.sin(phi_at_peaks))) > 0.99
    spacing = np.median(np.diff([q.t_peak for q in pulses]))
    assert spacing == pytest.approx(math.pi / d.omega_eff, rel=1e-2)


def test_weak_energy_intensity_consistency_on_grid():
    # finite differences of the sampled energy reproduce the intensity
    traj = sample_weak_solution(resolve(P_DICKE))
    t, energy, intensity = emission_arrays(traj)
    mid = intensity >= 0.25 * intensity.max()
    didt = -P_DICKE.n_atoms * np.gradient(energy, t)
    rel = np.abs(didt[mid] - intensity[mid]) / intensity[mid]
    assert np.max(rel) < 1e-3


def test_strong_energy_intensity_consistency_near_peaks():
    # I = -N d(eps)/dt holds on the comb; fourth-order differences keep the
    # truncation error of the fast phase below the 1e-3 budget
    p = SampleParams(10_000, 1e5, 1e2)
    traj = integrate_strong(resolve(p))
    t, energy, intensity = emission_arrays(traj)
    h = t[1] - t[0]
    n = p.n_atoms
    didt = np.full_like(energy, np.nan)
    didt[2:-2] = -n * (
        -energy[4:] + 8 * energy[3:-1] - 8 * energy[1:-3] + energy[:-4]
    ) / (12 * h)
    sel = np.zeros(len(t), dtype=bool)
    sel[2:-2] = intensity[2:-2] >= 0.5 * np.nanmax(intensity)
    rel = np.abs(didt[sel] - intensity[sel]) / intensity[sel]
    assert np.max(rel) < 1e-3
