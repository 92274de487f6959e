"""Pulse-train analysis of emission records.

find_superpulses(): local maxima with a prominence filter, plus per-pulse
FWHM from linear interpolation to the half-height crossings.
envelope(): piecewise-linear upper envelope through the superpulse peaks.
compute_metrics(): envelope statistics and measured/predicted ratios
against the scaling-law predictions.

The envelope characteristic time is defined by converting the envelope
FWHM with the sech^2 factor 2*acosh(sqrt(2)), which makes single-pulse and
comb signals comparable under one definition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rk
from .bloch import OutputGrid
from .errors import EmptyAnalysisError, ParameterDomainError
from .params import DerivedParams

# FWHM of sech^2 is 2*acosh(sqrt(2)) times its time constant
SECH2_FWHM_FACTOR = 2.0 * math.acosh(math.sqrt(2.0))

# reject resampling ripple without suppressing genuine comb teeth
PROMINENCE_FRACTION = 1e-3


@dataclass(frozen=True)
class Superpulse:
    t_peak: float
    height: float
    fwhm: float


@dataclass(frozen=True)
class PulseMetrics:
    peak_intensity_scaled: float
    delay_time: float               # gamma*t of the envelope maximum
    envelope_fwhm: float
    tau_c_measured: float           # envelope FWHM / (2*acosh(sqrt 2))
    tau_1_measured: float           # median FWHM of the half-height superpulses
    pulse_count_half_height: int
    predictions: DerivedParams
    ratios: dict[str, float]        # measured/predicted per metric


def _times(t):
    """t as a float array; an OutputGrid stays one and is read by row and by block."""
    return t if isinstance(t, OutputGrid) else np.asarray(t, dtype=float)


def _as_arrays(t, y):
    """t and y checked to be a non-empty record on a uniform time grid, y as a float array."""
    t = _times(t)
    y = np.asarray(y, dtype=float)
    if t.ndim != 1 or t.shape != y.shape:
        raise ParameterDomainError(
            "y", f"must be a 1-D record of the shape of t; got t {t.shape}, y {y.shape}"
        )
    n = len(t)
    if n == 0:
        raise EmptyAnalysisError("no emission records to analyse")
    if not (math.isfinite(t[0]) and math.isfinite(t[-1])):
        raise ParameterDomainError("t", "must be finite and strictly increasing")
    if n >= 2:
        # spacing extremes block by block: no full-length diff is formed
        lows, highs = [], []
        for lo in range(0, n - 1, rk._BLOCK):
            dt = np.diff(t[lo:lo + rk._BLOCK + 1])
            lows.append(dt.min())
            highs.append(dt.max())
        low, high = np.min(lows), np.max(highs)
        # a NaN spacing makes low NaN; finite ends and positive steps bound every sample
        if not low > 0:
            raise ParameterDomainError("t", "must be finite and strictly increasing")
        if high - low > 1e-6 * (t[-1] - t[0]) / (n - 1):
            raise ParameterDomainError("t", "must be a uniform time grid")
    return t, y


def _local_maxima(y: np.ndarray) -> np.ndarray:
    """Strict-left, non-strict-right three-point maxima (plateau keeps first), block by block."""
    found = [np.empty(0, dtype=np.intp)]
    for lo in range(1, len(y) - 1, rk._BLOCK):
        hi = min(lo + rk._BLOCK, len(y) - 1)
        mid = y[lo:hi]
        found.append(np.flatnonzero((mid > y[lo - 1:hi - 1]) & (mid >= y[lo + 1:hi + 1])) + lo)
    return np.concatenate(found)


def _prominences(y: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Prominence of each peak over the maxima/valley skeleton.

    A peak's base on each side is the lowest valley out to the nearest
    strictly higher peak (or the record's end).  Two monotone-stack passes
    find it in O(k): each stack entry carries the running minimum of the
    valleys it has absorbed.  Only min and max touch the values, so the
    result is exact.
    """
    heights = y[peaks].tolist()
    # valleys[i] lies between peaks i-1 and i; valleys[0] and valleys[k] are
    # the boundary segments.  A reduceat segment stops one short of the next
    # peak, which is higher than its left neighbour and so never the minimum.
    valleys = [float(y[: peaks[0] + 1].min()), *np.minimum.reduceat(y, peaks).tolist()]
    k = len(heights)
    base_left = _bases(heights, valleys[:k], range(k))
    base_right = _bases(heights, valleys[1:], range(k - 1, -1, -1))
    return y[peaks] - np.maximum(base_left, base_right)


def _bases(heights: list, valleys: list, order: range) -> np.ndarray:
    """Per peak, the lowest valley between it and the nearest strictly
    higher peak on one side.

    order walks the peaks away from that side; valleys[i] is the valley
    next to peak i on that side.
    """
    base = np.empty(len(heights))
    stack: list[tuple[float, float]] = []  # (height, lowest valley absorbed)
    for i in order:
        low = valleys[i]
        while stack and stack[-1][0] <= heights[i]:
            low = min(low, stack.pop()[1])
        base[i] = low
        stack.append((heights[i], low))
    return base


def _half_crossing(t, y, i_from, i_to, half):
    """Linear interpolation of the half crossing scanning i_from -> i_to."""
    step = 1 if i_to >= i_from else -1
    prev = i_from
    for j in range(i_from + step, i_to + step, step):
        if y[j] <= half:
            f = (y[prev] - half) / (y[prev] - y[j])
            return t[prev] + f * (t[j] - t[prev])
        prev = j
    return t[i_to]  # never crossed inside the segment; clamp at its end


def _pulse_fwhm(t, y, peak_idx, left_bound, right_bound):
    half = y[peak_idx] / 2.0
    tl = _half_crossing(t, y, peak_idx, left_bound, half)
    tr = _half_crossing(t, y, peak_idx, right_bound, half)
    return tr - tl


def find_superpulses(t, y) -> list[Superpulse]:
    """Detect individual pulses in the intensity y on the uniform time grid t.

    Local maxima are kept when their prominence is at least
    PROMINENCE_FRACTION of the global maximum, which is always a pulse.
    Raises EmptyAnalysisError for an all-zero signal and
    ParameterDomainError for a NaN or infinite maximum or a negative sample.
    """
    t, y = _as_arrays(t, y)
    gmax = y.max()
    if not math.isfinite(gmax):
        raise ParameterDomainError("y", f"must be finite; its maximum is {gmax}")
    gmin = y.min()
    if gmin < 0.0:
        raise ParameterDomainError("y", f"must be non-negative; its minimum is {gmin}")
    if gmax <= 0.0:
        raise EmptyAnalysisError(
            "emission record is identically zero: nothing to analyse (the intensity"
            " underflows to 0 at every sample, as in a window too short to leave a start"
            " near a pole)"
        )

    idx = _local_maxima(y)
    if len(idx):
        idx = idx[_prominences(y, idx) >= PROMINENCE_FRACTION * gmax]
    # the global maximum always counts, also on the record's boundary, where
    # it is no local maximum, or when its prominence falls short
    idx = np.union1d(idx, [int(np.argmax(y))])

    pulses = []
    for pos, i in enumerate(idx):
        lb = idx[pos - 1] if pos > 0 else 0
        rb = idx[pos + 1] if pos + 1 < len(idx) else len(y) - 1
        pulses.append(
            Superpulse(
                t_peak=float(t[i]),
                height=float(y[i]),
                fwhm=float(_pulse_fwhm(t, y, int(i), int(lb), int(rb))),
            )
        )
    return pulses


def envelope(t, y, pulses: list[Superpulse]) -> tuple[np.ndarray, np.ndarray]:
    """Upper envelope of the record (t, y) as (times, values) nodes.

    Piecewise-linear through the superpulses find_superpulses(t, y) found;
    a single-pulse signal is its own envelope, so the raw record is
    returned in that case.
    """
    if len(pulses) <= 1:
        return _times(t), np.asarray(y, dtype=float)
    return (
        np.array([p.t_peak for p in pulses]),
        np.array([p.height for p in pulses]),
    )


def compute_metrics(t, intensity, d: DerivedParams) -> PulseMetrics:
    """Measure the pulse-train statistics of the record (t, intensity) and
    compare them with the predictions."""
    pulses = find_superpulses(t, intensity)
    et, ev = envelope(t, intensity, pulses)
    env_max = float(ev.max())
    imax = int(np.argmax(ev))
    delay = float(et[imax])
    env_fwhm = float(_pulse_fwhm(et, ev, imax, 0, len(ev) - 1))
    tau_c_meas = env_fwhm / SECH2_FWHM_FACTOR

    at_half = [p for p in pulses if p.height >= 0.5 * env_max]
    count = len(at_half)
    tau_1_meas = float(np.median([p.fwhm for p in at_half]))

    ratios = {
        "tau_c": tau_c_meas / d.tau_c_pred,
        "tau_1": tau_1_meas / d.tau_1_pred,
        "pulse_count": count / d.pulse_count_pred,
        "peak_intensity": env_max / d.peak_intensity_pred,
        "delay_time": delay / d.delay_time_pred,
    }
    return PulseMetrics(
        peak_intensity_scaled=env_max,
        delay_time=delay,
        envelope_fwhm=env_fwhm,
        tau_c_measured=tau_c_meas,
        tau_1_measured=tau_1_meas,
        pulse_count_half_height=count,
        predictions=d,
        ratios=ratios,
    )
