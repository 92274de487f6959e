"""Adaptive embedded Runge-Kutta integration (Dormand-Prince 5(4) pair).

Seven stages with FSAL, fifth-order propagation, fourth-order error
estimate, PI step-size control.  The state is a small tuple of floats and
the right-hand side is called with unpacked components; this keeps the per
step cost low enough that desk-scale runs with millions of fast-phase
oscillations finish in seconds.

Accepted steps are resampled onto a caller-supplied output grid with the
pair's matched quartic dense-output polynomial, so interpolated values
carry the same accuracy as the step endpoints.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import IntegrationFailure

# Dormand-Prince 5(4) Butcher tableau
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
# b - bhat, applied to k1..k7 for the local error estimate
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# Shampine's quartic dense-output interpolant for the pair; keeps the
# resampled values at the accuracy of the solution itself
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)

_MAX_FACTOR = 5.0
_MIN_FACTOR = 0.2
_SAFETY = 0.9
# PI controller exponents (beta = 0.04, alpha = 1/5 - 0.75*beta)
_PI_ALPHA = 0.17
_PI_BETA = 0.04

_MAX_CONSECUTIVE_REJECTS = 64


@dataclass
class RKResult:
    grid_values: list[np.ndarray]   # one array per state component, on the grid
    n_accepted: int
    n_rejected: int
    max_error_ratio: float          # largest accepted scaled error (1.0 = at tolerance)
    step_times: np.ndarray | None = None
    step_values: list[np.ndarray] | None = None


def solve(
    rhs: Callable[..., tuple],
    y0: Sequence[float],
    t_end: float,
    grid: np.ndarray,
    rtol: float,
    atol: float,
    max_step: float,
    keep_steps: bool = False,
) -> RKResult:
    """Integrate dy/dt = rhs(t, *y) from t=0 to t_end over the given grid.

    grid must be sorted, start at 0 and end at t_end.  rhs receives the
    time followed by the unpacked state components and returns the
    derivative tuple.  keep_steps also returns every accepted step, led
    by the initial point.
    """
    ndim = len(y0)
    y = tuple(float(v) for v in y0)
    outs = [np.empty(len(grid)) for _ in range(ndim)]
    for i in range(ndim):
        outs[i][0] = y[i]
    if t_end == 0.0 or len(grid) == 1:
        if keep_steps:
            return RKResult(outs, 0, 0, 0.0, np.zeros(1), [np.array([v]) for v in y])
        return RKResult(outs, 0, 0, 0.0)

    t = 0.0
    f = rhs(t, *y)
    # conservative first step from the initial derivative magnitude
    d0 = max(max(abs(v) for v in y), 1e-8)
    d1 = max(max(abs(v) for v in f), 1e-8)
    h = min(max_step, 0.01 * d0 / d1, t_end)

    step_ts: list[float] = [0.0] if keep_steps else []
    step_ys: list[tuple] = [y] if keep_steps else []

    gi = 1
    n_acc = 0
    n_rej = 0
    rejects_in_a_row = 0
    err_prev = 1e-4
    max_err = 0.0
    eps = np.finfo(float).eps

    while t < t_end:
        final_step = h >= t_end - t
        if final_step:
            h = t_end - t
        if h < 16.0 * eps * max(abs(t), t_end):
            raise IntegrationFailure("step size underflow", t, y)

        k = [f]
        for s in range(1, 6):
            a = _A[s]
            ys = tuple(
                y[i] + h * sum(a[j] * k[j][i] for j in range(s)) for i in range(ndim)
            )
            k.append(rhs(t + _C[s] * h, *ys))
        z = tuple(
            y[i] + h * sum(_B[j] * k[j][i] for j in range(6)) for i in range(ndim)
        )
        k.append(rhs(t + h, *z))

        err = 0.0
        for i in range(ndim):
            e = h * sum(_E[j] * k[j][i] for j in range(7))
            sc = atol + rtol * max(abs(y[i]), abs(z[i]))
            r = e / sc
            err += r * r
        err = math.sqrt(err / ndim)

        if err <= 1.0:
            # land exactly on t_end; t + h can fall an ulp short of it
            t_new = t_end if final_step else t + h
            # fill grid points inside (t, t_new] with the dense-output quartic
            if gi < len(grid) and grid[gi] <= t_new:
                q = [
                    tuple(
                        sum(k[j][i] * _P[j][c] for j in range(7)) for c in range(4)
                    )
                    for i in range(ndim)
                ]
                while gi < len(grid) and grid[gi] <= t_new:
                    s = (grid[gi] - t) / h
                    for i in range(ndim):
                        q0, q1, q2, q3 = q[i]
                        outs[i][gi] = y[i] + h * s * (q0 + s * (q1 + s * (q2 + s * q3)))
                    gi += 1
            t = t_new
            y = z
            f = k[6]
            n_acc += 1
            rejects_in_a_row = 0
            if err > max_err:
                max_err = err
            if keep_steps:
                step_ts.append(t)
                step_ys.append(y)
            if err == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = _SAFETY * err ** -_PI_ALPHA * err_prev ** _PI_BETA
                factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            err_prev = max(err, 1e-4)
            h = min(h * factor, max_step)
        else:
            n_rej += 1
            rejects_in_a_row += 1
            if rejects_in_a_row > _MAX_CONSECUTIVE_REJECTS:
                raise IntegrationFailure("error estimate will not settle", t, y)
            if math.isfinite(err):
                h *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            else:
                h *= _MIN_FACTOR

    if gi != len(grid):
        # unreachable with the forced final step; kept as a safety net
        for i in range(ndim):
            outs[i][gi:] = outs[i][gi - 1]

    result = RKResult(outs, n_acc, n_rej, max_err)
    if keep_steps:
        result.step_times = np.array(step_ts)
        result.step_values = [np.array([sy[i] for sy in step_ys]) for i in range(ndim)]
    return result
