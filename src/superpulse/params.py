"""Physical parameters, derived collective quantities and regime classification.

All rates and frequencies are stored as dimensionless ratios to the atomic
decay rate gamma, and all times are measured as gamma*t.  This makes every
output directly plottable without unit bookkeeping.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

from .errors import ParameterDomainError

# Classifier threshold on N*gamma/omega0; the boundary itself counts as strong.
STRONG_COUPLING_THRESHOLD = 1e-2

# Keeps N*(N-1) products exactly representable after float promotion.
N_ATOMS_CAP = 10**9

# The weak-coupling closed form sin(theta) = sech((t - t0)/tau_c) runs on
# twice the paper's order-of-magnitude envelope time 1/((1+alpha) N) and
# delay ln(N)/((1+alpha) N).
CLOSED_FORM_FACTOR = 2.0


def is_finite(x) -> bool:
    """math.isfinite that also counts integers beyond float range as infinite."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def short_repr(x) -> str:
    """repr(x), but an integer beyond float range as 1.00e+400, not its hundreds of digits."""
    if isinstance(x, int) and not is_finite(x):
        from decimal import Decimal  # only on this error path: it adds 0.3 MiB to every run

        return f"{Decimal(x):.3g}"
    return repr(x)


def check_integer(name: str, x) -> int:
    """x as an int, or a ParameterDomainError naming the field if x is no finite integer."""
    if not (is_finite(x) and float(x).is_integer()):
        raise ParameterDomainError(name, f"must be an integer, got {short_repr(x)}")
    return int(x)


def check_finite(name: str, x, positive: bool = True) -> float:
    """x as a float, or a ParameterDomainError naming the field unless x is finite and > 0
    (>= 0 when not positive)."""
    if not (is_finite(x) and (x > 0 if positive else x >= 0)):
        bound = "positive" if positive else "non-negative"
        raise ParameterDomainError(name, f"must be finite and {bound}, got {short_repr(x)}")
    return float(x)


class Regime(Enum):
    STRONG = "strong"
    WEAK = "weak"
    DICKE_LIMIT = "dicke"

    def is_weak_like(self) -> bool:
        """The Dicke limit uses the weak-coupling machinery throughout."""
        return self in (Regime.WEAK, Regime.DICKE_LIMIT)


@dataclass(frozen=True)
class SampleParams:
    """Raw inputs describing the atomic sample.

    n_atoms : number of two-level atoms, N >= 2
    omega0  : transition frequency in units of gamma, > 0
    g       : pairwise dipole-dipole coupling in units of gamma, >= 0
    gamma   : the unit decay rate; fixed to 1 by convention
    regime  : sample-reservoir coupling regime; classified from
              N*gamma/omega0 when not given explicitly
    """

    n_atoms: int
    omega0: float
    g: float = 0.0
    gamma: float = 1.0
    regime: Regime | None = None

    def __post_init__(self):
        n = check_integer("n_atoms", self.n_atoms)
        object.__setattr__(self, "n_atoms", n)
        if n < 2:
            raise ParameterDomainError("n_atoms", f"need at least 2 atoms, got {n}")
        if n > N_ATOMS_CAP:
            raise ParameterDomainError("n_atoms", f"capped at {N_ATOMS_CAP:.0e}, got {n}")
        # the checks' floats are dropped: an int omega0 or g is kept, and recorded, as given
        check_finite("omega0", self.omega0)
        check_finite("g", self.g, positive=False)
        if self.gamma != 1.0:
            raise ParameterDomainError(
                "gamma",
                f"fixed to 1 by convention (times are gamma*t), got {short_repr(self.gamma)}",
            )
        if self.regime is None:
            object.__setattr__(self, "regime", classify_regime(self))
        elif self.regime is Regime.DICKE_LIMIT and self.g != 0.0:
            raise ParameterDomainError("regime", "the Dicke limit requires g = 0")
        # finite inputs can still overflow a derived quantity (omega0 = 1e-310
        # makes alpha infinite); name the first one that does
        d = derive_params(self)
        for f in fields(d):
            value = getattr(d, f.name)
            if not is_finite(value):
                raise ParameterDomainError(
                    f.name,
                    f"derived value is {value!r} for n_atoms={n}, omega0={self.omega0!r},"
                    f" g={self.g!r}",
                )

    @property
    def coupling_strength_ratio(self) -> float:
        return self.n_atoms * self.gamma / self.omega0


@dataclass(frozen=True)
class DerivedParams:
    """Collective quantities and the scaling-law predictions they imply.

    Frequencies are in units of gamma, times in units of 1/gamma and the
    peak intensity in units of gamma*omega0.
    """

    n_atoms: int
    alpha: float                    # collective interaction parameter 2 g N / omega0
    omega_eff: float                # effective frequency (1 + alpha) * omega0
    gamma_eff: float                # effective dissipative factor (1 + alpha) * gamma
    coupling_strength_ratio: float  # N gamma / omega0
    tau_c_pred: float               # envelope characteristic time ~ 1/((1+alpha) N)
    tau_1_pred: float               # superpulse characteristic time ~ 1/((1+alpha) omega0)
    pulse_count_pred: float         # half-height superpulse count ~ omega0/(N gamma)
    peak_intensity_pred: float      # ((1+alpha) N)^2 / 4
    delay_time_pred: float          # tau_c_pred * ln N

    @property
    def tau_c_closed(self) -> float:
        """Weak-coupling closed-form envelope time 2/((1+alpha) N)."""
        return CLOSED_FORM_FACTOR * self.tau_c_pred

    @property
    def delay_time_closed(self) -> float:
        """Weak-coupling closed-form delay t0 = tau_c_closed * ln N."""
        return CLOSED_FORM_FACTOR * self.delay_time_pred


def classify_regime(p: SampleParams) -> Regime:
    """Advisory strong/weak classification from the ratio N*gamma/omega0.

    The threshold is a rough crossover, so callers are free to override the
    result (e.g. to run the weak-coupling equations at strong-regime
    parameters for comparison).
    """
    return Regime.STRONG if p.coupling_strength_ratio >= STRONG_COUPLING_THRESHOLD else Regime.WEAK


def derive_params(p: SampleParams) -> DerivedParams:
    """Compute the collective quantities and scaling-law predictions for p."""
    n = float(p.n_atoms)
    alpha = 2.0 * p.g * n / p.omega0
    enh = 1.0 + alpha
    tau_c = 1.0 / (enh * n)
    tau_1 = p.gamma / (enh * p.omega0)
    return DerivedParams(
        n_atoms=p.n_atoms,
        alpha=alpha,
        omega_eff=enh * p.omega0,
        gamma_eff=enh * p.gamma,
        coupling_strength_ratio=p.coupling_strength_ratio,
        tau_c_pred=tau_c,
        tau_1_pred=tau_1,
        pulse_count_pred=p.omega0 / (n * p.gamma),
        peak_intensity_pred=(enh * n) ** 2 / 4.0,
        delay_time_pred=tau_c * math.log(n),
    )
