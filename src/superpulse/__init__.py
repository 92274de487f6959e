"""Mean-field simulator for collective radiation emission from dense
two-level atomic samples, with pulse-train analysis and an exact small-N
cascade oracle."""

from .bloch import (
    BlochState,
    BlochTrajectory,
    IntegrationControl,
    IntegratorStats,
    default_initial_state,
    default_t_end,
    envelope_timescale,
)
from .errors import (
    ConfigError,
    EmptyAnalysisError,
    IntegrationFailure,
    ParameterDomainError,
    SampleBudgetError,
    SimulationError,
    StepSizeError,
)
from .ladder import LadderRun, cascade_rates, evolve_ladder
from .observables import emission_arrays
from .params import (
    DerivedParams,
    Regime,
    SampleParams,
    classify_regime,
    derive_params,
)
from .pulses import (
    PulseMetrics,
    Superpulse,
    compute_metrics,
    envelope,
    find_superpulses,
)
from .runner import (
    PRESETS,
    RunConfig,
    RunResult,
    resolve,
    run_config,
    run_preset,
)
from .strong import integrate_strong
from .weak import (
    sample_weak_solution,
    weak_angles,
    weak_energy,
    weak_intensity,
)

__version__ = "0.1.0"
