"""Key-rate analysis for phase-encoded BB84 with an unbalanced interferometer."""

from .attack import (
    ConstraintSet,
    InfeasibleError,
    OptimResult,
    maximize_holevo_qubit,
)
from .channel import ChannelParams, ObservedStats, default_params, honest_statistics, load_params
from .engine import (
    KeyRatePoint,
    compare_variants,
    cutoff_distance,
    distance_scan,
    format_csv,
    optimize_mu,
    qubit_point,
    qubit_scan,
    realistic_keyrate,
)
from .protocol import ProtocolConfig, Variant, make_config
from .sifting import SymmetricState
from .squash import ClickPattern, EffectiveOutcome, squash_distribution, squash_sample

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "ClickPattern",
    "ConstraintSet",
    "EffectiveOutcome",
    "InfeasibleError",
    "KeyRatePoint",
    "ObservedStats",
    "OptimResult",
    "ProtocolConfig",
    "SymmetricState",
    "Variant",
    "compare_variants",
    "cutoff_distance",
    "default_params",
    "distance_scan",
    "format_csv",
    "honest_statistics",
    "load_params",
    "make_config",
    "maximize_holevo_qubit",
    "optimize_mu",
    "qubit_point",
    "qubit_scan",
    "realistic_keyrate",
    "squash_distribution",
    "squash_sample",
]
