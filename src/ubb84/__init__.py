"""Key-rate analysis for phase-encoded BB84 with an unbalanced interferometer.

Each public name is imported from its module on first access (PEP 562), so
importing the package, or one command of its CLI, loads only what is used.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "attack": ("ConstraintSet", "InfeasibleError", "OptimResult", "maximize_holevo_qubit"),
    "channel": ("ChannelParams", "ObservedStats", "default_params", "honest_statistics",
                "load_params"),
    "engine": ("KeyRatePoint", "compare_variants", "cutoff_distance", "distance_scan",
               "format_csv", "optimize_mu", "qubit_point", "qubit_scan", "realistic_keyrate"),
    "protocol": ("ProtocolConfig", "Variant", "make_config"),
    "sifting": ("SymmetricState",),
    "squash": ("ClickPattern", "EffectiveOutcome", "squash_distribution", "squash_sample"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
