"""Comparison systems: Steele–White Dragon4, naive fixed/printf, Gay.

Every export loads on first use (PEP 562, as in :mod:`repro`): the
engine's ``naive_fixed`` import does not load the other baselines.
"""

import importlib

_EXPORTS = {
    "repro.baselines.gay_estimator": ("gay_estimate_k",
                                      "gay_estimate_log10"),
    "repro.baselines.naive_fixed": ("exact_fixed_digits",
                                    "fixed_digits_loop", "naive_fixed_17"),
    "repro.baselines.probe": ("probe_shortest", "probe_shortest_digits"),
    "repro.baselines.naive_printf": ("PrintfAudit", "audit_naive_printf",
                                     "is_correctly_rounded",
                                     "naive_printf_digits"),
    "repro.baselines.steele_white": ("dragon4_fixed", "dragon4_shortest"),
}

_MODULE_OF = {name: mod for mod, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(
            f"module 'repro.baselines' has no attribute {name!r}")
    value = getattr(importlib.import_module(mod), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
