"""Finite-key analysis for GHZ-based conference key agreement with a
two-block parity sieve (classical advantage distillation).

The package combines an analytic key-rate engine, a Monte Carlo protocol
simulator for cross-checking the analytics, classical sampling bounds,
and a desk-scale statevector verifier for the quantum facts the analysis
rests on.

Importing the package loads no submodule.  The exported names below are
resolved on first access, and the numpy-backed modules (``protosim``,
``ghzsim``, ``verify``) are registered as lazy modules that execute on
their first attribute access, so the analytic path (``keyrate``,
``model``, ``sampling``, ``bitcore``) runs on the standard library alone.
"""

import importlib
import importlib.util
import sys

__version__ = "0.1.0"

# Exported name -> its submodule: the key-rate calculator, the simulator and
# the types they return.  Every other name stays an attribute of its module.
_EXPORTS = {
    "NoiseModel": "model",
    "ProtocolParams": "model",
    "analytic_qx": "model",
    "analytic_pa": "model",
    "postcad_error_rates": "model",
    "TrialOutcome": "protosim",
    "run_trial": "protosim",
    "aggregate": "protosim",
    "KeyRateReport": "keyrate",
    "key_length": "keyrate",
    "optimize_m": "keyrate",
}

__all__ = list(_EXPORTS)


def _lazy_submodule(name: str):
    """Put ``qcka_cad.<name>`` in ``sys.modules``, executed on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


protosim = _lazy_submodule("protosim")
ghzsim = _lazy_submodule("ghzsim")
verify = _lazy_submodule("verify")


def __getattr__(name: str):
    if name not in _EXPORTS:
        # A submodule not imported yet, as ``import qcka_cad; qcka_cad.keyrate``.
        submodule = f"{__name__}.{name}"
        if name.isidentifier() and not name.startswith("_") and importlib.util.find_spec(submodule):
            return importlib.import_module(submodule)
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
