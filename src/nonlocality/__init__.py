"""Superquantum correlations and the jamming model of nonlocal dynamics.

Two model families of nonlocality bounded only by relativistic causality:
no-signalling boxes whose CHSH sum reaches the algebraic maximum 4, and
nonlocal equations of motion in which a third party jams correlations
between spacelike-separated measurements, subject to the unary and binary
causality conditions. Includes the Minkowski geometry needed to state and
check those conditions in any spatial dimension.

Exports resolve lazily (PEP 562): ``import nonlocality`` loads no
submodule, and a name loads its submodule on first access. No module
imports numpy when it loads: only ``correlations`` imports it when called,
for the ndarray views of a box or a table and for the random starts of a
``maximize_chsh`` search that reaches them. The geometry, the jamming
decisions, the box checks, sampling, every model's E and a search that
ends within its preset starts run without it: one certified at its
model's CHSH bound (the singlet, the deterministic strategies, the
superquantum model), and any search with ``extra_starts=0``, whose coarse
sweeps and refinement are plain floats.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "correlations": (
        "ALGEBRAIC_BOUND",
        "ANGLE_PRESETS",
        "BUILTIN_BOXES",
        "CLASSICAL_BOUND",
        "QUANTUM_BOUND",
        "ChshOptimum",
        "ChshResult",
        "CorrelationModel",
        "DeterministicModel",
        "NoSignallingBox",
        "SampleReport",
        "SingletModel",
        "SuperquantumModel",
        "TableModel",
        "apply_jamming",
        "box_from_correlation",
        "box_from_model",
        "builtin_box",
        "check_no_signalling",
        "check_unary",
        "chsh",
        "chsh_at_angles",
        "classify_chsh",
        "enumerate_deterministic",
        "maximize_chsh",
        "product_box",
        "reduce_angle",
        "sample_outcomes",
    ),
    "jamming": (
        "BinaryVerdict",
        "JammingConfiguration",
        "JamScenario",
        "LatestJammerResult",
        "LoopReport",
        "binary_condition",
        "detect_causal_loops",
        "influence_edges",
        "latest_jammer_time",
        "validate_configuration",
    ),
    "spacetime": (
        "Boost",
        "Event",
        "IntervalClass",
        "achievable_orderings",
        "boost",
        "interval",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_SOURCE]


def __getattr__(name):
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _SOURCE:
        value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
