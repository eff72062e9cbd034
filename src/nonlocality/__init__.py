"""Superquantum correlations and the jamming model of nonlocal dynamics.

Two model families of nonlocality bounded only by relativistic causality:
no-signalling boxes whose CHSH sum reaches the algebraic maximum 4, and
nonlocal equations of motion in which a third party jams correlations
between spacelike-separated measurements, subject to the unary and binary
causality conditions. Includes the Minkowski geometry needed to state and
check those conditions in any spatial dimension.
"""

from .correlations import (
    ALGEBRAIC_BOUND,
    ANGLE_PRESETS,
    BUILTIN_BOXES,
    CLASSICAL_BOUND,
    QUANTUM_BOUND,
    ChshOptimum,
    ChshResult,
    CorrelationModel,
    DeterministicModel,
    NoSignallingBox,
    SampleReport,
    SingletModel,
    SuperquantumModel,
    TableModel,
    box_from_correlation,
    box_from_model,
    builtin_box,
    check_no_signalling,
    chsh,
    chsh_at_angles,
    classify_chsh,
    enumerate_deterministic,
    maximize_chsh,
    product_box,
    reduce_angle,
    sample_outcomes,
)
from .jamming import (
    BinaryVerdict,
    JammingConfiguration,
    JamScenario,
    LatestJammerResult,
    LoopReport,
    apply_jamming,
    binary_condition,
    check_unary,
    detect_causal_loops,
    influence_edges,
    latest_jammer_time,
    validate_configuration,
)
from .spacetime import (
    Boost,
    Event,
    IntervalClass,
    LightCone,
    achievable_orderings,
    boost,
    default_tol,
    in_future_cone,
    interval,
)

__version__ = "0.1.0"
