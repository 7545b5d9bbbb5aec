"""Discrete-event simulator of state-vector reduction on light-cone
spacelike hypersurfaces.

The state of a system lives on hypersurfaces built as upper envelopes of
backward light cones; each local detection adjoins its cone to the
surface and reduces the state.  Joint outcome distributions are
independent of the reduction order chosen for spacelike-separated
detectors, while the alternative backward-light-cone (Hellwig-Kraus)
assignment of reduced states to spacetime regions is shown to make
inconsistent predictions once local copy devices are added.
"""

from .errors import (
    AmbiguousRegionError,
    ConfigurationError,
    ImpossibleBranchError,
    OrderingViolationError,
    PhysicsError,
    PsvError,
)
from .geometry import (
    Event,
    Lcsh,
    Separation,
    SurfaceSide,
    adjoin_apex,
    classify,
    event_side_of_surface,
    is_future_of,
    surface_time,
    surface_times,
)
from .hilbert import (
    Axis,
    OutcomeSet,
    StateVector,
    SubsystemKind,
    SubsystemSpec,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    axis_eigenstate,
    basis_state,
    born_probability,
    phase_canonical,
    project_and_normalize,
    spin_outcome_set,
    spin_projector,
    tensor,
)
from .engine import (
    BranchNode,
    BranchState,
    DetectorEvent,
    EmpiricalDistribution,
    InteractionEvent,
    JointDistribution,
    RunRecord,
    Scenario,
    StepRecord,
    UndefinedState,
    enumerate_valid_orders,
    joint_distribution,
    run,
    sample,
    state_on_hyperplane,
    step,
    validate_reduction_order,
    validate_scenario,
)
from .hellwig_kraus import (
    HkComparison,
    HkRegion,
    hk_copy_inconsistency,
    hk_region_of,
    hk_state,
)
from .scenarios import ghz, singlet, singlet_state, split_particle
from .diagram import render_ascii, render_svg

__version__ = "1.0.0"

__all__ = [
    "AmbiguousRegionError",
    "Axis",
    "BranchNode",
    "BranchState",
    "ConfigurationError",
    "DetectorEvent",
    "EmpiricalDistribution",
    "Event",
    "HkComparison",
    "HkRegion",
    "ImpossibleBranchError",
    "InteractionEvent",
    "JointDistribution",
    "Lcsh",
    "OrderingViolationError",
    "OutcomeSet",
    "PhysicsError",
    "PsvError",
    "RunRecord",
    "Scenario",
    "Separation",
    "StateVector",
    "StepRecord",
    "SubsystemKind",
    "SubsystemSpec",
    "SurfaceSide",
    "UndefinedState",
    "X_AXIS",
    "Y_AXIS",
    "Z_AXIS",
    "adjoin_apex",
    "axis_eigenstate",
    "basis_state",
    "born_probability",
    "classify",
    "enumerate_valid_orders",
    "event_side_of_surface",
    "ghz",
    "hk_copy_inconsistency",
    "hk_region_of",
    "hk_state",
    "is_future_of",
    "joint_distribution",
    "phase_canonical",
    "project_and_normalize",
    "render_ascii",
    "render_svg",
    "run",
    "sample",
    "singlet",
    "singlet_state",
    "spin_outcome_set",
    "spin_projector",
    "split_particle",
    "state_on_hyperplane",
    "step",
    "surface_time",
    "surface_times",
    "tensor",
    "validate_reduction_order",
    "validate_scenario",
]
