"""Builders for the three worked scenarios.

Default geometries live in 1+1 dimensions with c = 1 and are chosen so
the causal relations match the intended layouts: the branch detectors are
mutually spacelike, copy devices act on their branch before the branch
detector and inside the final detector's backward light cone.  Any layout
with the same causal relations is equivalent; builders validate relations,
not coordinates.
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry, hilbert
from .engine import DetectorEvent, InteractionEvent, Scenario, validate_scenario
from .errors import ConfigurationError
from .geometry import Event, Separation, SurfaceSide
from .hilbert import (
    Axis,
    OutcomeSet,
    StateVector,
    SubsystemKind,
    SubsystemSpec,
    Z_AXIS,
    axis_eigenstate,
    spin_projector,
)

_SQ2 = math.sqrt(2.0)


def occupation_copy_gate() -> np.ndarray:
    """Copy the occupation of a source mode into an empty target mode
    (controlled flip, basis order (source, target))."""
    u = np.eye(4, dtype=complex)
    u[[2, 3]] = u[[3, 2]]
    return u


def spin_copy_gate(basis: Axis) -> np.ndarray:
    """Copy a spin in the given basis onto a target prepared in the
    basis + state: |k s>|k+> -> |k s>|k s>."""
    r = np.column_stack([axis_eigenstate(basis, +1), axis_eigenstate(basis, -1)])
    cnot = np.eye(4, dtype=complex)
    cnot[[2, 3]] = cnot[[3, 2]]
    rr = np.kron(r, r)
    return rr @ cnot @ rr.conj().T


def _mode(label: str) -> SubsystemSpec:
    return SubsystemSpec(label, 2, SubsystemKind.MODE)


def _spin(label: str) -> SubsystemSpec:
    return SubsystemSpec(label, 2, SubsystemKind.SPIN)


def _register(label: str, dim: int) -> SubsystemSpec:
    return SubsystemSpec(label, dim, SubsystemKind.REGISTER)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(f"invalid causal layout: {message}")


def _spacelike(e0: Event, e1: Event, c: float) -> bool:
    return geometry.classify(e0, e1, c) is Separation.SPACELIKE


def _in_blc_past(ev: Event, apex: Event, c: float, strict: bool = False) -> bool:
    side = geometry.event_side_of_surface(
        ev, geometry.Lcsh(apexes=(apex,), c=c)
    )
    if strict:
        return side is SurfaceSide.PAST
    return side is not SurfaceSide.FUTURE


DEFAULT_SPLIT_GEOMETRY = {
    "A": Event(3.0, (-4.0,)),
    "B": Event(3.0, (4.0,)),
    "C": Event(4.0, (0.0,)),
    "AA1": Event(1.0, (-2.0,)),
    "AA2": Event(1.0, (2.0,)),
    "source": Event(0.0, (0.0,)),
}

#: The singlet copy devices sit strictly inside the branch-detector cones
#: so that their Hellwig-Kraus region is unambiguous (regions are open).
DEFAULT_SINGLET_GEOMETRY = {
    "A": Event(3.0, (-4.0,)),
    "B": Event(3.0, (4.0,)),
    "C": Event(4.0, (0.0,)),
    "AA1": Event(0.8, (-2.0,)),
    "AA2": Event(0.8, (2.0,)),
    "source": Event(0.0, (0.0,)),
}

DEFAULT_GHZ_GEOMETRY = {
    "A": Event(3.0, (-6.0,)),
    "B": Event(3.0, (0.0,)),
    "C": Event(3.0, (6.0,)),
    "source": Event(0.0, (0.0,)),
}


def _occupation_outcomes(label: str) -> OutcomeSet:
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return OutcomeSet(targets=(label,), outcomes=(("none", p0), ("hit", p1)))


def split_particle(
    geometry_events: dict[str, Event] | None = None,
    amplitudes: tuple[complex, complex] = (1 / _SQ2, 1 / _SQ2),
    c: float = 1.0,
) -> Scenario:
    """A charged particle split into two branches, one branch detector
    each, copy devices on both branches feeding a final detector."""
    geometry.check_speed_of_light(c)
    g = dict(DEFAULT_SPLIT_GEOMETRY, **(geometry_events or {}))
    ca, cb = amplitudes
    if abs(abs(ca) ** 2 + abs(cb) ** 2 - 1.0) > hilbert.EPS_NORM:
        raise ConfigurationError("branch amplitudes must satisfy |c_a|^2 + |c_b|^2 = 1")
    for pair in (("A", "B"), ("A", "C"), ("B", "C")):
        _require(_spacelike(g[pair[0]], g[pair[1]], c), f"detectors {pair} must be spacelike")
    _require(_in_blc_past(g["AA1"], g["A"], c), "AA1 must precede detector A on its branch")
    _require(_in_blc_past(g["AA2"], g["B"], c), "AA2 must precede detector B on its branch")
    _require(_in_blc_past(g["AA1"], g["C"], c), "AA1 must lie in the past of C's BLC")
    _require(_in_blc_past(g["AA2"], g["C"], c), "AA2 must lie in the past of C's BLC")

    subsystems = (
        _mode("a"), _mode("b"), _mode("c1"), _mode("c2"),
        _register("RA", 2), _register("RB", 2), _register("RC", 4),
    )
    amps = np.zeros((2, 2, 2, 2), dtype=complex)
    amps[1, 0, 0, 0] = ca
    amps[0, 1, 0, 0] = cb
    initial = hilbert.tensor(
        StateVector(subsystems[:4], amps.reshape(-1)),
        hilbert.basis_state(subsystems[4:]),
    )

    interactions = (
        InteractionEvent("AA1 copy", g["AA1"], ("a", "c1"), occupation_copy_gate(),
                         gate={"kind": "copy_occupation", "source": "a", "target": "c1"}),
        InteractionEvent("AA2 copy", g["AA2"], ("b", "c2"), occupation_copy_gate(),
                         gate={"kind": "copy_occupation", "source": "b", "target": "c2"}),
    )
    dims_c = (2, 2)

    def _cfg(i, j):
        p = np.zeros((4, 4), dtype=complex)
        k = np.ravel_multi_index((i, j), dims_c)
        p[k, k] = 1.0
        return p

    c_outcomes = OutcomeSet(
        targets=("c1", "c2"),
        outcomes=(("none", _cfg(0, 0)), ("c1", _cfg(1, 0)),
                  ("c2", _cfg(0, 1)), ("both", _cfg(1, 1))),
    )
    detectors = (
        DetectorEvent("A", g["A"], _occupation_outcomes("a"), "RA",
                      absorbing=True, pointers=(0, 1)),
        DetectorEvent("B", g["B"], _occupation_outcomes("b"), "RB",
                      absorbing=True, pointers=(0, 1)),
        DetectorEvent("C", g["C"], c_outcomes, "RC",
                      absorbing=True, pointers=(0, 1, 2, 3)),
    )
    scenario = Scenario(
        dim=1, c=c, subsystems=subsystems, initial_state=initial,
        initial_t0=geometry.MINUS_INFINITY,
        interactions=interactions, detectors=detectors,
        charged_modes=("a", "b", "c1", "c2"),
        worldlines=(
            ("a", (g["source"], g["AA1"], g["A"])),
            ("b", (g["source"], g["AA2"], g["B"])),
            ("c1", (g["AA1"], g["C"])),
            ("c2", (g["AA2"], g["C"])),
        ),
    )
    validate_scenario(scenario)
    return scenario


def singlet_state(subsystems: tuple[SubsystemSpec, SubsystemSpec], basis: Axis = Z_AXIS) -> StateVector:
    """(|k-〉|k+〉 - |k+〉|k-〉)/sqrt(2) on two spins."""
    plus = axis_eigenstate(basis, +1)
    minus = axis_eigenstate(basis, -1)
    amps = (np.kron(minus, plus) - np.kron(plus, minus)) / _SQ2
    return StateVector(subsystems, amps)


def singlet(
    axis_a: Axis,
    axis_b: Axis,
    with_copies: bool = False,
    copy_basis: Axis = Z_AXIS,
    final_axes: tuple[Axis, Axis] | None = None,
    geometry_events: dict[str, Event] | None = None,
    c: float = 1.0,
) -> Scenario:
    """Two entangled spins measured at spacelike positions; optionally with
    copy devices on both branches feeding a final two-spin detector whose
    axes default to (axis_b, axis_a)."""
    geometry.check_speed_of_light(c)
    g = dict(DEFAULT_SINGLET_GEOMETRY, **(geometry_events or {}))
    _require(_spacelike(g["A"], g["B"], c), "detectors A and B must be spacelike")

    spins = (_spin("a"), _spin("b"))
    if not with_copies:
        subsystems = spins + (_register("RA", 3), _register("RB", 3))
        initial = hilbert.tensor(singlet_state(spins, copy_basis),
                                 hilbert.basis_state(subsystems[2:]))
        interactions: tuple[InteractionEvent, ...] = ()
        detectors = (
            DetectorEvent("A", g["A"], hilbert.spin_outcome_set("a", axis_a), "RA"),
            DetectorEvent("B", g["B"], hilbert.spin_outcome_set("b", axis_b), "RB"),
        )
        worldlines = (("a", (g["source"], g["A"])), ("b", (g["source"], g["B"])))
    else:
        for d in ("A", "B"):
            _require(_spacelike(g[d], g["C"], c), f"detectors {d} and C must be spacelike")
        _require(_in_blc_past(g["AA1"], g["A"], c, strict=True),
                 "AA1 must lie strictly inside A's backward light cone")
        _require(_in_blc_past(g["AA2"], g["B"], c, strict=True),
                 "AA2 must lie strictly inside B's backward light cone")
        _require(_in_blc_past(g["AA1"], g["C"], c), "AA1 must lie in the past of C's BLC")
        _require(_in_blc_past(g["AA2"], g["C"], c), "AA2 must lie in the past of C's BLC")
        copies = (_spin("c1"), _spin("c2"))
        subsystems = spins + copies + (_register("RA", 3), _register("RB", 3), _register("RC", 5))
        ready = axis_eigenstate(copy_basis, +1)
        initial = hilbert.tensor(
            singlet_state(spins, copy_basis),
            StateVector((copies[0],), ready),
            StateVector((copies[1],), ready),
            hilbert.basis_state(subsystems[4:]),
        )
        copy_axis_dict = {"theta": copy_basis.theta, "phi": copy_basis.phi}
        interactions = (
            InteractionEvent("AA1 copy", g["AA1"], ("a", "c1"), spin_copy_gate(copy_basis),
                             gate={"kind": "copy_spin", "source": "a", "target": "c1",
                                   "basis": copy_axis_dict}),
            InteractionEvent("AA2 copy", g["AA2"], ("b", "c2"), spin_copy_gate(copy_basis),
                             gate={"kind": "copy_spin", "source": "b", "target": "c2",
                                   "basis": copy_axis_dict}),
        )
        ax1, ax2 = final_axes if final_axes is not None else (axis_b, axis_a)
        pairs = []
        for s1 in ("+", "-"):
            for s2 in ("+", "-"):
                p = np.kron(spin_projector(ax1, +1 if s1 == "+" else -1),
                            spin_projector(ax2, +1 if s2 == "+" else -1))
                pairs.append((s1 + s2, p))
        detectors = (
            DetectorEvent("A", g["A"], hilbert.spin_outcome_set("a", axis_a), "RA"),
            DetectorEvent("B", g["B"], hilbert.spin_outcome_set("b", axis_b), "RB"),
            DetectorEvent("C", g["C"], OutcomeSet(targets=("c1", "c2"), outcomes=tuple(pairs)),
                          "RC", pointers=(1, 2, 3, 4)),
        )
        worldlines = (
            ("a", (g["source"], g["AA1"], g["A"])),
            ("b", (g["source"], g["AA2"], g["B"])),
            ("c1", (g["AA1"], g["C"])),
            ("c2", (g["AA2"], g["C"])),
        )
    scenario = Scenario(
        dim=1, c=c, subsystems=subsystems, initial_state=initial,
        initial_t0=geometry.MINUS_INFINITY,
        interactions=interactions, detectors=detectors,
        worldlines=worldlines,
    )
    validate_scenario(scenario)
    return scenario


def ghz(
    axes: tuple[Axis, Axis, Axis] = (hilbert.X_AXIS, hilbert.Y_AXIS, hilbert.Y_AXIS),
    geometry_events: dict[str, Event] | None = None,
    c: float = 1.0,
) -> Scenario:
    """Three spins in (|+++〉 - |---〉)/sqrt(2) (z basis), three mutually
    spacelike detectors."""
    geometry.check_speed_of_light(c)
    g = dict(DEFAULT_GHZ_GEOMETRY, **(geometry_events or {}))
    for pair in (("A", "B"), ("A", "C"), ("B", "C")):
        _require(_spacelike(g[pair[0]], g[pair[1]], c), f"detectors {pair} must be spacelike")
    spins = (_spin("a"), _spin("b"), _spin("c"))
    subsystems = spins + (_register("RA", 3), _register("RB", 3), _register("RC", 3))
    amps = np.zeros((2, 2, 2), dtype=complex)
    amps[0, 0, 0] = 1 / _SQ2
    amps[1, 1, 1] = -1 / _SQ2
    initial = hilbert.tensor(StateVector(spins, amps.reshape(-1)),
                             hilbert.basis_state(subsystems[3:]))
    detectors = (
        DetectorEvent("A", g["A"], hilbert.spin_outcome_set("a", axes[0]), "RA"),
        DetectorEvent("B", g["B"], hilbert.spin_outcome_set("b", axes[1]), "RB"),
        DetectorEvent("C", g["C"], hilbert.spin_outcome_set("c", axes[2]), "RC"),
    )
    scenario = Scenario(
        dim=1, c=c, subsystems=subsystems, initial_state=initial,
        initial_t0=geometry.MINUS_INFINITY,
        interactions=(), detectors=detectors,
        worldlines=(
            ("a", (g["source"], g["A"])),
            ("b", (g["source"], g["B"])),
            ("c", (g["source"], g["C"])),
        ),
    )
    validate_scenario(scenario)
    return scenario
