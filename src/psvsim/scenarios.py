"""Builders for the three worked scenarios.

The geometries are fixed layouts in 1+1 dimensions at c = 1, chosen so
that the branch detectors are mutually spacelike and copy devices act on
their branch before the branch detector and inside the final detector's
backward light cone.  Any layout with the same causal relations is
equivalent; another speed of light is another layout, written as a
scenario file with its own ``"c"``.
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry, hilbert
from .engine import BranchState, DetectorEvent, InteractionEvent, Scenario
from .geometry import Event
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


def _with_registers(core: StateVector, **dims: int) -> BranchState:
    """``core`` followed by a register of each given dim, at its ready index 0."""
    registers = tuple(SubsystemSpec(l, d, SubsystemKind.REGISTER) for l, d in dims.items())
    return BranchState(core.subsystems + registers, core,
                       {r.label: hilbert.basis_state((r,)) for r in registers})


SPLIT_GEOMETRY = {
    "A": Event(3.0, (-4.0,)),
    "B": Event(3.0, (4.0,)),
    "C": Event(4.0, (0.0,)),
    "AA1": Event(1.0, (-2.0,)),
    "AA2": Event(1.0, (2.0,)),
    "source": Event(0.0, (0.0,)),
}

#: The singlet copy devices sit strictly inside the branch-detector cones
#: so that their Hellwig-Kraus region is unambiguous (regions are open).
SINGLET_GEOMETRY = {
    "A": Event(3.0, (-4.0,)),
    "B": Event(3.0, (4.0,)),
    "C": Event(4.0, (0.0,)),
    "AA1": Event(0.8, (-2.0,)),
    "AA2": Event(0.8, (2.0,)),
    "source": Event(0.0, (0.0,)),
}

GHZ_GEOMETRY = {
    "A": Event(3.0, (-6.0,)),
    "B": Event(3.0, (0.0,)),
    "C": Event(3.0, (6.0,)),
    "source": Event(0.0, (0.0,)),
}


def _occupation_outcomes(label: str) -> OutcomeSet:
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return OutcomeSet(targets=(label,), outcomes=(("none", p0), ("hit", p1)))


def split_particle() -> Scenario:
    """A charged particle split evenly into two branches, one branch
    detector each, copy devices on both branches feeding a final detector."""
    g = SPLIT_GEOMETRY
    amps = np.zeros((2, 2, 2, 2), dtype=complex)
    amps[1, 0, 0, 0] = amps[0, 1, 0, 0] = 1 / _SQ2
    initial = _with_registers(
        StateVector((_mode("a"), _mode("b"), _mode("c1"), _mode("c2")), amps.reshape(-1)),
        RA=2, RB=2, RC=4)

    interactions = (
        InteractionEvent("AA1 copy", g["AA1"], ("a", "c1"), occupation_copy_gate(),
                         gate={"kind": "copy_occupation", "source": "a", "target": "c1"}),
        InteractionEvent("AA2 copy", g["AA2"], ("b", "c2"), occupation_copy_gate(),
                         gate={"kind": "copy_occupation", "source": "b", "target": "c2"}),
    )
    # occupations (i, j) of (c1, c2) are basis index 2i + j
    c_outcomes = OutcomeSet(targets=("c1", "c2"), outcomes=tuple(
        (label, np.diag(np.eye(4, dtype=complex)[k]))
        for label, k in (("none", 0), ("c1", 2), ("c2", 1), ("both", 3))))
    detectors = (
        DetectorEvent("A", g["A"], _occupation_outcomes("a"), "RA",
                      absorbing=True, pointers=(0, 1)),
        DetectorEvent("B", g["B"], _occupation_outcomes("b"), "RB",
                      absorbing=True, pointers=(0, 1)),
        DetectorEvent("C", g["C"], c_outcomes, "RC",
                      absorbing=True, pointers=(0, 1, 2, 3)),
    )
    return Scenario(
        dim=1, c=1.0, initial=initial,
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
) -> Scenario:
    """Two entangled spins measured at spacelike positions; optionally with
    copy devices on both branches feeding a final two-spin detector with
    axes (axis_b, axis_a)."""
    g = SINGLET_GEOMETRY

    spins = (_spin("a"), _spin("b"))
    detectors = (
        DetectorEvent("A", g["A"], hilbert.spin_outcome_set("a", axis_a), "RA"),
        DetectorEvent("B", g["B"], hilbert.spin_outcome_set("b", axis_b), "RB"),
    )
    if not with_copies:
        initial = _with_registers(singlet_state(spins, copy_basis), RA=3, RB=3)
        interactions: tuple[InteractionEvent, ...] = ()
        worldlines = (("a", (g["source"], g["A"])), ("b", (g["source"], g["B"])))
    else:
        copies = (_spin("c1"), _spin("c2"))
        ready = axis_eigenstate(copy_basis, +1)
        initial = _with_registers(
            hilbert.tensor(singlet_state(spins, copy_basis),
                           StateVector((copies[0],), ready), StateVector((copies[1],), ready)),
            RA=3, RB=3, RC=5)
        copy_axis_dict = {"theta": copy_basis.theta, "phi": copy_basis.phi}
        interactions = (
            InteractionEvent("AA1 copy", g["AA1"], ("a", "c1"), spin_copy_gate(copy_basis),
                             gate={"kind": "copy_spin", "source": "a", "target": "c1",
                                   "basis": copy_axis_dict}),
            InteractionEvent("AA2 copy", g["AA2"], ("b", "c2"), spin_copy_gate(copy_basis),
                             gate={"kind": "copy_spin", "source": "b", "target": "c2",
                                   "basis": copy_axis_dict}),
        )
        pairs = []
        for s1 in ("+", "-"):
            for s2 in ("+", "-"):
                p = np.kron(spin_projector(axis_b, +1 if s1 == "+" else -1),
                            spin_projector(axis_a, +1 if s2 == "+" else -1))
                pairs.append((s1 + s2, p))
        detectors += (DetectorEvent("C", g["C"], OutcomeSet(targets=("c1", "c2"),
                                                            outcomes=tuple(pairs)), "RC"),)
        worldlines = (
            ("a", (g["source"], g["AA1"], g["A"])),
            ("b", (g["source"], g["AA2"], g["B"])),
            ("c1", (g["AA1"], g["C"])),
            ("c2", (g["AA2"], g["C"])),
        )
    return Scenario(
        dim=1, c=1.0, initial=initial,
        initial_t0=geometry.MINUS_INFINITY,
        interactions=interactions, detectors=detectors,
        worldlines=worldlines,
    )


def ghz(
    axes: tuple[Axis, Axis, Axis] = (hilbert.X_AXIS, hilbert.Y_AXIS, hilbert.Y_AXIS),
) -> Scenario:
    """Three spins in (|+++〉 - |---〉)/sqrt(2) (z basis), three mutually
    spacelike detectors."""
    g = GHZ_GEOMETRY
    amps = np.zeros((2, 2, 2), dtype=complex)
    amps[0, 0, 0] = 1 / _SQ2
    amps[1, 1, 1] = -1 / _SQ2
    initial = _with_registers(StateVector((_spin("a"), _spin("b"), _spin("c")), amps.reshape(-1)),
                              RA=3, RB=3, RC=3)
    detectors = (
        DetectorEvent("A", g["A"], hilbert.spin_outcome_set("a", axes[0]), "RA"),
        DetectorEvent("B", g["B"], hilbert.spin_outcome_set("b", axes[1]), "RB"),
        DetectorEvent("C", g["C"], hilbert.spin_outcome_set("c", axes[2]), "RC"),
    )
    return Scenario(
        dim=1, c=1.0, initial=initial,
        initial_t0=geometry.MINUS_INFINITY,
        interactions=(), detectors=detectors,
        worldlines=(
            ("a", (g["source"], g["A"])),
            ("b", (g["source"], g["B"])),
            ("c", (g["source"], g["C"])),
        ),
    )
