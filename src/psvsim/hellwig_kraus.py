"""The rival backward-light-cone reduction prescription and its comparator.

Hellwig-Kraus assigns to each spacetime region (labelled by the Past /
Future side of every detector's backward light cone) the state reduced by
exactly the detectors whose cone the region lies above.  Combined with
local copy devices this produces a conditional prediction for the final
detector that disagrees with the engine's; the comparator exposes both
numbers.

The HK copy devices are basis-matched: they duplicate the pure regional
state of their source exactly.  The engine's copies are fixed-basis copy
gates.  This asymmetry belongs to the two prescriptions being compared,
not to this implementation.
"""

from __future__ import annotations


import numpy as np

from . import geometry, hilbert, scenarios
from ._record import Record
from .engine import BranchState, Scenario, _in_time_order, apply_detector, joint_distribution
from .errors import AmbiguousRegionError, ConfigurationError, PhysicsError
from .geometry import Event, Lcsh, SurfaceSide
from .hilbert import Axis, StateVector


class HkRegion(Record):
    """Cone-side labelling: one Past/Future entry per considered detector."""

    sides: tuple[tuple[str, SurfaceSide], ...]

    @property
    def reduced(self) -> tuple[str, ...]:
        return tuple(l for l, s in self.sides if s is SurfaceSide.FUTURE)

    def contains_past_of(self, other: "HkRegion") -> bool:
        """True iff ``other``'s future set is a subset of this region's,
        i.e. ``other`` lies in this region's past."""
        mine = set(self.reduced)
        return set(other.reduced) <= mine


def hk_region_of(e: Event, s: Scenario, labels: tuple[str, ...]) -> HkRegion:
    """Region of a spacetime point; points exactly on a cone are errors
    since the delta-limit convention makes regions open sets."""
    sides = []
    for label in labels:
        cone = Lcsh(t0=geometry.MINUS_INFINITY, apexes=(s.detector(label).at,), c=s.c)
        side = geometry.event_side_of_surface(e, cone)
        if side is SurfaceSide.ON:
            raise AmbiguousRegionError(
                f"point {e} lies exactly on the backward light cone of {label!r}"
            )
        sides.append((label, side))
    return HkRegion(tuple(sides))


def _pure_spinor(state: StateVector, label: str) -> np.ndarray:
    """Extract the pure single-subsystem state; error if entangled."""
    axis = state.axis_of(label)
    dims = state.dims
    psi = np.moveaxis(state.amplitudes.reshape(dims), axis, 0).reshape(dims[axis], -1)
    rho = psi @ psi.conj().T
    w, v = np.linalg.eigh(rho)
    if w[-1] < 1.0 - 1e-9:
        raise PhysicsError(
            f"subsystem {label!r} is not in a pure product state (purity {w[-1]:.3g})"
        )
    vec = v[:, -1]
    k = int(np.argmax(np.abs(vec)))
    return vec * (abs(vec[k]) / vec[k])


def _duplicate_onto(state: StateVector, source: str, target: str) -> StateVector:
    """Basis-matched copy: map the target's (pure) ready state onto an
    exact duplicate of the source's pure regional state."""
    src = _pure_spinor(state, source)
    ready = _pure_spinor(state, target)
    src_perp = np.array([-src[1].conjugate(), src[0].conjugate()])
    ready_perp = np.array([-ready[1].conjugate(), ready[0].conjugate()])
    u = np.outer(src, ready.conj()) + np.outer(src_perp, ready_perp.conj())
    return hilbert.apply_unitary(state, u, (target,))


def hk_state(
    s: Scenario,
    outcomes: dict[str, str],
    region: HkRegion,
) -> StateVector:
    """Regional state: the initial state reduced by every detector whose
    cone-side is Future (they commute), with the copy interactions lying in
    the region's past applied as basis-matched duplications."""
    state = s.initial
    for label in s.detector_labels:
        for l, side in region.sides:
            if l == label and side is SurfaceSide.FUTURE:
                if label not in outcomes:
                    raise ConfigurationError(
                        f"region reduces detector {label!r} but no outcome was fixed"
                    )
                state = apply_detector(state, s.detector(label), outcomes[label])
    considered = tuple(l for l, _ in region.sides)
    for ev in _in_time_order(s.interactions):
        ev_region = hk_region_of(ev.at, s, considered)
        if not region.contains_past_of(ev_region):
            continue
        if ev.gate and ev.gate.get("kind", "").startswith("copy"):
            core = _duplicate_onto(state.core, ev.gate["source"], ev.gate["target"])
            state = BranchState(state.subsystems, core, state.registers)
        else:
            state = state.interact(ev)
    return state.canonical().materialize()


class HkComparison(Record):
    """The conditional probability both prescriptions predict for the
    final detector (see ``hk_copy_inconsistency``)."""

    hk_conditional: float
    psv_conditional: float


def hk_copy_inconsistency(
    axis_a: Axis,
    axis_b: Axis,
    copy_basis: Axis = hilbert.Z_AXIS,
) -> HkComparison:
    """Reproduce the inconsistency demonstration on the singlet with
    copies: given A measured + along its axis and B measured + along its
    axis, both prescriptions predict the probability that the final
    detector finds the copies anticorrelated with those results
    (c1 opposite to B's axis, c2 opposite to A's axis).

    HK forwards basis-matched duplicates of the regional states, forcing
    this probability to 1.  The engine's value is in general below 1.
    Each copy reads its source's state in the HK region of its own copy
    event.
    """
    scenario = scenarios.singlet(axis_a, axis_b, with_copies=True, copy_basis=copy_basis)
    outcomes = {"A": "+", "B": "+"}
    final_axes = dict(zip(scenario.detector("C").outcomes.targets, (axis_b, axis_a)))

    hk = 1.0
    for ev in scenario.interactions:
        target = ev.gate["target"]
        region = hk_region_of(ev.at, scenario, ("A", "B"))
        copy = _pure_spinor(hk_state(scenario, outcomes, region), target)
        hk *= abs(np.vdot(hilbert.axis_eigenstate(final_axes[target], -1), copy)) ** 2

    dist = joint_distribution(scenario, ("A", "B", "C"))
    denominator = sum(
        p for key, p in dist.probabilities.items() if key[0] == "+" and key[1] == "+"
    )
    if denominator <= hilbert.EPS_PROB:
        raise PhysicsError(
            "outcomes A=+ and B=+ have zero joint probability for these axes"
        )
    psv = dist.probability(("+", "+", "--")) / denominator
    return HkComparison(hk, psv)
