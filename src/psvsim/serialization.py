"""JSON schemas for scenarios, states, run records and distributions.

Events serialize as {"t": number, "x": [number, ...]}, axes as
{"theta": ..., "phi": ...} (accepted also as {"xyz": [...]}), complex
matrices and amplitude vectors as nested [re, im] pairs.
"""

from __future__ import annotations

import itertools
import math
from typing import Any

import numpy as np

from . import hilbert, scenarios
from .engine import (
    DetectorEvent,
    EmpiricalDistribution,
    InteractionEvent,
    JointDistribution,
    RunRecord,
    Scenario,
    StepRecord,
    validate_scenario,
)
from .errors import ConfigurationError
from .geometry import Event, Lcsh
from .hilbert import Axis, OutcomeSet, StateVector, SubsystemKind, SubsystemSpec

MINUS_INFINITY_TOKEN = "minus_infinity"


def event_to_dict(e: Event) -> dict:
    return {"t": e.t, "x": list(e.x)}


def event_from_dict(d: dict) -> Event:
    return Event(d["t"], tuple(d["x"]))


def axis_to_dict(a: Axis) -> dict:
    return {"theta": a.theta, "phi": a.phi}


def axis_from_dict(d: dict) -> Axis:
    if "xyz" in d:
        return Axis.from_xyz(d["xyz"])
    return Axis(theta=d["theta"], phi=d.get("phi", 0.0))


def _complex_to_pairs(a: np.ndarray) -> list:
    stacked = np.stack([a.real, a.imag], axis=-1)
    return stacked.tolist()


def _pairs_to_complex(pairs: Any) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.shape[-1:] != (2,):
        raise ValueError(f"complex entries must be [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def surface_to_dict(s: Lcsh) -> dict:
    return {
        "t0": MINUS_INFINITY_TOKEN if math.isinf(s.t0) else s.t0,
        "apexes": [event_to_dict(a) for a in s.apexes],
        "c": s.c,
    }


def subsystem_to_dict(s: SubsystemSpec) -> dict:
    return {"label": s.label, "dim": s.dim, "kind": s.kind.value}


def subsystem_from_dict(d: dict) -> SubsystemSpec:
    return SubsystemSpec(d["label"], d["dim"], SubsystemKind(d["kind"]))


def state_to_dict(state: StateVector) -> dict:
    return {
        "subsystems": [subsystem_to_dict(s) for s in state.subsystems],
        "amplitudes": _complex_to_pairs(state.amplitudes),
    }


def _amplitudes_to_complex(pairs: Any) -> np.ndarray:
    """``_pairs_to_complex`` of a flat amplitude list in one pass: a
    non-empty list of [re, im] lists is read by one ``np.fromiter`` over
    the chained pairs, without the nested shape discovery of
    ``np.asarray``.  Anything else, or a pair ``fromiter`` cannot read,
    goes through ``_pairs_to_complex`` and raises its errors."""
    if type(pairs) is list and pairs and {*map(type, pairs)} == {list} \
            and {*map(len, pairs)} == {2}:
        try:
            flat = np.fromiter(itertools.chain.from_iterable(pairs), dtype=float,
                               count=2 * len(pairs))
        except (TypeError, ValueError):
            pass
        else:
            return _pairs_to_complex(flat.reshape(-1, 2))
    return _pairs_to_complex(pairs)


def state_from_dict(d: dict) -> StateVector:
    return StateVector(
        tuple(subsystem_from_dict(s) for s in d["subsystems"]),
        _amplitudes_to_complex(d["amplitudes"]),
    )


def interaction_to_dict(ev: InteractionEvent) -> dict:
    d = {"name": ev.name, "at": event_to_dict(ev.at), "subsystems": list(ev.targets)}
    if ev.gate is not None:
        d["gate"] = ev.gate
    else:
        d["unitary"] = _complex_to_pairs(ev.unitary)
    return d


def _gate_unitary(gate: dict) -> np.ndarray:
    kind = gate.get("kind")
    if kind == "copy_occupation":
        return scenarios.occupation_copy_gate()
    if kind == "copy_spin":
        return scenarios.spin_copy_gate(axis_from_dict(gate["basis"]))
    raise ConfigurationError(f"unknown gate kind {kind!r}")


def interaction_from_dict(d: dict) -> InteractionEvent:
    gate = d.get("gate")
    if gate is not None:
        unitary = _gate_unitary(gate)
        targets = (gate["source"], gate["target"])
    else:
        unitary = _pairs_to_complex(d["unitary"])
        targets = tuple(d["subsystems"])
    return InteractionEvent(d["name"], event_from_dict(d["at"]), targets, unitary, gate=gate)


def detector_to_dict(det: DetectorEvent) -> dict:
    d = {
        "label": det.label,
        "at": event_to_dict(det.at),
        "register": det.register,
        "absorbing": det.absorbing,
        "targets": list(det.outcomes.targets),
        "projectors": [
            {"label": l, "matrix": _complex_to_pairs(p), "pointer": ptr}
            for (l, p), ptr in zip(det.outcomes.outcomes, det.pointers)
        ],
    }
    return d


def detector_from_dict(d: dict) -> DetectorEvent:
    if "axis" in d:
        axis = axis_from_dict(d["axis"])
        target = d.get("target") or d["targets"][0]
        outcomes = hilbert.spin_outcome_set(target, axis)
        pointers = tuple(d.get("pointers", (1, 2)))
    else:
        entries = d["projectors"]
        outcomes = OutcomeSet(
            targets=tuple(d["targets"]),
            outcomes=tuple((e["label"], _pairs_to_complex(e["matrix"])) for e in entries),
        )
        pointers = tuple(e.get("pointer", i + 1) for i, e in enumerate(entries))
    return DetectorEvent(
        d["label"], event_from_dict(d["at"]), outcomes, d["register"],
        absorbing=d.get("absorbing", False), pointers=pointers,
    )


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "dim": s.dim,
        "c": s.c,
        "subsystems": [subsystem_to_dict(sub) for sub in s.subsystems],
        "initial_state": state_to_dict(s.initial_state),
        "initial_surface": {
            "t0": MINUS_INFINITY_TOKEN if math.isinf(s.initial_t0) else s.initial_t0
        },
        "interactions": [interaction_to_dict(ev) for ev in s.interactions],
        "detectors": [detector_to_dict(d) for d in s.detectors],
        "charged_modes": list(s.charged_modes),
        "worldlines": [
            {"label": label, "points": [event_to_dict(p) for p in line]}
            for label, line in s.worldlines
        ],
    }


def scenario_from_dict(d: dict) -> Scenario:
    """Build and validate a scenario.  A missing or ill-typed field raises
    ConfigurationError, as every failed validation does."""
    try:
        t0 = d.get("initial_surface", {}).get("t0", MINUS_INFINITY_TOKEN)
        scenario = Scenario(
            dim=d["dim"],
            c=d.get("c", 1.0),
            subsystems=tuple(subsystem_from_dict(s) for s in d["subsystems"]),
            initial_state=state_from_dict(d["initial_state"]),
            initial_t0=-math.inf if t0 == MINUS_INFINITY_TOKEN else float(t0),
            interactions=tuple(interaction_from_dict(ev) for ev in d.get("interactions", [])),
            detectors=tuple(detector_from_dict(det) for det in d["detectors"]),
            charged_modes=tuple(d.get("charged_modes", [])),
            worldlines=tuple(
                (w["label"], tuple(event_from_dict(p) for p in w["points"]))
                for w in d.get("worldlines", [])
            ),
        )
        validate_scenario(scenario)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigurationError(f"malformed scenario: {type(exc).__name__}: {exc}") from exc
    return scenario


def step_to_dict(st: StepRecord) -> dict:
    return {
        "detector": st.detector,
        "outcome": st.outcome,
        "probability": st.probability,
        "reduction": st.reduction,
        "surface_before": surface_to_dict(st.surface_before),
        "surface_after": surface_to_dict(st.surface_after),
        "state_before": state_to_dict(st.state_before),
        "state_after": state_to_dict(st.state_after),
        "interactions_applied": list(st.interactions_applied),
    }


def run_record_to_dict(r: RunRecord) -> dict:
    return {
        "order": list(r.order),
        "outcomes": list(r.outcomes()),
        "steps": [step_to_dict(st) for st in r.steps],
        "final_state": state_to_dict(r.final_state),
        "total_probability": r.total_probability,
    }


def distribution_to_dict(d: JointDistribution) -> dict:
    return {
        "detectors": list(d.detectors),
        "entries": [
            {"outcomes": list(key), "probability": p}
            for key, p in sorted(d.probabilities.items())
        ],
    }


def empirical_to_dict(d: EmpiricalDistribution) -> dict:
    return {
        "detectors": list(d.detectors),
        "n": d.n,
        "entries": [
            {"outcomes": list(key), "count": c} for key, c in sorted(d.counts.items())
        ],
    }
