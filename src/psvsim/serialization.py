"""JSON schemas for scenarios, states, run records and distributions.

Events serialize as {"t": number, "x": [number, ...]}, axes as
{"theta": ..., "phi": ...}, complex matrices and amplitude vectors as
nested [re, im] pairs.  Scalar and label-list fields are type-checked as read.
"""

from __future__ import annotations

import itertools
import math
from typing import Any

import numpy as np

from . import scenarios
from .engine import (
    BranchState,
    DetectorEvent,
    EmpiricalDistribution,
    InteractionEvent,
    JointDistribution,
    RunRecord,
    Scenario,
    StepRecord,
)
from .errors import ConfigurationError
from .geometry import Event, Lcsh
from .hilbert import Axis, OutcomeSet, StateVector, SubsystemKind, SubsystemSpec

MINUS_INFINITY_TOKEN = "minus_infinity"
_NUMBER = (int, float)
_TYPE_NAMES = {_NUMBER: "a number", int: "an integer", bool: "true or false", list: "a list", str: "a string"}


def _typed(v: Any, kind: type | tuple[type, ...], what: str) -> Any:
    """``v`` if it has JSON type ``kind``.  A JSON true or false is a bool
    only, never a number, though Python counts bools as ints."""
    if not isinstance(v, kind) or (isinstance(v, bool) and kind is not bool):
        raise TypeError(f"{what} must be {_TYPE_NAMES[kind]}, got {v!r}")
    return v


def _labels(v: Any, what: str) -> tuple[str, ...]:
    """A label list, never a string read as a list of letters."""
    return tuple(_typed(label, str, f"{what} entry") for label in _typed(v, list, what))


def event_to_dict(e: Event) -> dict:
    return {"t": e.t, "x": list(e.x)}


def event_from_dict(d: dict) -> Event:
    x = tuple(_typed(v, _NUMBER, "event x entry") for v in _typed(d["x"], list, "event x"))
    return Event(_typed(d["t"], _NUMBER, "event t"), x)


def axis_to_dict(a: Axis) -> dict:
    return {"theta": a.theta, "phi": a.phi}


def axis_from_dict(d: dict) -> Axis:
    return Axis(theta=d["theta"], phi=d.get("phi", 0.0))


def _complex_to_pairs(a: np.ndarray) -> list:
    stacked = np.stack([a.real, a.imag], axis=-1)
    return stacked.tolist()


def _pairs_to_complex(pairs: Any) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.shape[-1:] != (2,):
        raise ValueError(f"complex entries must be [re, im] pairs, got shape {arr.shape}")
    with np.errstate(invalid="ignore"):  # 1j * inf is a NaN, which the finiteness checks reject
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
    return SubsystemSpec(d["label"], _typed(d["dim"], int, "subsystem dim"), SubsystemKind(d["kind"]))


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
        targets = _labels(d["subsystems"], "interaction subsystems")
    return InteractionEvent(d["name"], event_from_dict(d["at"]), targets, unitary, gate=gate)


def detector_to_dict(det: DetectorEvent) -> dict:
    return {
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


def detector_from_dict(d: dict) -> DetectorEvent:
    entries = d["projectors"]
    outcomes = OutcomeSet(
        targets=_labels(d["targets"], "detector targets"),
        outcomes=tuple((e["label"], _pairs_to_complex(e["matrix"])) for e in entries),
    )
    return DetectorEvent(
        d["label"], event_from_dict(d["at"]), outcomes, d["register"],
        absorbing=_typed(d.get("absorbing", False), bool, "detector absorbing"),
        pointers=tuple(e.get("pointer", i + 1) for i, e in enumerate(entries)),
    )


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "dim": s.dim,
        "c": s.c,
        "subsystems": [subsystem_to_dict(sub) for sub in s.subsystems],
        "initial_state": state_to_dict(s.initial.materialize()),
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
    """Build a scenario, which validates it.  The top-level
    ``"subsystems"`` must equal the initial state's in label, dim and kind;
    the dense initial state must be finite, and ``BranchState.split``
    factors its registers out.  A missing or ill-typed field raises
    ConfigurationError, as every failed validation does."""
    try:
        t0 = d.get("initial_surface", {}).get("t0", MINUS_INFINITY_TOKEN)
        initial = state_from_dict(d["initial_state"])
        if tuple(subsystem_from_dict(s) for s in d["subsystems"]) != initial.subsystems:
            raise ConfigurationError("initial state subsystems do not match scenario subsystems")
        if not np.isfinite(initial.amplitudes).all():
            raise ConfigurationError("initial state has a non-finite amplitude")
        return Scenario(
            dim=_typed(d["dim"], int, "dim"),
            c=_typed(d.get("c", 1.0), _NUMBER, "c"),
            initial=BranchState.split(initial),
            initial_t0=(-math.inf if t0 == MINUS_INFINITY_TOKEN
                        else float(_typed(t0, _NUMBER, "initial_surface t0"))),
            interactions=tuple(interaction_from_dict(ev) for ev in d.get("interactions", [])),
            detectors=tuple(detector_from_dict(det) for det in d["detectors"]),
            charged_modes=_labels(d.get("charged_modes", []), "charged_modes"),
            worldlines=tuple(
                (w["label"], tuple(event_from_dict(p) for p in w["points"]))
                for w in d.get("worldlines", [])
            ),
        )
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ConfigurationError(f"malformed scenario: {type(exc).__name__}: {exc}") from exc


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
