"""JSON schemas for scenarios, states, run records and distributions.

Events serialize as {"t": number, "x": [number, ...]}, axes as
{"theta": ..., "phi": ...}, complex matrices and amplitude vectors as
nested [re, im] pairs.  Scalar and label-list fields are type-checked as read.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from typing import Any

import numpy as np

from . import hilbert, scenarios
from ._record import Record
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
#: An "amplitudes" key and the "[" of its list; ``re`` compiles it on the
#: first file read, not on import.
_AMPLITUDES_KEY = rb'"amplitudes"[ \t\n\r]*:[ \t\n\r]*\['
#: JSON whitespace, as ``bytes.strip`` takes it.
_SPACES = b" \t\n\r"
#: The head of a dense list its record length is guessed from, and the
#: fewest record lengths a repeating stretch must span to be cut: each cut
#: costs a Python step, which a few records' checks do not repay.
_PERIOD_SPAN, _MIN_COPIES = 4096, 16
#: The bytes a dense list is compared with itself in at a time, so no
#: temporary array grows with the file.
_CHUNK = 1 << 16
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
    return Axis(theta=_typed(d["theta"], _NUMBER, "axis theta"),
                phi=_typed(d.get("phi", 0.0), _NUMBER, "axis phi"))


def _complex_to_pairs(a: np.ndarray) -> list:
    stacked = np.stack([a.real, a.imag], axis=-1)
    return stacked.tolist()


def _float_pairs(v: Any, what: str) -> np.ndarray:
    """The [re, im] pairs nested in the lists ``v`` as a float array of
    shape (..., 2), read a nesting level at a time: lists of one length,
    or the numbers.  A number is a JSON number, as ``_typed`` takes one,
    never a bool or a string, though numpy reads either as a float."""
    shape, level = [], [v]
    while (kinds := {*map(type, level)}) == {list}:
        lengths = {*map(len, level)}
        if len(lengths) != 1:
            raise ValueError(f"complex entries must be [re, im] pairs, got lists of lengths {sorted(lengths)}")
        shape.append(lengths.pop())
        level = [*itertools.chain.from_iterable(level)]
    if not kinds <= {int, float}:
        for x in level:
            _typed(x, _NUMBER, f"{what} entry")
    if shape[-1:] != [2]:
        raise ValueError(f"complex entries must be [re, im] pairs, got shape {tuple(shape)}")
    return np.fromiter(level, dtype=float, count=len(level)).reshape(shape)


def _complex(pairs: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):  # 1j * inf is a NaN, which the finiteness checks reject
        return pairs[..., 0] + 1j * pairs[..., 1]


def surface_to_dict(s: Lcsh) -> dict:
    return {
        "t0": MINUS_INFINITY_TOKEN if math.isinf(s.t0) else s.t0,
        "apexes": [event_to_dict(a) for a in s.apexes],
        "c": s.c,
    }


def subsystem_to_dict(s: SubsystemSpec) -> dict:
    return {"label": s.label, "dim": s.dim, "kind": s.kind.value}


def subsystem_from_dict(d: dict) -> SubsystemSpec:
    return SubsystemSpec(_typed(d["label"], str, "subsystem label"),
                         _typed(d["dim"], int, "subsystem dim"), SubsystemKind(d["kind"]))


def state_to_dict(state: StateVector) -> dict:
    return {
        "subsystems": [subsystem_to_dict(s) for s in state.subsystems],
        "amplitudes": _complex_to_pairs(state.amplitudes),
    }


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
        if "unitary" in d:
            raise ConfigurationError(f"interaction {d['name']!r} has both a gate and a unitary")
        unitary = _gate_unitary(gate)
        targets = (_typed(gate["source"], str, "copy gate source"),
                   _typed(gate["target"], str, "copy gate target"))
        if "subsystems" in d and d["subsystems"] != list(targets):
            raise ConfigurationError(f"interaction {d['name']!r} subsystems {d['subsystems']!r} "
                                     f"are not its gate's source and target {list(targets)!r}")
    else:
        unitary = _complex(_float_pairs(d["unitary"], "unitary"))
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
        outcomes=tuple((e["label"], _complex(_float_pairs(e["matrix"], "projector matrix")))
                       for e in entries),
    )
    return DetectorEvent(
        d["label"], event_from_dict(d["at"]), outcomes,
        _typed(d["register"], str, "detector register"),
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
    """Build a scenario, which validates it.  The initial state's
    amplitude list is checked as ``StateVector`` checks one (distinct
    labels, then its length), the top-level ``"subsystems"`` must equal its
    subsystems in label, dim and kind, and its amplitudes must be finite;
    ``BranchState.from_nonzero`` then factors its registers out of its
    nonzero entries, so no dense 6^N tensor is built.  A missing or
    ill-typed field raises ConfigurationError, as every failed validation
    does."""
    try:
        t0 = d.get("initial_surface", {}).get("t0", MINUS_INFINITY_TOKEN)
        subsystems, index, values = _initial_amplitudes(d["initial_state"])
        if tuple(subsystem_from_dict(s) for s in d["subsystems"]) != subsystems:
            raise ConfigurationError("initial state subsystems do not match scenario subsystems")
        if not np.isfinite(values).all():
            raise ConfigurationError("initial state has a non-finite amplitude")
        return Scenario(
            dim=_typed(d["dim"], int, "dim"),
            c=_typed(d.get("c", 1.0), _NUMBER, "c"),
            initial=BranchState.from_nonzero(subsystems, index, values),
            initial_t0=(-math.inf if t0 == MINUS_INFINITY_TOKEN
                        else float(_typed(t0, _NUMBER, "initial_surface t0"))),
            interactions=tuple(interaction_from_dict(ev) for ev in d.get("interactions", [])),
            detectors=tuple(detector_from_dict(det) for det in d["detectors"]),
            charged_modes=_labels(d.get("charged_modes", []), "charged_modes"),
            worldlines=tuple(
                (_typed(w["label"], str, "worldline label"),
                 tuple(event_from_dict(p) for p in w["points"]))
                for w in d.get("worldlines", [])
            ),
        )
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ConfigurationError(f"malformed scenario: {type(exc).__name__}: {exc}") from exc


class _Runs(Record):
    """An amplitude list as runs: an (m, 2) float array of [re, im] pairs,
    and how many times in a row each pair stands in the list."""

    pairs: np.ndarray
    counts: np.ndarray


def _initial_amplitudes(d: dict) -> tuple[tuple[SubsystemSpec, ...], np.ndarray, np.ndarray]:
    """The initial state's subsystems, and the flat index and complex value
    of each of its amplitudes that is not +0+0j bit for bit, the list
    checked by ``hilbert.check_layout``.  A JSON list is read as runs of
    one pair each; each run is converted once, and only its nonzero runs
    are spelled out."""
    subsystems = tuple(subsystem_from_dict(s) for s in d["subsystems"])
    runs = d["amplitudes"]
    if type(runs) is not _Runs:
        pairs = _float_pairs(runs, "initial amplitude").reshape(-1, 2)
        runs = _Runs(pairs, np.ones(len(pairs), dtype=np.intp))
    values, counts = _complex(runs.pairs), runs.counts
    ends = np.cumsum(counts)
    hilbert.check_layout(subsystems, int(ends[-1]))
    keep = hilbert.nonzero_bits(values)
    reps = counts[keep]
    # Run r of the kept ones starts at list position ends[r] - reps[r] and
    # at output position sum(reps[:r]); each output position o is then
    # (start - its output start) + o.
    shift = (ends[keep] - reps) - (np.cumsum(reps) - reps)
    index = np.repeat(shift, reps) + np.arange(int(reps.sum()))
    return subsystems, index, np.repeat(values[keep], reps)


def scenario_from_json(data: bytes) -> Scenario:
    r"""``scenario_from_dict`` of a scenario file's bytes, read as
    ``json.load`` reads the file opened as UTF-8 text: a byte that is not
    UTF-8 raises ``UnicodeDecodeError``, and universal newlines make each
    "\r\n" and lone "\r" one "\n", which a JSON error's line, column and
    char count.  The initial state's dense amplitude list is read by
    ``_with_dense_amplitudes`` where its records fold, as runs of identical
    pairs: one copy of each run is decoded, and no array the size of the
    file is built.
    Where it cannot, the text takes the plain path as a whole, so every
    error is the one that path raises."""
    d = _with_dense_amplitudes(data)
    if d is None:
        text = data.decode("utf-8")
        d = json.loads(text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text)
    return scenario_from_dict(d)


def _with_dense_amplitudes(data: bytes) -> dict | None:
    r"""The scenario document ``json.loads`` would give of ``data``, with
    ``initial_state.amplitudes`` as ``_Runs``, or None.  The list's text, up
    to the first '"' or '}' (which no valid list reaches), is folded by
    ``_fold_records``; a list that does not fold is None.  The plain
    reader's scanner decodes the folded text and finds the list's end, and
    the plain path's converter must read it as a flat list of pairs, so
    each "[" after the list's own opens one, and each kept copy, which holds
    one "[" and, after its first "]", a ",", is one element and its
    separator: putting the dropped copies back gives the list as written.  The list's text is then replaced
    by a ``NaN`` before the rest is decoded and parsed; it must be the
    document's one constant and land at that key, so a list anywhere else, a
    repeated key, a byte that is not UTF-8 or an error in the rest is None.
    A "\r" the rest holds is JSON whitespace (a string cannot hold one), so
    it parses as the "\n" newline translation would make it."""
    m = re.search(_AMPLITUDES_KEY, data)
    if m is None:
        return None
    start = m.end() - 1
    found = [i for i in (data.find(b'"', start), data.find(b"}", start)) if i >= 0]
    end = min(found, default=len(data))
    folded = _fold_records(data, start, end)
    if folded is None:
        return None
    short, period, kept, copies = folded
    marker, constants = object(), []
    decoder = json.JSONDecoder(parse_constant=lambda token: constants.append(token) or marker)
    try:
        pairs, stop = decoder.raw_decode(short.decode("utf-8"))
        values = _float_pairs(pairs, "initial amplitude")
        if kept[-1] + period > stop or values.shape != (len(pairs), 2):
            return None
        # The check above puts every dropped copy before the list's end.
        d = decoder.decode((data[:start] + b"NaN" + data[stop + end - len(short):]).decode("utf-8"))
    except (TypeError, ValueError, OverflowError, RecursionError):  # UnicodeDecodeError is a ValueError
        return None
    state = d.get("initial_state") if type(d) is dict else None
    if len(constants) != 1 or type(state) is not dict or state.get("amplitudes") is not marker:
        return None
    opens = np.flatnonzero(np.frombuffer(short, dtype=np.uint8) == ord("["))
    counts = np.ones(len(pairs), dtype=np.intp)
    counts[np.searchsorted(opens, kept) - 1] = copies  # the list's own "[" is first
    state["amplitudes"] = _Runs(values, counts)
    return d


def _fold_records(data: bytes, start: int, end: int) -> tuple[bytes, int, list[int], list[int]] | None:
    """``data[start:end]``, the text from a dense list's "[" to the first
    '"' or '}' (which no valid list reaches), with each run of whole copies
    of one record cut to its first copy: the shorter text, the record
    length P, the start of each kept copy in it and its number of copies,
    or None if nothing was cut.  P is the commonest distance between "["
    bytes in the text's head, and ``_repeating_stretches`` finds where the
    text repeats with period P.  A stretch at least ``_MIN_COPIES`` P long
    is cut from its first "[" if the P bytes there hold no other "[" and,
    after their first "]", one "," amid whitespace.  ``data`` is read in
    place: only the shorter text is new."""
    head = np.frombuffer(data, dtype=np.uint8, count=min(end - start, _PERIOD_SPAN), offset=start)
    opens = np.flatnonzero(head == ord("["))
    if opens.size < 2:
        return None
    period = int(np.bincount(np.diff(opens)).argmax())
    pieces, kept, copies = [], [], []
    cut, dropped = start, 0  # where the text after the last dropped copy begins, and bytes dropped
    for first, last in _repeating_stretches(data, start, end, period):
        s = data.find(b"[", start + first, start + first + period)
        record = data[s:s + period]
        # One "[", and after the first "]" one "," amid whitespace (with no
        # "]" the slice is the whole record, which starts with "[").
        if s < 0 or record.count(b"[") != 1 or record[record.find(b"]") + 1:].strip(_SPACES) != b",":
            continue
        n = (start + last - s) // period + 1  # the copies at s, s + P, ... up to the stretch's end
        pieces.append(data[cut:s + period])
        kept.append(s - start - dropped)
        copies.append(n)
        cut, dropped = s + n * period, dropped + (n - 1) * period
    if not kept:
        return None
    pieces.append(data[cut:end])
    return b"".join(pieces), period, kept, copies


def _repeating_stretches(data: bytes, start: int, end: int, period: int) -> list[tuple[int, int]]:
    """The maximal stretches [first, last) of j with b[j + period] == b[j],
    for b = ``data[start:end]``, that are at least ``_MIN_COPIES`` periods
    long.  b is compared with itself shifted one ``_CHUNK`` at a time.  A
    chunk whose bytes all equal the shifted ones (one ``memcmp``) lies in a
    stretch; any other is compared byte by byte, after the last answer of
    the chunk before (False before the first), so a stretch's ends are
    where an answer differs from the one before it."""
    b = np.frombuffer(data, dtype=np.uint8, count=end - start, offset=start)
    n = b.size - period
    same = np.empty(_CHUNK + 1, dtype=bool)
    edges, prev = [np.zeros(0, dtype=np.intp)], False
    for lo in range(0, n, _CHUNK):
        m = min(_CHUNK, n - lo)
        at = start + lo
        if data[at:at + m] == data[at + period:at + period + m]:
            if not prev:
                edges.append(np.array([lo]))
            prev = True
            continue
        same[0] = prev
        np.equal(b[lo + period:lo + period + m], b[lo:lo + m], out=same[1:m + 1])
        edges.append(np.flatnonzero(same[1:m + 1] != same[:m]) + lo)
        prev = same[m]
    if prev:  # the last stretch runs to the end
        edges.append(np.array([n]))
    edges = np.concatenate(edges)
    firsts, lasts = edges[0::2], edges[1::2]
    wide = lasts - firsts >= _MIN_COPIES * period
    return list(zip(firsts[wide].tolist(), lasts[wide].tolist()))


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
