"""Reduction-order evolution engine.

A scenario is evolved surface by surface: each detector, taken in a chosen
reduction order, adjoins its backward light cone to the current surface,
any interaction unitary that newly entered the surface's past is applied,
and the detector projects the state and shifts its pointer register.
Spacelike-separated detectors may reduce in any order; joint outcome
distributions are order independent because all their projectors act on
disjoint subsystems.

Pointer registers only ever undergo basis permutations, so branch states
carry them as separate basis-state factors (``BranchState``); the full
tensor is built only where a state is observed.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, cached_property

import numpy as np

from . import geometry, hilbert
from ._record import Record
from .errors import ConfigurationError
from .geometry import Event, Lcsh, Separation, SurfaceSide
from .hilbert import OutcomeSet, StateVector, SubsystemKind, SubsystemSpec

#: A measurement is classified as a non-reduction when some outcome is
#: certain to within this tolerance (scenarios are exact; this absorbs
#: roundoff only).
EPS_CERT = 1e-9

MAX_DETECTORS_FOR_ENUMERATION = 8
MAX_BRANCHES = 10**6
MAX_SAMPLES = 10**9

#: ``sample`` draws its uniforms in chunks of this many, so its memory does
#: not grow with the number of samples.
SAMPLE_CHUNK = 1 << 16


class InteractionEvent(Record):
    """A unitary anchored at a spacetime point, e.g. an AA copy gate.  Its
    name is a non-empty string, and ``validate_scenario`` holds it unique
    within a scenario: records name the interactions they applied."""

    name: str
    at: Event
    targets: tuple[str, ...]
    unitary: np.ndarray
    gate: dict | None = None  # structured description for serialization

    def __post_init__(self):
        name, targets = self.name, self.targets
        if not (isinstance(name, str) and name):
            raise ConfigurationError(f"interaction name must be a non-empty string, got {name!r}")
        if type(targets) is not tuple or not targets or len(set(targets)) < len(targets):
            raise ConfigurationError(f"interaction {name!r} targets must be a non-empty "
                                     f"tuple of distinct labels, got {targets!r}")
        u = np.array(self.unitary, dtype=complex)
        if not np.isfinite(u).all():
            raise ConfigurationError(f"interaction {name!r} has a non-finite unitary entry")
        # u u^dagger = 1 within EPS_OP; an entry above 1, which could overflow it, fails first
        if not (u.ndim == 2 and len(u) == u.shape[1] and np.abs(u).max(initial=0) <= 1 + hilbert.EPS_OP
                and np.abs(u @ u.conj().T - np.eye(len(u))).max(initial=0) <= hilbert.EPS_OP):
            raise ConfigurationError(f"interaction {name!r} is not unitary")
        u.flags.writeable = False
        self.__dict__["unitary"] = u


class DetectorEvent(Record):
    """A local detector: an outcome set on the measured subsystems plus a
    pointer register.  ``pointers`` maps each outcome position to the
    register basis index recording it; index 0 is the ready state, reused
    by null ("nothing happened") outcomes, and any other index records one
    outcome alone.  The register is this detector's alone and starts at
    index 0 (``validate_scenario`` holds both), so it records this
    detector's outcome under every reduction order.  Labels are strings,
    the detector's non-empty, and pointers are integers >= 0.  Absorbing
    detectors digest the measured subsystems, resetting them to their 0
    basis state, so each of their projectors must fix one basis
    configuration (rank 1, diagonal)."""

    label: str
    at: Event
    outcomes: OutcomeSet
    register: str
    absorbing: bool = False
    pointers: tuple[int, ...] = ()

    def __post_init__(self):
        label, outcomes, pointers = self.label, self.outcomes, self.pointers
        if not (isinstance(label, str) and label):
            raise ConfigurationError(f"detector label must be a non-empty string, got {label!r}")
        if self.register in outcomes.targets:
            raise ConfigurationError(
                f"detector {label!r} register must be distinct from its targets"
            )
        if not pointers:
            pointers = self.__dict__["pointers"] = tuple(range(1, len(outcomes.outcomes) + 1))
        if len(pointers) != len(outcomes.outcomes):
            raise ConfigurationError(
                f"detector {label!r} has {len(pointers)} pointers for "
                f"{len(outcomes.outcomes)} outcomes"
            )
        if not all(isinstance(p, int) and not isinstance(p, bool) and p >= 0
                   for p in pointers):
            raise ConfigurationError(
                f"detector {label!r} pointers must be integers >= 0, got {pointers}"
            )
        for (a, p), (b, q) in itertools.combinations(zip(outcomes.labels, pointers), 2):
            if p == q != 0:
                raise ConfigurationError(
                    f"detector {label!r} outcomes {a!r} and {b!r} share pointer {p}"
                )
        for outcome, p in outcomes.outcomes if self.absorbing else ():
            diag = np.diag(p).real
            if (np.abs(p - np.diag(diag)).max() > hilbert.EPS_OP
                    or abs(diag.sum() - 1.0) > hilbert.EPS_OP):
                raise ConfigurationError(
                    f"absorbing detector {label!r} requires rank-1 basis projectors "
                    f"(outcome {outcome!r} is not one)"
                )

    def pointer_for(self, outcome: str) -> int:
        return self.pointers[self.outcomes.labels.index(outcome)]


class BranchState(Record):
    """A branch state with its pointer registers kept out of the amplitude
    tensor: ``core`` spans the non-register subsystems, and each register
    is a single-subsystem unit basis vector in ``registers``.

    Exact because registers never entangle: only a detector's pointer
    shift (a basis permutation) acts on them, which ``validate_scenario``
    enforces.  ``materialize`` rebuilds the full tensor in the order of
    ``subsystems`` with the core's phase; that dense form exists only in
    scenario files and in observed states.
    """

    subsystems: tuple[SubsystemSpec, ...]
    core: StateVector
    registers: dict[str, StateVector]

    @classmethod
    def from_nonzero(cls, subsystems: tuple[SubsystemSpec, ...], index: np.ndarray,
                     values: np.ndarray) -> "BranchState":
        """The factored state whose flat amplitude list over ``subsystems``
        holds ``values`` at the increasing flat positions ``index`` and
        +0+0j everywhere else; the list's length, the product of the dims,
        is the caller's to check (``hilbert.check_layout``).  Each register
        must sit in one basis state: every amplitude off the slice through
        the largest one (the first of them, as ``np.argmax`` of the full
        list picks it) is at most ``EPS_OP``, or the error names the first
        register on which the largest amplitude off the slice differs."""
        dims = tuple(sub.dim for sub in subsystems)
        is_reg = [sub.kind is SubsystemKind.REGISTER for sub in subsystems]
        mags = np.abs(values)
        k = int(np.argmax(mags)) if mags.size else 0
        peak = np.unravel_index(int(index[k]) if mags.size and mags[k] != 0 else 0, dims)
        # One subsystem's coordinate of every entry at a time: whether it is
        # on the slice, and its flat position in the core.
        on, at = np.ones(index.size, dtype=bool), np.zeros(index.size, dtype=np.intp)
        stride = math.prod(dims)
        for r, dim, p in zip(is_reg, dims, peak):
            stride //= dim
            axis = index // stride % dim
            if r:
                on &= axis == p
            else:
                at = at * dim + axis
        off = mags[~on]
        if off.size and off.max() > hilbert.EPS_OP:
            worst = np.unravel_index(int(index[~on][np.argmax(off)]), dims)
            label = next(sub.label for sub, r, i, p in zip(subsystems, is_reg, worst, peak)
                         if r and i != p)
            raise ConfigurationError(f"register {label!r} is not in a single basis state")
        registers = {sub.label: hilbert.basis_state((sub,), {sub.label: int(p)})
                     for sub, r, p in zip(subsystems, is_reg, peak) if r}
        core = tuple(sub for sub, r in zip(subsystems, is_reg) if not r)
        amps = np.zeros(math.prod(sub.dim for sub in core), dtype=complex)
        amps[at[on]] = values[on]
        return cls(subsystems, StateVector(core, amps), registers)

    def interact(self, ev: InteractionEvent) -> "BranchState":
        core = hilbert.apply_unitary(self.core, ev.unitary, ev.targets)
        return BranchState(self.subsystems, core, self.registers)

    def canonical(self) -> "BranchState":
        """Global phase fixed on the core by ``hilbert.phase_canonical``."""
        return BranchState(self.subsystems, hilbert.phase_canonical(self.core), self.registers)

    def materialize(self) -> StateVector:
        """The full tensor.  Register indices are fixed, so the core's
        amplitudes keep their order and a canonical core phase stays
        canonical."""
        psi = np.zeros(tuple(sub.dim for sub in self.subsystems), dtype=complex)
        registers = self.registers
        index = tuple(registers[sub.label].basis_index if sub.label in registers else slice(None)
                      for sub in self.subsystems)
        psi[index] = self.core.amplitudes.reshape(self.core.dims)
        return StateVector(self.subsystems, psi.reshape(-1))


class Scenario(Record):
    """A scenario, valid once built: ``__post_init__`` runs
    ``validate_scenario``.  ``initial`` is the factored state the engine
    starts every branch from."""

    dim: int
    c: float
    initial: BranchState
    initial_t0: float  # -inf allowed
    interactions: tuple[InteractionEvent, ...]
    detectors: tuple[DetectorEvent, ...]
    charged_modes: tuple[str, ...] = ()
    worldlines: tuple[tuple[str, tuple[Event, ...]], ...] = ()  # diagram rendering only

    def __post_init__(self):
        validate_scenario(self)

    @property
    def subsystems(self) -> tuple[SubsystemSpec, ...]:
        return self.initial.subsystems

    def initial_surface(self) -> Lcsh:
        return Lcsh(t0=self.initial_t0, apexes=(), c=self.c)

    def detector(self, label: str) -> DetectorEvent:
        for d in self.detectors:
            if d.label == label:
                return d
        raise ConfigurationError(f"unknown detector {label!r}")

    @property
    def detector_labels(self) -> tuple[str, ...]:
        return tuple(d.label for d in self.detectors)

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple(ev.at for ev in self.interactions) + tuple(d.at for d in self.detectors)

    @cached_property
    def _support_box(self) -> tuple[tuple[float, float], ...]:
        arr = np.array([e.x for e in self.events]) if self.events else np.zeros((1, self.dim))
        return tuple((arr[:, k].min() - 1.0, arr[:, k].max() + 1.0) for k in range(self.dim))

    def support_region(self) -> tuple[tuple[float, float], ...]:
        """Spatial bounding box of all anchored events (worldlines are not
        events), padded by 1 and built once."""
        return self._support_box

    @cached_property
    def _advances(self) -> dict[tuple[Lcsh, str], tuple[DetectorEvent, Lcsh, tuple]]:
        """``step``'s advances, keyed by (surface, detector label) and filled
        as it meets them.  Not a field: equality, hashing and repr ignore
        it, and ``dataclasses.replace`` starts a copy with an empty one."""
        return {}


def _check_factors(state: BranchState) -> None:
    """What ``BranchState.from_nonzero`` guarantees, checked for a state built by
    hand: the core spans the non-register subsystems in order, and each
    register is one basis state of its own subsystem."""
    core = tuple(sub for sub in state.subsystems if sub.kind is not SubsystemKind.REGISTER)
    if state.core.subsystems != core:
        raise ConfigurationError(f"initial core spans {state.core.labels}, not the "
                                 f"non-register subsystems {tuple(sub.label for sub in core)}")
    registers = {sub.label: sub for sub in state.subsystems if sub.kind is SubsystemKind.REGISTER}
    if state.registers.keys() != registers.keys():
        raise ConfigurationError(f"initial register factors {sorted(state.registers)} are not "
                                 f"the registers {sorted(registers)}")
    for label, factor in state.registers.items():
        nonzero = np.flatnonzero(factor.amplitudes)
        if (factor.subsystems != (registers[label],) or len(nonzero) != 1
                or factor.amplitudes[nonzero[0]] != 1):
            raise ConfigurationError(f"register {label!r} is not in a single basis state")


def validate_scenario(s: Scenario) -> None:
    # NaN slips through tolerance checks such as ``abs(x - 1) > EPS``.  Events,
    # unitaries, projectors and the initial surface with its speed of light
    # reject non-finite values when they are built.
    if not np.isfinite(s.initial.core.amplitudes).all():
        raise ConfigurationError("initial state has a non-finite amplitude")
    surface = s.initial_surface()
    for ev in s.events:
        if ev.dim != s.dim:
            raise ConfigurationError(f"event {ev} has dimension {ev.dim}, expected {s.dim}")
        if geometry.event_side_of_surface(ev, surface) is not SurfaceSide.FUTURE:
            raise ConfigurationError(f"event {ev} is not in the future of the initial surface")
    for label, line in s.worldlines:
        if not line or any(p.dim != s.dim for p in line):
            raise ConfigurationError(f"worldline {label!r} must have points of dimension {s.dim}")
    specs = {sub.label: sub for sub in s.subsystems}
    if len(specs) != len(s.subsystems):
        raise ConfigurationError(f"duplicate subsystem labels in {[sub.label for sub in s.subsystems]}")
    _check_factors(s.initial)
    seen = set()
    for ev in s.interactions:
        if ev.name in seen:
            raise ConfigurationError(f"duplicate interaction name {ev.name!r}")
        seen.add(ev.name)
        for t in ev.targets:
            if t not in specs:
                raise ConfigurationError(f"interaction {ev.name!r} targets unknown subsystem {t!r}")
            if specs[t].kind is SubsystemKind.REGISTER:
                raise ConfigurationError(f"interaction {ev.name!r} targets register {t!r}")
    seen, writers = set(), {}
    for d in s.detectors:
        if d.label in seen:
            raise ConfigurationError(f"duplicate detector label {d.label!r}")
        seen.add(d.label)
        for t in d.outcomes.targets + (d.register,):
            if t not in specs:
                raise ConfigurationError(f"detector {d.label!r} references unknown subsystem {t!r}")
        for t in d.outcomes.targets:
            if specs[t].kind is SubsystemKind.REGISTER:
                raise ConfigurationError(f"detector {d.label!r} measures register {t!r}")
        reg = specs[d.register]
        if reg.kind is not SubsystemKind.REGISTER:
            raise ConfigurationError(f"detector {d.label!r} register {d.register!r} is not a register")
        if max(d.pointers) >= reg.dim:
            raise ConfigurationError(
                f"detector {d.label!r} pointer {max(d.pointers)} exceeds register dim {reg.dim}"
            )
        # a shift swaps index 0 and the outcome's: it records only on a register at 0 no one else moves
        if d.register in writers:
            raise ConfigurationError(f"detectors {writers[d.register]!r} and {d.label!r} "
                                     f"share register {d.register!r}")
        writers[d.register] = d.label
        ready = s.initial.registers[d.register].basis_index
        if ready != 0:
            raise ConfigurationError(f"detector {d.label!r} register {d.register!r} starts at "
                                     f"index {ready}, not its ready index 0")
    # hilbert trusts each operator's shape; an outcome set's projectors share one
    operators = [(f"interaction {ev.name!r} unitary", ev.unitary, ev.targets) for ev in s.interactions]
    operators += [(f"detector {d.label!r} projector", d.outcomes.outcomes[0][1], d.outcomes.targets)
                  for d in s.detectors]
    for what, op, targets in operators:
        side = math.prod(specs[t].dim for t in targets)
        if op.shape != (side, side):
            raise ConfigurationError(f"{what} has shape {op.shape}, expected ({side}, {side}) "
                                     f"for targets {targets}")
    for m in s.charged_modes:
        if m not in specs:
            raise ConfigurationError(f"unknown subsystem label {m!r}")
        if specs[m].kind is not SubsystemKind.MODE:
            raise ConfigurationError(f"charged subsystem {m!r} is not an occupation mode")
    norm = s.initial.core.norm
    if abs(norm - 1.0) > hilbert.EPS_NORM:
        raise ConfigurationError(f"initial state norm {norm} != 1")
    # One causal history per subsystem: every two events acting on it are
    # timelike, so each valid order applies them in one order.  A lightlike
    # pair is ordered too where ``step`` fixes it, with an interaction
    # first: on a detector's past cone it applies before the reduction, and
    # interactions on one light ray apply in time order.
    acting = [(f"interaction {ev.name!r}", ev.at, ev.targets, True) for ev in s.interactions]
    acting += [(f"detector {d.label!r}", d.at, d.outcomes.targets, False) for d in s.detectors]
    for pair in itertools.combinations(acting, 2):
        (a, ea, ta, interaction_first), (b, eb, tb, _) = sorted(pair, key=lambda e: (e[1].t, not e[3]))
        shared = [t for t in ta if t in tb]
        sep = geometry.classify(ea, eb, s.c) if shared else Separation.TIMELIKE
        if sep is Separation.SPACELIKE or sep is Separation.LIGHTLIKE and not interaction_first:
            raise ConfigurationError(f"{a} at {ea} and {b} at {eb} both act on subsystem "
                                     f"{shared[0]!r} but are {sep.value}")


# --- reduction orders ------------------------------------------------------

def validate_reduction_order(s: Scenario, order: tuple[str, ...]) -> list[tuple[str, str]]:
    """Violating detector pairs; empty list means the order is valid.

    Timelike pairs must reduce in time order.  Spacelike and lightlike
    pairs are unconstrained (delta-limit convention: lightlike counts as
    spacelike for ordering purposes).
    """
    if sorted(order) != sorted(s.detector_labels):
        raise ConfigurationError(
            f"order {order} is not a permutation of detectors {s.detector_labels}"
        )
    position = {label: i for i, label in enumerate(order)}
    violations = []
    for a, b in itertools.combinations(s.detector_labels, 2):
        da, db = s.detector(a), s.detector(b)
        if geometry.classify(da.at, db.at, s.c) is Separation.TIMELIKE:
            if (position[a] < position[b]) != (da.at.t < db.at.t):
                violations.append((a, b))
    return violations


def enumerate_valid_orders(s: Scenario) -> list[tuple[str, ...]]:
    n = len(s.detectors)
    if n > MAX_DETECTORS_FOR_ENUMERATION:
        raise ConfigurationError(
            f"refusing to enumerate orders for {n} detectors "
            f"(limit {MAX_DETECTORS_FOR_ENUMERATION})"
        )
    return [p for p in itertools.permutations(s.detector_labels)
            if not validate_reduction_order(s, p)]


# --- stepping --------------------------------------------------------------

@cache
def _swap(dim: int, index: int) -> np.ndarray:
    """Permutation swapping basis states 0 and ``index`` of a ``dim``-state
    space, built once per (dim, index) and read-only."""
    u = np.eye(dim, dtype=complex)
    u[[0, index]] = u[[index, 0]]
    u.flags.writeable = False
    return u


def _in_time_order(events):
    """Interactions sorted by (time, name).  Timelike pairs apply in time
    order; spacelike pairs commute, so this order is as good as any."""
    return sorted(events, key=lambda ev: (ev.at.t, ev.name))


def apply_detector(state: BranchState, det: DetectorEvent, outcome: str) -> BranchState:
    """Projection + pointer shift (+ absorption).  Shared with the
    Hellwig-Kraus comparator so both prescriptions use one primitive."""
    core = hilbert.project_and_normalize(state.core, det.outcomes, outcome)
    registers = state.registers
    pointer = det.pointer_for(outcome)
    if pointer != 0:
        factor = registers[det.register]
        shift = _swap(factor.dims[0], pointer)
        registers = {**registers, det.register: hilbert.apply_unitary(factor, shift, (det.register,))}
    if det.absorbing:
        p = det.outcomes.projector(outcome)
        config = int(np.argmax(np.diag(p).real))
        if config:
            # The projector fixed the measured configuration, so swapping it
            # with the empty configuration is an isometry on this branch.
            core = hilbert.apply_unitary(core, _swap(p.shape[0], config), det.outcomes.targets)
    return BranchState(state.subsystems, core, registers)


class StepRecord(Record):
    """One step of a run: the outcome taken and the surfaces and full
    states on either side of the detector's reduction."""

    detector: str
    outcome: str
    probability: float
    reduction: bool
    surface_before: Lcsh
    surface_after: Lcsh
    state_before: StateVector  # on S_k-, after due interactions
    state_after: StateVector   # on S_k+
    interactions_applied: tuple[str, ...]


class BranchNode(Record):
    """One expanded node of the outcome-branch tree: the state on S_k-
    and the Born probability of each of the detector's outcomes there."""

    detector: DetectorEvent
    surface_after: Lcsh
    state_before: BranchState  # on S_k-, after due interactions
    probabilities: tuple[float, ...]  # in ``detector.outcomes.labels`` order
    interactions_applied: tuple[str, ...]

    @property
    def reduction(self) -> bool:
        return not any(p >= 1.0 - EPS_CERT for p in self.probabilities)


def _future_of(e: Event, surface: Lcsh) -> bool:
    return geometry.event_side_of_surface(e, surface) is SurfaceSide.FUTURE


def step(s: Scenario, surface: Lcsh, state: BranchState, detector: str) -> BranchNode:
    """Expand one node: adjoin the detector's backward light cone to
    ``surface`` (the state's surface S_{k-1}), apply the interactions that
    lie in the future of S_{k-1} but not of the new surface S_k, and
    compute every outcome's Born probability.

    Interactions exactly on the new surface are applied before the
    reduction (they belong to the minus side).  Branching is left to the
    caller: ``apply_detector`` on ``state_before`` gives the state on S_k+
    for a chosen outcome.
    """
    # The new surface and the due interactions depend on the pair (surface,
    # detector) alone, which every node of one tree level shares: each pair
    # is worked out once per scenario.
    key = (surface, detector)
    advance = s._advances.get(key)
    if advance is None:
        det = s.detector(detector)
        new_surface = geometry.adjoin_apex(surface, det.at)
        due = tuple(_in_time_order(ev for ev in s.interactions if _future_of(ev.at, surface)
                                   and not _future_of(ev.at, new_surface)))
        advance = s._advances[key] = (det, new_surface, due)
    det, new_surface, due = advance
    for ev in due:
        state = state.interact(ev)
    state = state.canonical()
    probabilities = tuple(hilbert.born_probability(state.core, det.outcomes, l)
                          for l in det.outcomes.labels)
    return BranchNode(det, new_surface, state, probabilities, tuple(ev.name for ev in due))


class RunRecord(Record):
    """One path of the branch tree, as ``run`` walked it."""

    scenario: Scenario
    order: tuple[str, ...]
    steps: tuple[StepRecord, ...]
    final_state: StateVector  # at t = +inf (all remaining interactions applied)
    total_probability: float

    def outcomes(self) -> tuple[str, ...]:
        """Outcome labels in scenario detector declaration order."""
        by_det = {st.detector: st.outcome for st in self.steps}
        return tuple(by_det[l] for l in self.scenario.detector_labels)


def _checked_seed(seed: int) -> int:
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    return seed


def _require_valid(s: Scenario, order: tuple[str, ...]) -> None:
    violations = validate_reduction_order(s, order)
    if violations:
        raise ConfigurationError(
            f"reduction order {order} violates time order for timelike pairs {violations}"
        )


def run(
    s: Scenario,
    order: tuple[str, ...],
    outcomes: tuple[str, ...] | None = None,
    seed: int = 0,
) -> RunRecord:
    """Walk one path of the branch tree, then apply any remaining
    interactions (trivial Hamiltonian after the last event) to t = +inf.

    Each node is expanded once by ``step``; the branch taken is the fixed
    outcome, or is drawn from the node's Born probabilities with the
    stream ``default_rng(seed)``, one uniform per step.  The seed is
    checked either way, but no generator is built when every outcome is
    fixed.  The recorded states are full tensors.
    """
    _require_valid(s, order)
    if outcomes is not None and len(outcomes) != len(order):
        raise ConfigurationError("need one fixed outcome per detector in the order")
    seed = _checked_seed(seed)
    rng = np.random.default_rng(seed) if outcomes is None else None

    surface = s.initial_surface()
    state = s.initial
    steps: list[StepRecord] = []
    for k, label in enumerate(order):
        node = step(s, surface, state, label)
        labels = node.detector.outcomes.labels
        if outcomes is None:
            cum = np.cumsum(node.probabilities)
            outcome = labels[int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))]
        elif outcomes[k] in labels:
            outcome = outcomes[k]
        else:
            raise ConfigurationError(f"unknown outcome {outcomes[k]!r} for detector {label!r}")
        state = apply_detector(node.state_before, node.detector, outcome)
        steps.append(StepRecord(
            detector=label,
            outcome=outcome,
            probability=node.probabilities[labels.index(outcome)],
            reduction=node.reduction,
            surface_before=surface,
            surface_after=node.surface_after,
            state_before=node.state_before.materialize(),
            state_after=state.materialize(),
            interactions_applied=node.interactions_applied,
        ))
        surface = node.surface_after
    for ev in _in_time_order(ev for ev in s.interactions if _future_of(ev.at, surface)):
        state = state.interact(ev)
    total = math.prod(st.probability for st in steps) if steps else 1.0
    return RunRecord(s, tuple(order), tuple(steps), state.canonical().materialize(), total)


# --- exact enumeration and sampling ----------------------------------------

class JointDistribution(Record):
    """Exact probability map over outcome tuples, keyed in scenario
    detector declaration order."""

    detectors: tuple[str, ...]
    probabilities: dict[tuple[str, ...], float]

    def probability(self, key: tuple[str, ...]) -> float:
        return self.probabilities.get(tuple(key), 0.0)

    def max_deviation(self, other: "JointDistribution") -> float:
        keys = set(self.probabilities) | set(other.probabilities)
        return max((abs(self.probability(k) - other.probability(k)) for k in keys), default=0.0)


def joint_distribution(s: Scenario, order: tuple[str, ...]) -> JointDistribution:
    """Depth-first expansion of the whole branch tree, one ``step`` per
    node.  A child whose joint probability (the product of the step
    probabilities on its path) is at most ``EPS_PROB`` is pruned, so a
    listed leaf is possible under every valid order.  A leaf gets only
    that product; no state is built for it."""
    _require_valid(s, order)
    branch_bound = math.prod(len(s.detector(l).outcomes.outcomes) for l in order)
    if branch_bound > MAX_BRANCHES:
        raise ConfigurationError(f"{branch_bound} outcome branches exceed limit {MAX_BRANCHES}")
    probs: dict[tuple[str, ...], float] = {}
    declared = s.detector_labels

    def descend(surface, state, k, acc_prob, chosen):
        if k == len(order):
            by_det = dict(zip(order, chosen))
            probs[tuple(by_det[l] for l in declared)] = acc_prob
            return
        node = step(s, surface, state, order[k])
        last_level = k + 1 == len(order)
        for label, p in zip(node.detector.outcomes.labels, node.probabilities):
            joint = acc_prob * p
            if joint > hilbert.EPS_PROB:
                child = None if last_level else apply_detector(node.state_before, node.detector, label)
                descend(node.surface_after, child, k + 1, joint, chosen + (label,))

    descend(s.initial_surface(), s.initial, 0, 1.0, ())
    return JointDistribution(declared, probs)


class EmpiricalDistribution(Record):
    """Counts of n sampled runs over outcome tuples, keyed in scenario
    detector declaration order."""

    detectors: tuple[str, ...]
    counts: dict[tuple[str, ...], int]
    n: int


def sample(s: Scenario, order: tuple[str, ...], n: int, seed: int = 0) -> EmpiricalDistribution:
    """n independent sampled runs, 1 <= n <= ``MAX_SAMPLES``: the exact
    leaves, then one draw.

    The branch tree is expanded once by ``joint_distribution``.  Run i
    takes the i-th uniform of the single stream ``default_rng(seed)`` and
    lands on the leaf whose interval of the cumulative leaf probabilities
    (in ``joint_distribution`` order) holds it.  A worker can start at run
    i with ``Generator(PCG64(seed).advance(i))``, so parallel and serial
    execution give identical counts.  The uniforms are drawn in chunks of
    ``SAMPLE_CHUNK`` from that one stream, which splitting leaves
    unchanged.
    """
    if n < 1:
        raise ConfigurationError(f"sample count must be >= 1, got {n}")
    if n > MAX_SAMPLES:
        raise ConfigurationError(f"{n} samples exceed limit {MAX_SAMPLES}")
    rng = np.random.default_rng(_checked_seed(seed))
    dist = joint_distribution(s, order)
    keys = list(dist.probabilities)
    cum = np.cumsum(list(dist.probabilities.values()))
    tally = np.zeros(len(keys), dtype=np.int64)
    for start in range(0, n, SAMPLE_CHUNK):
        u = rng.random(min(SAMPLE_CHUNK, n - start)) * cum[-1]
        leaf = np.minimum(np.searchsorted(cum, u, side="right"), len(keys) - 1)
        tally += np.bincount(leaf, minlength=len(keys))
    return EmpiricalDistribution(
        dist.detectors, {k: int(c) for k, c in zip(keys, tally) if c}, n
    )


# --- transport to query surfaces -------------------------------------------

class UndefinedState(Record):
    """Marker for query surfaces on which no state vector exists because
    they cross a reduction surface."""

    reason: str


def state_on_hyperplane(
    record: RunRecord,
    query: Lcsh | float,
) -> StateVector | UndefinedState:
    """Transport the recorded history onto a query surface (a float is the
    flat surface t = query).

    Defined iff the query crosses no reduction surface of the record:
    for each reduction surface r, the query lies on or above r or on or
    below it over the scenario's ``support_region()``.  One
    ``geometry.compare_chain`` decides this for every reduction surface,
    since a run's step surfaces are nested.  The test is region-local: far
    outside the region the envelopes may still cross.  A reduction
    applies when the query covers its surface: lies on or above it and is
    not equal to it.  A query equal to a reduction surface S_k gets the
    S_k- state of the step that produced it: that reduction does not
    apply, so the answer depends on the order.  On the singlet's S_AB (the
    cones of A and B), order (A, B) gives the state with A's pointer set
    and order (B, A) the one with B's, and the two are orthogonal.  A query
    that touches a reduction surface without covering it depends on the
    order too, since a reduction surface holds the cones of every detector
    reduced before it.  Local pieces (interaction unitaries, non-reduction
    measurements) apply whenever their anchoring event is in the query's
    past.  Raises ``ConfigurationError`` for a query whose apexes have
    another spatial dimension or speed of light than the scenario.
    """
    s = record.scenario
    if not isinstance(query, Lcsh):
        query = Lcsh(t0=float(query), apexes=(), c=s.c)
    if query.apexes and query.dim != s.dim:
        raise ConfigurationError(
            f"query surface has dimension {query.dim}, scenario has {s.dim}"
        )
    if query.apexes and query.c != s.c:
        raise ConfigurationError(
            f"query surface has speed of light {query.c}, scenario has {s.c}"
        )
    region = s.support_region()

    reductions = [st for st in record.steps if st.reduction]
    sides = geometry.compare_chain(query, tuple(st.surface_after for st in reductions), region)
    reduced: dict[str, bool] = {}
    for st, (above, below) in zip(reductions, sides):
        if not (above or below):
            return UndefinedState(
                f"query surface crosses reduction surface of detector {st.detector!r}"
            )
        reduced[st.detector] = above and not below

    state = s.initial
    applied = {ev.name: ev for ev in s.interactions}
    for st in record.steps:
        for name in st.interactions_applied:
            ev = applied.pop(name)
            if not _future_of(ev.at, query):
                state = state.interact(ev)
        det = s.detector(st.detector)
        if st.reduction:
            if reduced[st.detector]:
                state = apply_detector(state, det, st.outcome)
        elif not _future_of(det.at, query):
            state = apply_detector(state, det, st.outcome)
    for ev in _in_time_order(applied.values()):
        if not _future_of(ev.at, query):
            state = state.interact(ev)
    return state.canonical().materialize()
