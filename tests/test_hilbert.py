import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from _oracles import charge_expectation, schmidt_rank, states_close
from psvsim import hilbert
from psvsim.errors import ConfigurationError, ImpossibleBranchError
from psvsim.hilbert import (
    Axis,
    OutcomeSet,
    StateVector,
    SubsystemKind,
    SubsystemSpec,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    apply_unitary,
    axis_eigenstate,
    basis_state,
    born_probability,
    phase_canonical,
    project_and_normalize,
    spin_outcome_set,
    spin_projector,
    tensor,
)

angle = st.floats(0.0, math.pi, allow_nan=False)
phase = st.floats(-math.pi, math.pi, allow_nan=False)

SPIN = SubsystemSpec("s", 2, SubsystemKind.SPIN)
SPIN2 = SubsystemSpec("t", 2, SubsystemKind.SPIN)
REG = SubsystemSpec("R", 3, SubsystemKind.REGISTER)


def random_state(subsystems, seed):
    rng = np.random.default_rng(seed)
    n = math.prod(s.dim for s in subsystems)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return StateVector(tuple(subsystems), v / np.linalg.norm(v))


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_subsystem_validation():
    with pytest.raises(ConfigurationError):
        SubsystemSpec("x", 3, SubsystemKind.SPIN)
    with pytest.raises(ConfigurationError):
        SubsystemSpec("x", 3, SubsystemKind.MODE)
    with pytest.raises(ConfigurationError):
        SubsystemSpec("x", 1, SubsystemKind.REGISTER)
    SubsystemSpec("x", 7, SubsystemKind.REGISTER)


def test_state_vector_validation():
    with pytest.raises(ConfigurationError):
        StateVector((SPIN,), np.zeros(3))
    with pytest.raises(ConfigurationError):
        StateVector((SPIN, SPIN), np.zeros(4))  # duplicate labels


def test_state_vector_is_immutable():
    st_ = basis_state((SPIN, REG))
    with pytest.raises(ValueError):
        st_.amplitudes[0] = 5.0


def test_basis_state_and_tensor():
    st_ = basis_state((SPIN, REG), {"R": 2})
    assert st_.amplitudes[2] == 1.0
    assert st_.norm == 1.0
    joint = tensor(basis_state((SPIN,), {"s": 1}), basis_state((REG,)))
    assert joint.labels == ("s", "R")
    assert joint.amplitudes[3] == 1.0
    with pytest.raises(ConfigurationError):
        tensor(basis_state((SPIN,)), basis_state((SPIN,)))


def test_phase_canonical():
    st_ = StateVector((SPIN,), np.array([0.6j, -0.8]))
    canon = phase_canonical(st_)
    k = int(np.argmax(np.abs(canon.amplitudes)))
    assert canon.amplitudes[k].imag == pytest.approx(0.0, abs=1e-15)
    assert canon.amplitudes[k].real > 0
    assert states_close(phase_canonical(canon), canon, tol=1e-15)
    # zero vector passes through untouched
    z = StateVector((SPIN,), np.zeros(2))
    assert phase_canonical(z) is z


@settings(max_examples=200, deadline=None)
@given(phase, phase, st.floats(0.0, 0.5), st.integers(0, 2))
def test_phase_canonical_is_idempotent_on_ties(a, b, rest, at):
    """Two amplitudes of equal modulus tie up to rounding; the canonical
    index must not move when the state is canonicalized again."""
    amps = np.full(3, rest, dtype=complex)
    amps[[at, (at + 1) % 3]] = 0.6 * np.exp(1j * np.array([a, b]))
    st_ = StateVector((REG,), amps)
    canon = phase_canonical(st_)
    assert np.abs(phase_canonical(canon).amplitudes - canon.amplitudes).max() <= 1e-15
    assert states_close(st_, canon)
    assert states_close(canon, StateVector((REG,), amps * np.exp(1j * b)))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.booleans(), st.integers(0, 10_000))
def test_phase_canonical_again_keeps_its_index_and_moves_amplitudes_by_ulps(n, ghz, seed):
    """A second call picks the same tie-broken index and moves each
    amplitude by at most a few ulp of its modulus; its bits may change."""
    rng = np.random.default_rng(seed)
    if ghz:  # two moduli that tie, at generic phases
        amps = np.zeros(2**n, dtype=complex)
        amps[[0, -1]] = np.exp(1j * rng.uniform(0.0, 2 * math.pi, 2)) / math.sqrt(2.0)
    else:
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    spins = tuple(SubsystemSpec(f"s{i}", 2, SubsystemKind.SPIN) for i in range(n))
    once = phase_canonical(StateVector(spins, amps)).amplitudes
    twice = phase_canonical(StateVector(spins, once)).amplitudes

    def index(a):
        mags = np.abs(a)
        return int(np.argmax(mags >= mags.max() * (1.0 - hilbert.EPS_TIE)))

    assert index(amps) == index(once) == index(twice)
    assert (np.abs(twice - once) <= 4 * np.spacing(np.abs(once))).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_unitary_preserves_norm(seed):
    st_ = random_state((SPIN, SPIN2, REG), seed)
    u = random_unitary(4, seed + 1)
    out = apply_unitary(st_, u, ("s", "t"))
    assert out.norm == pytest.approx(1.0, abs=1e-12)


@st.composite
def matrix_targets(draw):
    """(dims, target positions, seed): up to four spins and registers, and
    one to three targets, half of them adjacent and in order."""
    dims = draw(st.lists(st.sampled_from((2, 3)), min_size=1, max_size=4))
    k = draw(st.integers(1, min(3, len(dims))))
    if draw(st.booleans()):
        first = draw(st.integers(0, len(dims) - k))
        targets = list(range(first, first + k))
    else:
        targets = draw(st.permutations(range(len(dims))))[:k]
    return dims, targets, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(matrix_targets())
def test_apply_matrix_matches_the_kron_oracle(case):
    dims, targets, seed = case
    subsystems = tuple(
        SubsystemSpec(f"q{k}", d, SubsystemKind.SPIN if d == 2 else SubsystemKind.REGISTER)
        for k, d in enumerate(dims))
    state = random_state(subsystems, seed)
    block = math.prod(dims[t] for t in targets)
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(block, block)) + 1j * rng.normal(size=(block, block))
    out = hilbert._apply_matrix(state, matrix, tuple(f"q{t}" for t in targets))
    expect = _oracles.kron_embed(matrix, targets, dims) @ state.amplitudes
    assert out.labels == state.labels
    assert np.abs(out.amplitudes - expect).max() <= 1e-12 * max(1.0, np.abs(expect).max())


def _well_formed(state, subsystems):
    """A returned state is over ``subsystems`` and holds a flat, complex,
    read-only vector of the product of their dims."""
    amps = state.amplitudes
    assert state.subsystems == subsystems and state.dims == tuple(s.dim for s in subsystems)
    assert state.labels == tuple(s.label for s in subsystems)
    assert amps.ndim == 1 and amps.dtype == complex and not amps.flags.writeable
    assert amps.size == math.prod(state.dims)


def _check_layout(layout, seed):
    """Every primitive on a random state over a fresh subsystem tuple with
    ``layout``'s (label, dim) pairs matches the kron oracle.  Nothing here
    outlives the call, so the next call's tuple may reuse this one's id."""
    rng = np.random.default_rng(seed)
    subsystems = tuple(SubsystemSpec(l, d, SubsystemKind.SPIN if d == 2 else SubsystemKind.REGISTER)
                       for l, d in layout)
    labels = [l for l, _ in layout]
    dims = [d for _, d in layout]
    state = random_state(subsystems, seed)
    for targets in (("a",), ("a", "c"), ("c", "a"), ("b", "c"), ("a", "b", "c")):
        if not set(targets) <= set(labels):
            continue
        positions = [labels.index(t) for t in targets]
        block = math.prod(dims[p] for p in positions)
        u = random_unitary(block, seed)
        out = apply_unitary(state, u, targets)
        _well_formed(out, subsystems)
        expect = _oracles.kron_embed(u, positions, dims) @ state.amplitudes
        assert np.abs(out.amplitudes - expect).max() <= 1e-12
        v = rng.normal(size=block) + 1j * rng.normal(size=block)
        p = np.outer(v, v.conj()) / np.vdot(v, v).real
        outcomes = OutcomeSet(targets, (("v", p), ("rest", np.eye(block) - p)))
        projected = _oracles.kron_embed(p, positions, dims) @ state.amplitudes
        prob = np.vdot(projected, projected).real
        assert born_probability(state, outcomes, "v") == pytest.approx(prob, abs=1e-12)
        after = project_and_normalize(state, outcomes, "v")
        _well_formed(after, subsystems)
        assert states_close(after, StateVector(subsystems, projected / math.sqrt(prob)), tol=1e-12)
        _well_formed(phase_canonical(after), subsystems)


def test_layouts_are_keyed_by_value_when_labels_are_reused():
    """``_apply_matrix`` caches one layout per (labels, dims, targets).
    Subsystem tuples built afresh in one process reuse the labels a, b, c
    with other dims and in other orders, and a freed tuple's id is
    recycled by the next one of its length; each must still map like the
    kron oracle."""
    layouts = ((("a", 2), ("b", 3), ("c", 2)), (("a", 3), ("b", 2), ("c", 2)),
               (("c", 2), ("a", 2), ("b", 3)), (("b", 2), ("c", 3), ("a", 2)),
               (("a", 2), ("c", 2)), (("c", 3), ("a", 2)), (("a", 2), ("c", 3)))
    for seed, layout in enumerate(layouts * 2):
        _check_layout(layout, seed)


def test_every_state_hilbert_returns_is_flat_complex_and_read_only():
    st_ = random_state((SPIN, REG), 2)
    _well_formed(basis_state((SPIN, REG), {"R": 1}), (SPIN, REG))
    _well_formed(tensor(basis_state((SPIN,)), basis_state((REG,))), (SPIN, REG))
    _well_formed(StateVector((SPIN, REG), np.arange(6).reshape(2, 3)), (SPIN, REG))
    _well_formed(phase_canonical(st_), (SPIN, REG))
    _well_formed(apply_unitary(st_, random_unitary(3, 1), ("R",)), (SPIN, REG))
    _well_formed(apply_unitary(st_, random_unitary(6, 1), ("R", "s")), (SPIN, REG))
    _well_formed(project_and_normalize(st_, spin_outcome_set("s", X_AXIS), "+"), (SPIN, REG))


def test_the_constructor_checks_a_caller_amplitude_array():
    out = StateVector((SPIN, REG), np.ones(6))
    assert out.dims == (2, 3) and out.amplitudes.dtype == complex
    assert not out.amplitudes.flags.writeable
    with pytest.raises(ConfigurationError, match="amplitude length 5"):
        StateVector((SPIN, REG), np.ones(5))


def test_apply_unitary_targets_correct_subsystem():
    st_ = basis_state((SPIN, SPIN2))
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    out = apply_unitary(st_, flip, ("t",))
    assert out.amplitudes[1] == 1.0  # index (s=0, t=1)


def test_axis_constants():
    assert np.allclose(Axis.from_xyz((0, 0, 1)).xyz, Z_AXIS.xyz)
    assert np.allclose(X_AXIS.xyz, (1, 0, 0), atol=1e-15)
    assert np.allclose(Y_AXIS.xyz, (0, 1, 0), atol=1e-15)
    with pytest.raises(ConfigurationError):
        Axis.from_xyz((1, 1, 0))


@given(angle, phase)
def test_axis_eigenstates_orthonormal(theta, phi):
    ax = Axis(theta, phi)
    plus, minus = axis_eigenstate(ax, +1), axis_eigenstate(ax, -1)
    assert abs(np.vdot(plus, plus) - 1) < 1e-12
    assert abs(np.vdot(minus, minus) - 1) < 1e-12
    assert abs(np.vdot(plus, minus)) < 1e-12


@given(angle, angle)
def test_coplanar_overlap_law(t1, t2):
    p1 = axis_eigenstate(Axis(t1), +1)
    p2 = axis_eigenstate(Axis(t2), +1)
    assert abs(np.vdot(p1, p2)) ** 2 == pytest.approx(
        math.cos((t1 - t2) / 2) ** 2, abs=1e-12
    )


def test_spin_projector_completeness():
    ax = Axis(1.1, 0.3)
    p = spin_projector(ax, +1) + spin_projector(ax, -1)
    assert np.abs(p - np.eye(2)).max() < 1e-12


def test_outcome_set_validation():
    good = spin_outcome_set("s", X_AXIS)
    assert good.labels == ("+", "-")
    half = np.eye(2) * 0.5
    with pytest.raises(ConfigurationError):  # not idempotent
        OutcomeSet(("s",), (("a", half), ("b", np.eye(2) - half)))
    p0 = np.diag([1.0, 0.0])
    with pytest.raises(ConfigurationError):  # incomplete
        OutcomeSet(("s",), (("a", p0),))
    with pytest.raises(ConfigurationError):  # not orthogonal
        OutcomeSet(("s",), (("a", p0), ("b", np.eye(2))))
    with pytest.raises(ConfigurationError):  # not Hermitian
        OutcomeSet(("s",), (("a", np.array([[1, 1], [0, 0]])),
                            ("b", np.array([[0, -1], [0, 1]]))))
    with pytest.raises(ConfigurationError):
        good.projector("nope")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), angle, phase)
def test_born_probabilities_sum_to_one(seed, theta, phi):
    st_ = random_state((SPIN, SPIN2), seed)
    outcomes = spin_outcome_set("s", Axis(theta, phi))
    total = sum(born_probability(st_, outcomes, l) for l in outcomes.labels)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_project_and_normalize():
    st_ = random_state((SPIN, SPIN2), 5)
    outcomes = spin_outcome_set("s", Z_AXIS)
    out = project_and_normalize(st_, outcomes, "+")
    assert out.norm == pytest.approx(1.0, abs=1e-12)
    # projecting again is a no-op up to phase
    assert states_close(project_and_normalize(out, outcomes, "+"), out, tol=1e-12)
    with pytest.raises(ImpossibleBranchError):
        project_and_normalize(out, outcomes, "-")


def test_charge_expectation():
    mode = SubsystemSpec("m1", 2, SubsystemKind.MODE)
    mode2 = SubsystemSpec("m2", 2, SubsystemKind.MODE)
    occupied = basis_state((mode, mode2), {"m1": 1})
    assert charge_expectation(occupied, ("m1", "m2")) == pytest.approx(1.0)
    both = basis_state((mode, mode2), {"m1": 1, "m2": 1})
    assert charge_expectation(both, ("m1", "m2")) == pytest.approx(2.0)
    split = StateVector((mode, mode2),
                        np.array([0, 1, 1, 0]) / math.sqrt(2))
    assert charge_expectation(split, ("m1", "m2")) == pytest.approx(1.0)


def test_schmidt_rank():
    prod = basis_state((SPIN, SPIN2), {"s": 1})
    assert schmidt_rank(prod, ("s",)) == 1
    bell = StateVector((SPIN, SPIN2), np.array([1, 0, 0, 1]) / math.sqrt(2))
    assert schmidt_rank(bell, ("s",)) == 2


def test_states_close():
    a = basis_state((SPIN,))
    b = StateVector((SPIN,), a.amplitudes * np.exp(0.7j))
    assert states_close(a, b)
    assert not states_close(a, basis_state((SPIN,), {"s": 1}))
    assert not states_close(a, basis_state((SPIN2,)))
