"""The scenario-file contract under mutation.  Any edit of a valid file
either loads and gives a distribution that sums to 1, or is a validation
error (exit 1) reported as one JSON object on stderr: never a traceback,
a warning (pytest turns warnings into errors) or another exit code."""

import functools
import gc
import importlib.util
import io
import itertools
import json
import math
import re
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from copy import deepcopy
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from psvsim import cli, engine, hilbert, scenarios, serialization
from psvsim.engine import BranchState, DetectorEvent, InteractionEvent, Scenario
from psvsim.geometry import Event
from psvsim.hilbert import Axis, StateVector, SubsystemKind, SubsystemSpec, X_AXIS, Z_AXIS


def _ghz(n: int) -> Scenario:
    """GHZ-n as a generated file holds it (spins s0.., one register each,
    detectors 6 apart), plus one interaction given as an explicit unitary
    before the detectors, in the past of both it acts on, and one after
    them, so matrix mutations reach a unitary the engine applies and one
    it never does."""
    spins = tuple(SubsystemSpec(f"s{k}", 2, SubsystemKind.SPIN) for k in range(n))
    regs = tuple(SubsystemSpec(f"R{k}", 3, SubsystemKind.REGISTER) for k in range(n))
    core = np.zeros(2**n, dtype=complex)
    core[0], core[-1] = 1 / math.sqrt(2.0), -1 / math.sqrt(2.0)
    rng = np.random.default_rng(3)
    u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    return Scenario(
        dim=1, c=1.0,
        initial=BranchState(spins + regs, StateVector(spins, core),
                            {r.label: hilbert.basis_state((r,)) for r in regs}),
        initial_t0=-math.inf,
        interactions=(InteractionEvent("early", Event(-5.0, (3.0,)), ("s0", "s1"), u),
                      InteractionEvent("late", Event(10.0, (6.0,)), ("s1", "s2"), u)),
        detectors=tuple(DetectorEvent(f"D{k}", Event(3.0, (6.0 * k,)),
                                      hilbert.spin_outcome_set(f"s{k}", Axis(0.4 * k, 0.3)),
                                      f"R{k}")
                        for k in range(n)),
    )


VALID = [serialization.scenario_to_dict(s) for s in (
    scenarios.split_particle(),
    scenarios.singlet(Z_AXIS, X_AXIS),
    scenarios.singlet(Z_AXIS, X_AXIS, with_copies=True),
    scenarios.ghz(),
    _ghz(3),
)]

_NUMBERS = (st.integers(-3, 3) | st.just(2**40) | st.just(10**9)
            | st.floats(allow_nan=True, allow_infinity=True))
_SCALARS = st.none() | st.booleans() | _NUMBERS | st.text(max_size=3) | st.just("1.5")


def _is_matrix(v) -> bool:
    """A list of rows of [re, im] pairs, as projectors and unitaries are written."""
    return (isinstance(v, list) and bool(v) and all(isinstance(row, list) for row in v)
            and all(isinstance(e, list) and len(e) == 2 for row in v for e in row))


def _mutated(data, value):
    """One edit of ``value``: a type swap, a number as a string or
    non-finite, a huge number, deep nesting, a label-list or matrix-shape
    edit, or a mangled list."""
    edits = ["scalar", "container", "nest"]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        edits += ["string", "non-finite", "huge"]
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        edits += ["labels"]
    if _is_matrix(value):
        edits += ["matrix"]
    if isinstance(value, list) and value:
        edits += ["ragged"]
    edit = data.draw(st.sampled_from(edits))
    if edit == "scalar":
        return data.draw(_SCALARS)
    if edit == "container":
        return data.draw(st.sampled_from([[], {}, [value], {"value": value}, [[value]]]))
    if edit == "nest":
        for _ in range(data.draw(st.integers(1, 80))):
            value = [value]
        return value
    if edit == "string":
        return str(value)
    if edit == "non-finite":
        return data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    if edit == "huge":
        return data.draw(st.sampled_from([10**6, 2**40, 10**300, 10**400, 1e300, -1e308]))
    if edit == "labels":
        first = value[0] if value else "a"
        return data.draw(st.sampled_from([[], [first, first], "".join(value), ["zz"],
                                          value + ["zz"], value[::-1]]))
    if edit == "matrix":
        n = data.draw(st.sampled_from([1, len(value) - 1, len(value) + 1, 2 * len(value)]))
        if n < 1:
            return []
        return np.stack([np.eye(n), np.zeros((n, n))], axis=-1).tolist()
    # ragged: drop, duplicate or shorten one element
    k = data.draw(st.integers(0, len(value) - 1))
    value = list(value)
    how = data.draw(st.sampled_from(["drop", "duplicate", "shorten"]))
    if how == "drop":
        del value[k]
    elif how == "duplicate":
        value.insert(k, deepcopy(value[k]))
    elif isinstance(value[k], list) and value[k]:
        value[k] = value[k][:-1]
    return value


def _paths(node, path=()):
    """The path to ``node`` and to every node under it.  Of a list longer
    than four (amplitudes, deep lists) only the first two and the last
    element are entered, so every kind of field is about as likely a
    target as an amplitude."""
    yield path
    if isinstance(node, dict):
        keys = sorted(node)
    elif isinstance(node, list):
        keys = range(len(node)) if len(node) <= 4 else (0, 1, len(node) - 1)
    else:
        return
    for key in keys:
        yield from _paths(node[key], path + (key,))


def _mutate(data, blob):
    """At a drawn node: drop it, copy another key's value onto it, or edit
    its value (the root itself included)."""
    holder = {"root": blob}
    *parents, key = ("root",) + data.draw(st.sampled_from(list(_paths(blob))))
    parent = holder
    for k in parents:
        parent = parent[k]
    action = data.draw(st.sampled_from(["drop", "copy", "edit"]))
    if action == "drop":
        del parent[key]
    elif action == "copy" and isinstance(parent, dict) and len(parent) > 1:
        parent[key] = deepcopy(parent[data.draw(st.sampled_from(sorted(parent)))])
    else:
        parent[key] = _mutated(data, parent[key])
    return holder.get("root")


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "scenario.json"


@settings(max_examples=150, deadline=None)
@given(which=st.sampled_from(range(len(VALID))), edits=st.integers(1, 3), data=st.data())
def test_a_mutated_scenario_file_gives_a_distribution_or_one_json_error(path, which, edits, data):
    blob = deepcopy(VALID[which])
    for _ in range(edits):
        blob = _mutate(data, blob)
    path.write_text(json.dumps(blob))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["dist", "--scenario", str(path), "--json"])
    if code == 1:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "validation"
    else:
        assert code == 0 and err.getvalue() == ""
        total = math.fsum(e["probability"] for e in json.loads(out.getvalue())["entries"])
        assert abs(total - 1.0) <= 1e-12


def _cli(path, *argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([*argv, "--scenario", str(path), "--json"])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(blob=_oracles.causal_files())
def test_every_valid_order_of_an_accepted_file_gives_one_distribution(path, blob):
    """The paper's theorem on files the causal rule accepts: each valid
    order gives the time-ordered distribution within 1e-12, and a run with
    fixed outcomes one final state; ``orders`` exits 0."""
    s = serialization.scenario_from_dict(blob)
    orders = _oracles.valid_orders(blob)
    assert engine.enumerate_valid_orders(s) == orders
    expected = _oracles.time_ordered_distribution(blob)
    by_det = dict(zip(s.detector_labels, max(expected, key=expected.get)))
    finals = []
    for order in orders:
        dist = engine.joint_distribution(s, order)
        assert set(dist.probabilities) <= set(expected)
        assert max(abs(dist.probability(k) - p) for k, p in expected.items()) <= 1e-12
        finals.append(engine.run(s, order, outcomes=tuple(by_det[l] for l in order)).final_state)
    assert all(_oracles.states_close(finals[0], f, tol=1e-12) for f in finals)
    path.write_text(json.dumps(blob))
    code, out, err = _cli(path, "orders")
    assert (code, err) == (0, "")
    assert json.loads(out)["orders"] == [list(o) for o in orders]


@settings(max_examples=60, deadline=None)
@given(case=_oracles.causal_files(broken=True))
def test_a_file_with_an_event_moved_off_its_causal_chain_is_a_validation_error(path, case):
    blob, moved, spin = case
    path.write_text(json.dumps(blob))
    for command in ("dist", "orders"):
        code, out, err = _cli(path, command)
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["error"] == "validation"
        assert f"{moved!r} at " in error["message"]
        assert re.search(f" both act on subsystem {spin!r} but are "
                         "(spacelike|lightlike)$", error["message"])


def test_every_built_in_and_benchmark_ghz_layout_keeps_the_causal_rule():
    """Each builds: split's copy gate lies on detector A's past cone, every
    other pair of events on one subsystem of a built-in is timelike, and a
    benchmark GHZ file has one event per spin."""
    scenarios.split_particle(), scenarios.singlet(Z_AXIS, X_AXIS), scenarios.ghz()
    scenarios.singlet(Z_AXIS, X_AXIS, with_copies=True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(_oracles.__file__).resolve().parents[1] / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {"reference": _oracles.reference, spec.name: inputs}):
        spec.loader.exec_module(inputs)
    for seed, n, dim in itertools.product(range(3), (2, 3, 4), (1, 2, 3)):
        rng = np.random.default_rng(seed)
        axes = [inputs._axis(rng) for _ in range(n)]
        serialization.scenario_from_dict(inputs.ghz_scenario(axes, inputs.ghz_events(rng, n, dim)))


def _number_paths(node, path=()):
    """The path to every number in ``node``: a JSON number, never a bool."""
    if type(node) in (int, float):
        yield path
    elif isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _number_paths(value, path + (key,))


@settings(max_examples=100, deadline=None)
@given(which=st.sampled_from(range(len(VALID))),
       stand_in=st.sampled_from(["true", "false", "null", "numeric string", "[]"]), data=st.data())
def test_a_number_replaced_by_a_non_number_fails_alike_in_both_readers(path, which, stand_in, data):
    """One number anywhere in a valid file, with a finite floor t0 so that
    t0 is one, becomes true, false, null, the string of that number or [].
    A field is drawn first (its path without list indices), then one of its
    numbers, so a scalar like c is as likely a target as an amplitude.
    ``dist`` exits 1 with one validation error, the same bytes through the
    program's reader and through ``_oracles.read_scenario_whole``."""
    blob = deepcopy(VALID[which])
    blob["initial_surface"] = {"t0": -1e3}
    path.write_text(json.dumps(blob))
    assert _dist(path)[0] == 0
    fields = {}
    for p in _number_paths(blob):
        fields.setdefault(tuple(k for k in p if isinstance(k, str)), []).append(p)
    *parents, key = data.draw(st.sampled_from(fields[data.draw(st.sampled_from(sorted(fields)))]))
    parent = blob
    for k in parents:
        parent = parent[k]
    parent[key] = {"true": True, "false": False, "null": None, "[]": [],
                   "numeric string": json.dumps(parent[key])}[stand_in]
    path.write_text(json.dumps(blob))
    fast = _dist(path)
    with mock.patch.object(cli, "_read_scenario", _oracles.read_scenario_whole):
        assert _dist(path) == fast
    code, out, err = fast
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "validation"



# --- the dense amplitude pass against the plain reader ----------------------

_LAYOUTS = {"default": {}, "indent": {"indent": 2}, "compact": {"separators": (",", ":")}}
#: Whitespace of a written amplitude list: between its key and the list,
#: then after "[", before ",", after "," and before "]".
_SPACING = {"default": (": ", "", "", " ", ""), "compact": (":", "", "", "", ""),
            "indent": (": ", "\n  ", "", "\n  ", "\n"),
            "loose": (" \n:\t", " \t", "\r\n", "\n\t ", "  ")}
#: Edits of one pair's text, from its two tokens x and y.
_PAIR_EDITS = {
    "one element": "[{x}]", "three elements": "[{x}, {y}, 0.0]", "nested": "[[{x}], {y}]",
    "trailing comma": "[{x}, {y},]", "no comma": "[{x} {y}]", "empty": "[]",
    "re before [": "{x} [, {y}]", "re after ,": "[, {x} {y}]", "im before ,": "[{x} {y}, ]",
    "im after ]": "[{x}, ] {y}", "[ as ,": ",{x}, {y}]", ", as ]": "[{x}] {y}]",
    "] as [": "[{x}, {y}[", "token after ]": "[{x}, {y}] 0.0",
    "non-ASCII space": "[{x},\u00a0{y}]", "non-ASCII letter": "[{x}, {y}\u00e9]",
}
#: Edits of the whole list, from the text of its pairs.
_LIST_EDITS = {"trailing comma": "[{body},]", "token after [": "[0.0 {body}]",
               "token before ]": "[{body} 0.0]", "extra ]": "[{body}]]", "no ]": "[{body}",
               "empty": "[]"}
#: Replacement tokens, and whether the fast pass reads a list holding one.
_TOKENS = {"0": True, "0.0": True, "-0.0": True, "-0": True, "0e0": True, "0.00": True,
           "0.5": True, "1e-320": True, "1e400": True, "-1e400": True, "1" + "0" * 400: False,
           "01": False, "00": False, "0-0": False, "+1": False, ".5": False, "1.": False,
           "NaN": False, "Infinity": False, '"0.5"': False, "true": False, "null": False,
           "[]": False, "1 2": False}
#: Edits of the rest of the document, and whether the fast pass reads it.
_DOC_EDITS = {"c is NaN": False, "amplitudes in a detector": True,
              "amplitudes in an earlier detector": False, "amplitudes in a label": True,
              "label amplitudes": True, "non-ASCII label": True, "state in a list": False,
              "repeated, null": False, "repeated, NaN": False, "repeated, a list": False,
              "repeated before": False, "document in a list": False, "BOM": False,
              "trailing text": False, "cut in the list": False}


def _amplitudes_text(pairs, spacing="default", tokens=(), pair_edit=None, list_edit=None):
    """The text of an amplitude list: ``pairs`` with (pair, slot, token)
    substitutions, one pair's text edited, then the list's."""
    texts = [[json.dumps(v) for v in pair] for pair in pairs]
    for k, slot, token in tokens:
        texts[k][slot] = token
    _, open_, pre, post, close = _SPACING[spacing]
    items = [f"[{open_}{x}{pre},{post}{y}{close}]" for x, y in texts]
    if pair_edit is not None:
        k, edit = pair_edit
        items[k] = _PAIR_EDITS[edit].format(x=texts[k][0], y=texts[k][1])
    body = f"{pre},{post}".join(items)
    return (_LIST_EDITS[list_edit] if list_edit else f"[{open_}{{body}}{close}]").format(body=body)


def _file_text(blob, layout="default", spacing="default", doc_edit=None, **list_edits) -> str:
    """``blob`` as ``json.dumps`` writes it in ``layout``, with its initial
    amplitude list written by ``_amplitudes_text`` and one document edit."""
    blob = deepcopy(blob)
    pairs = blob["initial_state"]["amplitudes"]
    blob["initial_state"]["amplitudes"] = "@amplitudes@"
    detector = blob["detectors"][0]
    if doc_edit == "c is NaN":
        blob["c"] = math.nan
    elif doc_edit in ("amplitudes in a detector", "amplitudes in an earlier detector"):
        detector["amplitudes"] = [[0.0, 0.0], [0.5, 0.5]]
        if doc_edit == "amplitudes in an earlier detector":
            blob = {"detectors": blob.pop("detectors"), **blob}
    elif doc_edit == "amplitudes in a label":
        detector["label"] = '"amplitudes": [[1.0, 0.0]]'
    elif doc_edit == "label amplitudes":
        detector["label"] = "amplitudes"
    elif doc_edit == "non-ASCII label":
        detector["label"] = "D\u00e9"
    elif doc_edit == "state in a list":
        blob["initial_state"] = [blob["initial_state"]]
    span = _amplitudes_text(pairs, spacing, **list_edits)
    value = {"repeated, null": f'{span}, "amplitudes": null',
             "repeated, NaN": f'{span}, "amplitudes": NaN',
             "repeated, a list": f'{span}, "amplitudes": [[1.0, 0.0]]',
             "repeated before": f'[[1.0, 0.0]], "amplitudes": {span}'}.get(doc_edit, span)
    text = re.sub(r'"amplitudes":\s*"@amplitudes@"',
                  lambda m: f'"amplitudes"{_SPACING[spacing][0]}{value}',
                  json.dumps(blob, **_LAYOUTS[layout]))
    if doc_edit == "document in a list":
        return f"[{text}]"
    if doc_edit == "BOM":
        return "\ufeff" + text
    if doc_edit == "trailing text":
        return text + " x"
    if doc_edit == "cut in the list":
        return text[:text.index(span) + len(span) // 2]
    return text


def _dist(path):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["dist", "--scenario", str(path), "--json"])
    return code, out.getvalue(), err.getvalue()


def _readers_agree(path, text: str) -> bool:
    """``dist`` on the file gives the same exit code, stdout and stderr
    with the program's reader as with ``_oracles.read_scenario_whole``.
    Where the fast pass reads the file's bytes, its document is the plain
    one (read as text, newlines translated), and its runs, spelled out,
    have the bits of each number read by ``float``, sign of zero included.
    True if it read the file."""
    path.write_text(text, encoding="utf-8")
    fast = _dist(path)
    with mock.patch.object(cli, "_read_scenario", _oracles.read_scenario_whole):
        plain = _dist(path)
    assert fast == plain
    d = serialization._with_dense_amplitudes(path.read_bytes())  # the bytes the program reads
    if d is None:
        return False
    whole = json.loads(path.read_text(encoding="utf-8"))
    pairs = whole["initial_state"].pop("amplitudes")
    runs = d["initial_state"].pop("amplitudes")
    amplitudes = np.repeat(runs.pairs, runs.counts, axis=0)
    assert amplitudes.shape == (len(pairs), 2)
    assert amplitudes.tobytes() == np.array([float(v) for pair in pairs for v in pair]).tobytes()
    assert d == whole
    return True


_GHZ = VALID[3]
_CASES = [
    *((f"layout {layout}", {"layout": layout, "spacing": layout}, True) for layout in _LAYOUTS),
    ("loose whitespace", {"spacing": "loose"}, True),
    *((f"token {t[:8]} in a zero pair", {"tokens": [(1, 0, t)]}, fast) for t, fast in _TOKENS.items()),
    *((f"token {t[:8]} in a GHZ pair", {"tokens": [(0, 1, t)]}, fast) for t, fast in _TOKENS.items()),
    *((f"pair {k} {edit}", {"pair_edit": (k, edit)}, False) for edit in _PAIR_EDITS for k in (0, -1)),
    *((f"list {edit}", {"list_edit": edit}, False) for edit in _LIST_EDITS),
    *((f"document {edit}", {"doc_edit": edit}, fast) for edit, fast in _DOC_EDITS.items()),
]


@pytest.mark.parametrize("edits, fast", [case[1:] for case in _CASES],
                         ids=[case[0] for case in _CASES])
def test_the_dense_amplitude_pass_agrees_with_the_plain_reader(path, edits, fast):
    assert _readers_agree(path, _file_text(_GHZ, **edits)) == fast


def _not_utf8_reported_as_before(path, cut_after: bytes, offset: int):
    text = _file_text(_GHZ).encode("utf-8")
    cut = text.index(cut_after) + offset
    path.write_bytes(text[:cut] + b"\xff" + text[cut:])
    fast = _dist(path)
    with mock.patch.object(cli, "_read_scenario", _oracles.read_scenario_whole):
        assert _dist(path) == fast
    assert fast[0] == 1


def test_a_byte_that_is_not_utf8_is_reported_as_before(path):
    _not_utf8_reported_as_before(path, b"[[", 3)


def test_a_byte_that_is_not_utf8_after_the_amplitude_list_is_reported_as_before(path):
    """The rest of the document is decoded strictly too: the fast pass
    gives up and the plain path raises the decoding error."""
    _not_utf8_reported_as_before(path, b'"detectors"', 2)


_TOKEN = st.sampled_from(sorted(_TOKENS)) | st.floats().map(json.dumps) | st.integers().map(str)


@settings(max_examples=100, deadline=None)
@given(which=st.sampled_from(range(len(VALID))), layout=st.sampled_from(sorted(_LAYOUTS)),
       spacing=st.sampled_from(sorted(_SPACING)), data=st.data())
def test_text_mutants_of_the_amplitude_list_read_as_the_plain_reader_reads_them(
        path, which, layout, spacing, data):
    blob = VALID[which]
    n = len(blob["initial_state"]["amplitudes"])
    pair = st.integers(0, n - 1)
    edits = {
        "tokens": data.draw(st.lists(st.tuples(pair, st.sampled_from((0, 1)), _TOKEN), max_size=3)),
        "pair_edit": data.draw(st.none() | st.tuples(pair, st.sampled_from(sorted(_PAIR_EDITS)))),
        "list_edit": data.draw(st.none() | st.sampled_from(sorted(_LIST_EDITS))),
        "doc_edit": data.draw(st.none() | st.sampled_from(sorted(_DOC_EDITS))),
    }
    _readers_agree(path, _file_text(blob, layout, spacing, **edits))


# --- runs of identical records, checked once --------------------------------

#: 1296 pairs: GHZ amplitudes at pairs 0 and 1215, zero runs of 1214 and 80 records.
_GHZ4 = serialization.scenario_to_dict(_ghz(4))
#: A pair in the middle of the long zero run.
_MID = 600


def _list_start(text: str) -> int:
    """Where the amplitude list of ASCII ``text`` opens."""
    return re.search(serialization._AMPLITUDES_KEY.decode(), text).end() - 1


def _with_pair(text: str, k: int, pair: str) -> str:
    """``text`` with pair k of its amplitude list written as ``pair``."""
    at = _list_start(text) + 1
    for _ in range(k + 1):
        at = text.index("[", at) + 1
    return text[:at - 1] + pair + text[text.index("]", at) + 1:]


def _ghz4_text(layout="default", **edits) -> str:
    return _file_text(_GHZ4, layout, layout, **edits)


def _with_list(list_text: str) -> str:
    """The GHZ-4 file with ``list_text`` in place of its amplitude list."""
    text = _ghz4_text()
    start = _list_start(text)
    return text[:start] + list_text + text[text.index("]]", start) + 2:]


def _distinct_ghz4_text() -> str:
    blob = deepcopy(_GHZ4)
    blob["initial_state"]["amplitudes"] = [[k / 2048, 0.0] for k in range(1296)]
    return json.dumps(blob)


#: Pair _MID of the long zero run as written, and whether the fast pass reads it.
_RUN_PAIRS = {
    "three numbers": ("[0.0, 0.0, 0.0]", False), "no comma": ("[0.0 0.0]", False),
    "two commas": ("[0.0,, 0.0]", False), "two ]": ("[0.0, 0.0]]", False),
    "two [": ("[[0.0, 0.0]", False), "-0.0": ("[-0.0, 0.0]", True), "0": ("[0, 0.0]", True),
    "spaces": ("[ 0.0 ,  0.0 ]", True), "tab and newline": ("[0.0,\t\n0.0]", True),
    "non-ASCII space": ("[0.0,\u00a00.0]", False),
    "0.5, so the run ends inside a record": ("[0.0, 0.5]", True),
}
_RUN_CASES = {
    **{f"pair {_MID} {name}": (lambda pair=pair: _with_pair(_ghz4_text(), _MID, pair), fast)
       for name, (pair, fast) in _RUN_PAIRS.items()},
    "run from the first pair": (lambda: _with_pair(_ghz4_text(), 0, "[0.0, 0.0]"), True),
    **{f"run to the list's ]], layout {layout}": (lambda layout=layout: _ghz4_text(layout), True)
       for layout in _LAYOUTS},
    "records after the list": (
        lambda: _ghz4_text().replace("]]}", "]]" + ", [0.0, 0.0]" * 100 + "}", 1), False),
    "spaces after the list": (lambda: _ghz4_text().replace("]]}", "]]" + " " * 2000 + "}", 1), True),
    "nonzero head, so the guessed record length is two zero records": (
        lambda: _ghz4_text(tokens=[(k, 0, json.dumps(2.0**-13)) for k in range(250)]), True),
    "all records distinct": (_distinct_ghz4_text, False),
    "the list's own [ starts a run of two-[ text": (
        lambda: _with_list("[[0.0, 0.0], " * 20 + "[0.0, 0.00], " * 300 + "[0.0, 0.0]]"), False),
    "a run of [ and spaces": (lambda: _with_list("[" + "[   " * 1100 + "0.0, 0.0]]"), False),
    "CRLF, indent 2": (lambda: _ghz4_text("indent").replace("\n", "\r\n"), True),
    "CRLF, indent 2, an error after the list": (
        lambda: _ghz4_text("indent").replace("\n", "\r\n").replace('"D1"', '"D1" x'), False),
    "lone CR, indent 2, an error after the list": (
        lambda: _ghz4_text("indent").replace("\n", "\r").replace('"D1"', '"D1" x'), False),
    "0 and 0.0 in one run": (lambda: _ghz4_text(tokens=[(k, 0, "0") for k in range(3, 1200, 3)]), True),
}


@pytest.mark.parametrize("case", list(_RUN_CASES))
def test_runs_of_identical_records_read_as_the_plain_reader_reads_them(path, case):
    """``dist`` agrees with the plain reader, and the folded pass reads the
    file exactly where ``fast`` says."""
    make, fast = _RUN_CASES[case]
    assert _readers_agree(path, make()) == fast


#: The records the fold-boundary lists are made of: zero spelled three
#: ways, a nonzero pair, and GHZ-4's first amplitude.
_FOLD_RECORDS = ([0.0, 0.0], [0, 0.0], [-0.0, 0.0], [0.0, 0.5], _GHZ4["initial_state"]["amplitudes"][0])


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_runs_of_mixed_records_read_as_the_plain_reader_reads_them(path, layout, data):
    """GHZ-4's list of 1296 pairs written as runs of 1-60 copies of one
    record, each run's record another than the one before: the list opens
    and closes with a run, and runs of every two records meet.  The drawn
    runs repeat until they fill the list."""
    runs = data.draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 60)), min_size=1))
    pairs, k = [], 0
    for step, n in itertools.cycle(runs):
        if len(pairs) >= 1296:
            break
        k = (k + step) % len(_FOLD_RECORDS)
        pairs += [_FOLD_RECORDS[k]] * n
    blob = deepcopy(_GHZ4)
    blob["initial_state"]["amplitudes"] = pairs[:1296]
    _readers_agree(path, _file_text(blob, layout, layout))


def _stretches_in_one_pass(b: np.ndarray, period: int) -> list[tuple[int, int]]:
    """``serialization._repeating_stretches`` as one compare of the whole
    text with itself shifted, padded with False at both ends so the ends
    of each stretch pair up."""
    same = np.zeros(b.size - period + 2, dtype=bool)
    np.equal(b[period:], b[:-period], out=same[1:-1])
    edges = np.flatnonzero(same[1:] != same[:-1])
    firsts, lasts = edges[0::2], edges[1::2]
    wide = lasts - firsts >= serialization._MIN_COPIES * period
    return list(zip(firsts[wide].tolist(), lasts[wide].tolist()))


@pytest.mark.parametrize("offset", [-13, -1, 0, 1, 12])
def test_the_chunked_scan_finds_the_stretches_one_pass_finds(offset):
    """Random bytes with two stretches of period 12: the first starts at
    ``offset`` from a chunk boundary and ends as far from the next one, so
    a whole chunk lies inside it; the second runs to the text's end."""
    chunk, period = serialization._CHUNK, 12
    b = np.random.default_rng(offset + 99).integers(0, 256, size=3 * chunk + 500, dtype=np.uint8)
    for lo, hi in ((chunk + offset, 2 * chunk + period + offset), (2 * chunk + 5 * period + offset, b.size)):
        b[lo:hi] = np.resize(b[lo:lo + period], hi - lo)
    data = b"ab" + b.tobytes() + b"}"
    stretches = serialization._repeating_stretches(data, 2, len(data) - 1, period)
    assert stretches == _stretches_in_one_pass(b, period) and len(stretches) == 2


def test_dist_on_a_ghz6_file_checks_each_run_of_zero_records_once(tmp_path, capsys):
    """On a GHZ-6 file psvsim wrote, no JSON decoder is handed text longer
    than a tenth of the file (``json.loads`` and the folded pass both decode
    through ``JSONDecoder.raw_decode``), and the scenario is still built by
    one ``scenario_from_dict`` call, the one the benchmark's tracer counts."""
    path = tmp_path / "ghz6.json"
    path.write_text(json.dumps(serialization.scenario_to_dict(_ghz(6))))
    size = path.stat().st_size
    with mock.patch.object(json.JSONDecoder, "raw_decode", autospec=True,
                           side_effect=json.JSONDecoder.raw_decode) as decode, \
            mock.patch.object(serialization, "scenario_from_dict",
                              wraps=serialization.scenario_from_dict) as build:
        assert cli.main(["dist", "--scenario", str(path), "--json"]) == 0
    assert decode.call_count == 2 and max(len(c.args[1]) for c in decode.call_args_list) < size / 10
    assert build.call_count == 1
    assert json.loads(capsys.readouterr().out)["detectors"] == [f"D{k}" for k in range(6)]


# --- the loaded state against the dense register factoring -----------------

def _dense_list(path) -> StateVector:
    """The plain reader's dense initial state of the file."""
    with open(path, encoding="utf-8") as fh:
        state = json.load(fh)["initial_state"]
    pairs = np.array(state["amplitudes"], dtype=float)
    subsystems = tuple(SubsystemSpec(sub["label"], sub["dim"], SubsystemKind(sub["kind"]))
                       for sub in state["subsystems"])
    # re + 1j * im, the conversion every psvsim version has made, signed zeros included
    return StateVector(subsystems, pairs[:, 0] + 1j * pairs[:, 1])


def _assert_dense_split(initial: BranchState, dense: StateVector) -> None:
    """``initial`` has the core bytes and register indices that
    ``_oracles.dense_split`` factors ``dense`` into."""
    core, registers = _oracles.dense_split(dense)
    assert initial.core.amplitudes.tobytes() == core.tobytes()
    assert {label: int(np.flatnonzero(factor.amplitudes)[0])
            for label, factor in initial.registers.items()} == registers


def _loads_as_dense_split(path):
    """The program's reader loads the file's initial state as
    ``_oracles.dense_split`` factors the plain reader's dense list.
    Returns the loaded scenario."""
    with open(path, "rb") as fh:
        s = cli._read_scenario(fh)
    _assert_dense_split(s.initial, _dense_list(path))
    return s


@functools.lru_cache(maxsize=1)
def _ghz_blob(n: int) -> dict:
    return serialization.scenario_to_dict(_ghz(n))


def _zeros_spelled_0(blob):
    """``blob`` with every third amplitude 0.0 spelled 0, as CI writes it."""
    zeros = itertools.count()
    state = {**blob["initial_state"], "amplitudes": [
        [0 if repr(v) == "0.0" and next(zeros) % 3 == 2 else v for v in pair]
        for pair in blob["initial_state"]["amplitudes"]]}
    return {**blob, "initial_state": state}


#: The layouts CI's console-script step writes a GHZ file in.
_CI_LAYOUTS = {
    **{layout: functools.partial(json.dumps, **kwargs) for layout, kwargs in _LAYOUTS.items()},
    "CRLF": lambda blob: json.dumps(blob, indent=2).replace("\n", "\r\n"),
    "zeros spelled 0": lambda blob: json.dumps(_zeros_spelled_0(blob)),
}


@pytest.mark.parametrize("n, layout", [(n, layout) for n in range(3, 8) for layout in _CI_LAYOUTS],
                         ids=lambda v: f"GHZ-{v}" if isinstance(v, int) else v)
def test_a_ghz_file_loads_to_the_dense_split_of_its_list(tmp_path, n, layout):
    path = tmp_path / "ghz.json"
    path.write_bytes(_CI_LAYOUTS[layout](_ghz_blob(n)).encode())
    s = _loads_as_dense_split(path)
    assert s.initial.core.amplitudes.size == 2**n and len(s.initial.registers) == n


def _register_at(blob, label: str, k: int):
    """``blob`` with register ``label`` of its initial state moved from
    index 0 to index k."""
    state = blob["initial_state"]
    dims = [sub["dim"] for sub in state["subsystems"]]
    axis = [sub["label"] for sub in state["subsystems"]].index(label)
    psi = np.roll(np.array(state["amplitudes"]).reshape(dims + [2]), k, axis=axis)
    return {**blob, "initial_state": {**state, "amplitudes": psi.reshape(-1, 2).tolist()}}


def _uniform(n: int):
    """GHZ-n's file with its registers listed before its spins and the
    spins in the uniform superposition: the list opens with 2^n copies of
    one nonzero record."""
    blob = serialization.scenario_to_dict(_ghz(n))
    subsystems = blob["subsystems"][n:] + blob["subsystems"][:n]
    amplitudes = [[2 ** (-n / 2), 0.0]] * 2**n + [[0.0, 0.0]] * (6**n - 2**n)
    return {**blob, "subsystems": subsystems,
            "initial_state": {"subsystems": subsystems, "amplitudes": amplitudes}}


#: GHZ-4 pair 81 is on the slice (core index 1, every register 0); pair
#: _MID is off it.
_EDGE_CASES = {
    "-0.0 on the slice": lambda: _with_pair(_ghz4_text(), 81, "[-0.0, -0.0]"),
    "-0.0 off the slice": lambda: _with_pair(_ghz4_text(), _MID, "[-0.0, -0.0]"),
    "a uniform spin superposition": lambda: json.dumps(_uniform(7)),
}


@pytest.mark.parametrize("case", list(_EDGE_CASES))
def test_an_edge_case_file_loads_to_the_dense_split_of_its_list(path, case):
    assert _readers_agree(path, _EDGE_CASES[case]())
    core = _loads_as_dense_split(path).initial.core.amplitudes
    if case == "-0.0 on the slice":
        assert np.signbit(core[1].real) and not np.signbit(core[1].imag)


#: Each edit of the GHZ-4 file and the exit code and stderr psvsim has
#: always given for it (the last version with a dense tensor gave these).
_ERROR_PINS = {
    "off-slice 0.5 in the zero run": (lambda: _with_pair(_ghz4_text(), _MID, "[0.5, 0.0]"),
                                      "register 'R0' is not in a single basis state"),
    "off-slice -0.5i in the zero run, at pair 573": (
        lambda: _with_pair(_ghz4_text(), 573, "[0.0, -0.5]"),
        "register 'R2' is not in a single basis state"),
    "off-slice 2e-12 in the short zero run": (lambda: _with_pair(_ghz4_text(), 1250, "[0.0, 2e-12]"),
                                              "register 'R0' is not in a single basis state"),
    "one record short": (lambda: _with_pair(_ghz4_text(), _MID, "@").replace("@, ", "", 1),
                         "amplitude length 1295 != product of dims 1296"),
    "one record long": (lambda: _with_pair(_ghz4_text(), _MID, "[0.0, 0.0], [0.0, 0.0]"),
                        "amplitude length 1297 != product of dims 1296"),
    "NaN in the zero run": (lambda: _with_pair(_ghz4_text(), _MID, "[NaN, 0.0]"),
                            "initial state has a non-finite amplitude"),
    "Infinity in the zero run": (lambda: _with_pair(_ghz4_text(), _MID, "[0.0, Infinity]"),
                                 "initial state has a non-finite amplitude"),
    "-Infinity in the zero run": (lambda: _with_pair(_ghz4_text(), _MID, "[-Infinity, 0.0]"),
                                  "initial state has a non-finite amplitude"),
    "1e400 in the zero run": (lambda: _with_pair(_ghz4_text(), _MID, "[1e400, 0.0]"),
                              "initial state has a non-finite amplitude"),
    "all zero": (lambda: _with_pair(_with_pair(_ghz4_text(), 0, "[0.0, 0.0]"), 1215, "[0.0, 0.0]"),
                 "initial state norm 0.0 != 1"),
}


@pytest.mark.parametrize("case", list(_ERROR_PINS))
def test_a_bad_amplitude_list_is_reported_as_it_always_was(path, case):
    make, message = _ERROR_PINS[case]
    _readers_agree(path, make())
    code, out, err = _dist(path)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "validation", "message": message}


def test_a_register_off_its_ready_index_is_rejected(path):
    """A detector's register must start at its ready index 0, or its
    pointer shift records the wrong outcome.  ``from_nonzero`` still
    factors the list as the dense oracle does."""
    assert _readers_agree(path, json.dumps(_register_at(_GHZ4, "R2", 2)))
    code, out, err = _dist(path)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "validation", "message": "detector 'D2' register 'R2' "
                               "starts at index 2, not its ready index 0"}
    dense = _dense_list(path)
    index = hilbert.nonzero_bits(dense.amplitudes)
    _assert_dense_split(BranchState.from_nonzero(dense.subsystems, index, dense.amplitudes[index]),
                        dense)


def test_an_off_slice_amplitude_below_the_tolerance_is_accepted(path):
    assert _readers_agree(path, _with_pair(_ghz4_text(), _MID, "[1e-12, 0.0]"))
    assert _dist(path)[0] == 0


def test_loading_a_ghz7_file_holds_no_array_the_size_of_the_file(tmp_path):
    """Through the CLI reader, a GHZ-7 file (3.4 MB, 6^7 pairs) loads with
    its bytes as its one file-sized allocation: the traced peak stays
    within 1.5 times the file's size, and the scenario keeps under
    0.25 MB, its 2^7 core a copy, not a view of a 6^7 tensor."""
    path = tmp_path / "ghz7.json"
    path.write_bytes(json.dumps(_ghz_blob(7)).encode())
    size = path.stat().st_size
    with open(path, "rb") as fh:  # a first load compiles the key pattern, which stays cached
        cli._read_scenario(fh)
    gc.collect()
    tracemalloc.start()
    try:
        with open(path, "rb") as fh:
            s = cli._read_scenario(fh)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * size
    assert kept <= 0.25e6
    assert s.initial.core.amplitudes.size == 2**7


def test_from_nonzero_copies_the_core_out_of_a_dense_state():
    """``BranchState.from_nonzero`` gives a C-contiguous core that owns
    its memory, shared with nothing of the dense state."""
    spins = tuple(SubsystemSpec(f"s{k}", 2, SubsystemKind.SPIN) for k in range(3))
    regs = tuple(SubsystemSpec(f"R{k}", 3, SubsystemKind.REGISTER) for k in range(3))
    dense = hilbert.tensor(StateVector(spins, np.full(8, 8**-0.5)), hilbert.basis_state(regs))
    index = hilbert.nonzero_bits(dense.amplitudes)
    amps = BranchState.from_nonzero(dense.subsystems, index, dense.amplitudes[index]).core.amplitudes
    owner = amps if amps.base is None else amps.base
    assert amps.flags.c_contiguous and owner.flags.owndata and owner.nbytes == amps.nbytes
    assert not np.shares_memory(amps, dense.amplitudes)


def test_a_file_of_no_subsystems_is_validated_as_any_other(path):
    """A state of no subsystems is one amplitude.  Its file used to stop
    on an internal TypeError of the dense register factoring; now it is
    read as any other: with no detectors its one outcome is certain, and
    a detector on it is told the subsystem it lacks."""
    blob = {"dim": 1, "c": 1.0, "subsystems": [],
            "initial_state": {"subsystems": [], "amplitudes": [[1.0, 0.0]]}, "detectors": []}
    path.write_text(json.dumps(blob))
    code, out, err = _dist(path)
    assert (code, err) == (0, "") and json.loads(out) == {
        "detectors": [], "entries": [{"outcomes": [], "probability": 1.0}]}
    blob["detectors"] = [serialization.scenario_to_dict(_ghz(3))["detectors"][0]]
    path.write_text(json.dumps(blob))
    code, out, err = _dist(path)
    assert (code, out) == (1, "")
    assert json.loads(err)["message"] == "detector 'D0' references unknown subsystem 's0'"
