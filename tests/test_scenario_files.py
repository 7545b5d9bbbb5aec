"""The scenario-file contract under mutation.  Any edit of a valid file
either loads and gives a distribution that sums to 1, or is a validation
error (exit 1) reported as one JSON object on stderr: never a traceback,
a warning (pytest turns warnings into errors) or another exit code."""

import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from copy import deepcopy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from psvsim import cli, hilbert, scenarios, serialization
from psvsim.engine import BranchState, DetectorEvent, InteractionEvent, Scenario
from psvsim.geometry import Event
from psvsim.hilbert import Axis, StateVector, SubsystemKind, SubsystemSpec, X_AXIS, Z_AXIS


def _ghz(n: int) -> Scenario:
    """GHZ-n as a generated file holds it (spins s0.., one register each,
    detectors 6 apart), plus one interaction given as an explicit unitary
    before the detectors and one after them, so matrix mutations reach a
    unitary the engine applies and one it never does."""
    spins = tuple(SubsystemSpec(f"s{k}", 2, SubsystemKind.SPIN) for k in range(n))
    regs = tuple(SubsystemSpec(f"R{k}", 3, SubsystemKind.REGISTER) for k in range(n))
    core = np.zeros(2**n, dtype=complex)
    core[0], core[-1] = 1 / math.sqrt(2.0), -1 / math.sqrt(2.0)
    rng = np.random.default_rng(3)
    u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    return Scenario(
        dim=1, c=1.0,
        initial=BranchState.split(hilbert.tensor(StateVector(spins, core),
                                                 hilbert.basis_state(regs))),
        initial_t0=-math.inf,
        interactions=(InteractionEvent("early", Event(0.5, (0.0,)), ("s0", "s1"), u),
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
    Where the fast pass reads the file, its document is the plain one and
    its amplitudes have the bits of each number read by ``float``, sign of
    zero included.  True if it read the file."""
    path.write_text(text, encoding="utf-8")
    fast = _dist(path)
    with mock.patch.object(cli, "_read_scenario", _oracles.read_scenario_whole):
        plain = _dist(path)
    assert fast == plain
    text = path.read_text(encoding="utf-8")  # as the program reads it, newlines translated
    d = serialization._with_dense_amplitudes(text)
    if d is None:
        return False
    whole = json.loads(text)
    pairs = whole["initial_state"].pop("amplitudes")
    amplitudes = d["initial_state"].pop("amplitudes")
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


def test_a_byte_that_is_not_utf8_is_reported_as_before(path):
    text = _file_text(_GHZ).encode("utf-8")
    cut = text.index(b"[[") + 3
    path.write_bytes(text[:cut] + b"\xff" + text[cut:])
    fast = _dist(path)
    with mock.patch.object(cli, "_read_scenario", _oracles.read_scenario_whole):
        assert _dist(path) == fast
    assert fast[0] == 1


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


def _with_pair(text: str, k: int, pair: str) -> str:
    """``text`` with pair k of its amplitude list written as ``pair``."""
    at = re.search(serialization._AMPLITUDES_KEY, text).end()
    for _ in range(k + 1):
        at = text.index("[", at) + 1
    return text[:at - 1] + pair + text[text.index("]", at) + 1:]


def _ghz4_text(layout="default", **edits) -> str:
    return _file_text(_GHZ4, layout, layout, **edits)


def _with_list(list_text: str) -> str:
    """The GHZ-4 file with ``list_text`` in place of its amplitude list."""
    text = _ghz4_text()
    start = re.search(serialization._AMPLITUDES_KEY, text).end() - 1
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
    "all records distinct": (_distinct_ghz4_text, True),
    "the list's own [ starts a run of two-[ text": (
        lambda: _with_list("[[0.0, 0.0], " * 20 + "[0.0, 0.00], " * 300 + "[0.0, 0.0]]"), False),
    "a run of [ and spaces": (lambda: _with_list("[" + "[   " * 1100 + "0.0, 0.0]]"), False),
    "CRLF, indent 2": (lambda: _ghz4_text("indent").replace("\n", "\r\n"), True),
    "0 and 0.0 in one run": (lambda: _ghz4_text(tokens=[(k, 0, "0") for k in range(3, 1200, 3)]), True),
}


@pytest.mark.parametrize("case", list(_RUN_CASES))
def test_runs_of_identical_records_read_as_the_plain_reader_reads_them(path, case):
    """``dist`` agrees with the plain reader, and the folded pass gives
    ``_dense_pairs``'s answer on the text as written (before any newline
    translation): the same stop and float bits, or None for both."""
    make, fast = _RUN_CASES[case]
    text = make()
    assert _readers_agree(path, text) == fast
    start = re.search(serialization._AMPLITUDES_KEY, text).end() - 1
    folded, whole = serialization._dense_pairs_folded(text, start), serialization._dense_pairs(text, start)
    assert (folded is None) == (whole is None)
    if whole is not None:
        assert folded[0] == whole[0] and folded[1].tobytes() == whole[1].tobytes()


def test_dist_on_a_ghz6_file_checks_each_run_of_zero_records_once(tmp_path, capsys):
    """On a GHZ-6 file psvsim wrote, ``_dense_pairs`` is handed no text
    longer than a tenth of the file, and the scenario is still built by
    one ``scenario_from_dict`` call, the one the benchmark's tracer counts."""
    path = tmp_path / "ghz6.json"
    path.write_text(json.dumps(serialization.scenario_to_dict(_ghz(6))))
    size = path.stat().st_size
    with mock.patch.object(serialization, "_dense_pairs", wraps=serialization._dense_pairs) as check, \
            mock.patch.object(serialization, "scenario_from_dict",
                              wraps=serialization.scenario_from_dict) as build:
        assert cli.main(["dist", "--scenario", str(path), "--json"]) == 0
    assert check.call_count and max(len(c.args[0]) for c in check.call_args_list) < size / 10
    assert build.call_count == 1
    assert json.loads(capsys.readouterr().out)["detectors"] == [f"D{k}" for k in range(6)]
