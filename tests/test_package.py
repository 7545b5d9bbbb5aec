import ast
import dataclasses
import math
import os
import shutil
import subprocess
import sys
import textwrap
from functools import cache
from pathlib import Path

import numpy as np
import pytest

import psvsim
from psvsim import (
    Axis,
    BranchNode,
    BranchState,
    DetectorEvent,
    EmpiricalDistribution,
    Event,
    HkComparison,
    HkRegion,
    InteractionEvent,
    JointDistribution,
    Lcsh,
    OutcomeSet,
    RunRecord,
    Scenario,
    StateVector,
    StepRecord,
    SubsystemSpec,
    UndefinedState,
)
from psvsim.errors import ConfigurationError

ROOT = Path(__file__).resolve().parent.parent


def _loaded_names(path: Path) -> set[str]:
    """Every name a module reads: loaded names and attributes, base classes
    included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_exported_name_has_a_program_reader():
    # Test-only checks live in tests/_oracles.py, not in the package.
    program = [p for p in sorted((ROOT / "src" / "psvsim").glob("*.py")) if p.name != "__init__.py"]
    program += sorted((ROOT / "perfbench").glob("*.py"))
    read = set().union(*map(_loaded_names, program))
    assert sorted(set(psvsim.__all__) - read) == []


def _imported_names(path: Path) -> set[str]:
    """Every name a module binds by import, ``from __future__`` aside."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py imports to re-export; its readers are checked above.
    modules = [p for p in sorted((ROOT / "src" / "psvsim").glob("*.py")) if p.name != "__init__.py"]
    modules += sorted((ROOT / "tests").glob("*.py"))
    unread = {p.relative_to(ROOT).as_posix(): sorted(_imported_names(p) - _loaded_names(p))
              for p in modules}
    assert {path: names for path, names in unread.items() if names} == {}


def test_the_package_exports_exactly_what_its_init_imports():
    # A name dropped from one of the two lists cannot linger in the other.
    imported = _imported_names(ROOT / "src" / "psvsim" / "__init__.py")
    assert sorted(imported) == sorted(psvsim.__all__)


def test_a_failing_property_test_reports_its_example(tmp_path):
    # Under the project's pytest settings (warnings are errors) and its
    # conftest, a failing hypothesis test is a FAILED line with its
    # falsifying example, not an INTERNALERROR that stops the run.
    for name in ("pyproject.toml", "tests/conftest.py"):
        shutil.copy(ROOT / name, tmp_path)
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 10\n")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "test_fails.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAILED test_fails.py::test_fails" in proc.stdout
    assert "Falsifying example" in proc.stdout


def test_importing_the_program_runs_no_generated_code():
    # A class that builds its methods from source text (a frozen dataclass
    # does) compiles them on every import; byte-code caching cannot keep them.
    child = textwrap.dedent("""
        import builtins, sys
        import argparse, json, numpy

        calls = []

        def counted(name, original):
            def spy(*args, **kwargs):
                # the import system runs each module's own code through exec
                if not sys._getframe(1).f_code.co_filename.startswith("<frozen importlib"):
                    calls.append(name)
                return original(*args, **kwargs)
            return spy

        for name in ("exec", "eval", "compile"):
            setattr(builtins, name, counted(name, getattr(builtins, name)))
        import psvsim.cli
        print(len(calls))
        """)
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


_RECORD_CLASSES = (
    SubsystemSpec, StateVector, Axis, OutcomeSet, Event, Lcsh, InteractionEvent, DetectorEvent,
    BranchState, Scenario, StepRecord, BranchNode, RunRecord, JointDistribution,
    EmpiricalDistribution, UndefinedState, HkRegion, HkComparison,
)


@cache
def _records() -> dict:
    """One instance of each frozen record class, from the built-ins."""
    s = psvsim.singlet(psvsim.Z_AXIS, psvsim.X_AXIS, with_copies=True)
    order = ("A", "B", "C")
    record = psvsim.run(s, order, seed=1)
    detector = s.detector("A")
    b_cone = Lcsh(apexes=(s.detector("B").at,), c=s.c)  # crosses A's reduction surface
    return {
        SubsystemSpec: s.subsystems[0],
        StateVector: s.initial.core,
        Axis: psvsim.X_AXIS,
        OutcomeSet: detector.outcomes,
        Event: detector.at,
        Lcsh: record.steps[1].surface_after,
        InteractionEvent: s.interactions[0],
        DetectorEvent: detector,
        BranchState: s.initial,
        Scenario: s,
        StepRecord: record.steps[0],
        BranchNode: psvsim.step(s, s.initial_surface(), s.initial, "A"),
        RunRecord: record,
        JointDistribution: psvsim.joint_distribution(s, order),
        EmpiricalDistribution: psvsim.sample(s, order, 10),
        UndefinedState: psvsim.state_on_hyperplane(record, b_cone),
        HkRegion: psvsim.hk_region_of(s.interactions[0].at, s, ("A", "B")),
        HkComparison: psvsim.hk_copy_inconsistency(psvsim.X_AXIS, psvsim.Z_AXIS),
    }


#: A field value each validating record class rejects.
_INVALID = {
    SubsystemSpec: {"dim": 3},
    StateVector: {"amplitudes": np.zeros(3)},
    Axis: {"theta": math.nan},
    OutcomeSet: {"targets": ()},
    Event: {"x": (0.0,) * 4},
    Lcsh: {"c": 0.0},
    InteractionEvent: {"unitary": 2 * np.eye(4)},
    DetectorEvent: {"label": ""},
    Scenario: {"dim": 2},
}

#: For each record class whose fields are all hashable, a valid other value.
_OTHER_VALUE = {
    SubsystemSpec: {"label": "z"},
    Axis: {"phi": 1.0},
    Event: {"t": 9.0},
    Lcsh: {"t0": 0.0},
    UndefinedState: {"reason": "another"},
    HkRegion: {"sides": ()},
    HkComparison: {"hk_conditional": 0.25},
}


@pytest.mark.parametrize("cls", _RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_records_behave_as_frozen_dataclasses(cls):
    obj = _records()[cls]
    assert type(obj) is cls
    names = [f.name for f in dataclasses.fields(obj)]
    values = [getattr(obj, name) for name in names]
    for name in (names[0], "not_a_field"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    assert all(getattr(obj, name) is value for name, value in zip(names, values))
    assert repr(obj) == f"{cls.__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
    if cls in _INVALID:
        with pytest.raises(ConfigurationError) as by_replace:
            dataclasses.replace(obj, **_INVALID[cls])
        with pytest.raises(ConfigurationError) as by_init:
            cls(**{**dict(zip(names, values)), **_INVALID[cls]})
        assert str(by_replace.value) == str(by_init.value)
    assert obj == obj and obj != object()
    if cls in _OTHER_VALUE:
        copy = dataclasses.replace(obj)
        assert copy is not obj and copy == obj and hash(copy) == hash(obj) == hash(tuple(values))
        assert dataclasses.replace(obj, **_OTHER_VALUE[cls]) != obj
    else:  # a field holds an array or a dict
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)


@pytest.mark.parametrize("cls", _RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_records_bind_their_arguments_as_a_dataclass_init_does(cls):
    obj = _records()[cls]
    fields = dataclasses.fields(obj)
    names = [f.name for f in fields]
    values = [getattr(obj, name) for name in names]
    for built in (cls(*values), cls(**dict(zip(names, values)))):
        assert type(built) is cls
        np.testing.assert_equal([getattr(built, name) for name in names], values)
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    if required:  # every field of ``Lcsh`` has a default
        with pytest.raises(TypeError, match=f"missing required argument {required[0]!r}"):
            cls(**{n: v for n, v in zip(names, values) if n != required[0]})
    with pytest.raises(TypeError, match="unexpected keyword argument 'not_a_field'"):
        cls(*values, not_a_field=None)
    with pytest.raises(TypeError, match=f"multiple values for argument {names[0]!r}"):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError, match=f"takes {len(names)} positional arguments "
                                        f"but {len(names) + 1} were given"):
        cls(*values, None)


def test_no_record_class_writes_its_own_init():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    records = set(subclasses(psvsim._record.Record))
    assert set(_RECORD_CLASSES) <= records
    assert [cls.__name__ for cls in records if "__init__" in vars(cls)] == []


def test_subclassing_record_is_all_a_record_class_needs():
    class Span(psvsim._record.Record):
        lo: float
        hi: float = 1.0

        def __post_init__(self):
            if not self.lo <= self.hi:
                raise ConfigurationError(f"span {self.lo}..{self.hi} is empty")

    assert [(f.name, f.default) for f in dataclasses.fields(Span)] == [
        ("lo", dataclasses.MISSING), ("hi", 1.0)]
    span = Span(0.5)
    assert span == Span(0.5, 1.0) == Span(hi=1.0, lo=0.5) and hash(span) == hash((0.5, 1.0))
    assert dataclasses.replace(span, hi=2.0) == Span(0.5, 2.0)
    with pytest.raises(ConfigurationError, match=r"span 0\.5\.\.0\.0 is empty"):
        dataclasses.replace(span, hi=0.0)
    with pytest.raises(ConfigurationError, match=r"span 3\.0\.\.1\.0 is empty"):
        Span(3.0)
    assert repr(span) == f"{Span.__qualname__}(lo=0.5, hi=1.0)"
    for name in ("lo", "not_a_field"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(span, name, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(span, name)
    assert (span.lo, span.hi) == (0.5, 1.0)
    assert [name for name in ("__init__", "__repr__", "__eq__") if name in vars(Span)] == []
