"""The record classes: frozen dataclasses whose methods ``relqkd.errors.frozen`` shares.

Each record behaves as ``@dataclass(frozen=True)`` made it: fields, replace,
astuple, repr, equality, hash, frozen attributes and argument errors.  And
importing the package compiles no method from generated source.
"""

import copy
import dataclasses
import enum
import os
import pickle
import subprocess
import sys
from dataclasses import KW_ONLY, FrozenInstanceError, InitVar, field, fields
from pathlib import Path
from typing import ClassVar

import numpy as np
import pytest

from relqkd import adversary, distill, harness, measurement, security, wavepacket
from relqkd.adversary import EveStrategy
from relqkd.distill import HashRecord, ProtocolConfig, RoundRecord, Transcript, run_session
from relqkd.errors import frozen
from relqkd.harness import (AnalyzeSpec, CheckResult, DistillSpec, InterceptResendSummary,
                            SimulateSpec, VerifySummary)
from relqkd.measurement import BobOutcome, EveOutcome, PhotonState
from relqkd.security import SecurityReport
from relqkd.wavepacket import AmplitudeProfile, Interval, Plateau, make_plateau

SRC = Path(__file__).resolve().parents[1] / "src"
# dataclasses.replace refuses an init=False field with ValueError before
# Python 3.13 and with TypeError from 3.13 on.
REPLACE_ERROR = TypeError if sys.version_info >= (3, 13) else ValueError

CONFIG = ProtocolConfig(16, 3, 4, 8, 0.1, make_plateau(1.0), 0.5, 42)
PROFILE = AmplitudeProfile(np.array([0.0, 0.5, 1.0]), np.array([1.0, 1.0, 1.0]), 1.0, 0.0)
CHECK = CheckResult("parity-identity", True, "exact")

# One valid instance of each record class, and a change of one of its fields
# (or a function of the instance that gives it).
RECORDS = {
    "Interval": (lambda: Interval(0.0, 1.0), {"hi": 2.0}),
    "AmplitudeProfile": (lambda: PROFILE, {"window_lo": 0.25}),
    "Plateau": (lambda: Plateau(1.0, 0.1, 0.05), {"overhang": 0.0}),
    "PhotonState": (lambda: PhotonState(1, PROFILE, 0.0, 0.25), {"delay": 0.5}),
    "EveStrategy": (lambda: EveStrategy(0.25), {"delay": 0.5}),
    "ProtocolConfig": (lambda: CONFIG, {"seed": 43}),
    "RoundRecord": (lambda: RoundRecord(4, 1, BobOutcome.ONE, EveOutcome.FIRED_ONE, False, 2),
                    {"block": None}),
    "HashRecord": (lambda: HashRecord(1, "0110", 0, 1, 2), {"discarded": None}),
    "Transcript": (lambda: run_session(CONFIG),
                   lambda t: {"subsets": (t.subsets[0][1:] + t.subsets[0][0],) + t.subsets[1:]}),
    "SecurityReport": (lambda: SecurityReport(64, 45, 1, 12, 0.5, 1e-3, 1e-3), {"ratio": 0.25}),
    "AnalyzeSpec": (lambda: AnalyzeSpec(7, (0.5,), (0.1,)), {"out": "sweep.csv"}),
    "SimulateSpec": (lambda: SimulateSpec(7, (0.5,), (0.1,), trials=10), {"trials": 20}),
    "DistillSpec": (lambda: DistillSpec(CONFIG), {"eps1": 1e-2}),
    "InterceptResendSummary": (lambda: InterceptResendSummary(0.5, 0.1, 0.8, 0.9, 0.72),
                               {"stderr": 0.01}),
    "CheckResult": (lambda: CHECK, {"passed": False}),
    "VerifySummary": (lambda: VerifySummary((CHECK,)), {"results": ()}),
}
# Their fields hold numpy arrays, which have no hash.
UNHASHABLE = {"AmplitudeProfile", "PhotonState", "Transcript"}


@pytest.fixture(params=list(RECORDS), ids=list(RECORDS))
def record(request):
    make, change = RECORDS[request.param]
    obj = make()
    return request.param, obj, change(obj) if callable(change) else change


def _declared(cls) -> list[str]:
    """The annotated names of ``cls`` and its bases, bases first, as dataclass orders fields."""
    names = {}
    for klass in reversed(cls.__mro__):
        names.update(dict.fromkeys(vars(klass).get("__annotations__", {})))
    return list(names)


def test_every_record_class_is_covered():
    modules = (adversary, distill, harness, measurement, security, wavepacket)
    found = {name for module in modules for name, value in vars(module).items()
             if isinstance(value, type) and value.__module__ == module.__name__
             and dataclasses.is_dataclass(value)}
    assert found == set(RECORDS)


def test_fields_replace_and_astuple(record):
    name, obj, change = record
    cls = type(obj)
    assert cls.__name__ == name and dataclasses.is_dataclass(obj)
    assert [f.name for f in fields(obj)] == _declared(cls)
    values = dataclasses.astuple(obj)
    assert len(values) == len(fields(obj))
    for f, value in zip(fields(obj), values):
        if isinstance(getattr(obj, f.name), (int, float, str, enum.Enum, type(None))):
            assert value == getattr(obj, f.name)
    again = dataclasses.replace(obj)
    assert type(again) is cls and again == obj
    moved = dataclasses.replace(obj, **change)
    for key, value in change.items():
        assert getattr(moved, key) == value
    assert moved != obj
    for f in fields(obj):
        if not f.init:
            with pytest.raises(REPLACE_ERROR, match="init=False"):
                dataclasses.replace(obj, **{f.name: getattr(obj, f.name)})


def test_frozen(record):
    _, obj, _ = record
    for f in fields(obj):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{f.name}'"):
            setattr(obj, f.name, getattr(obj, f.name))
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{f.name}'"):
            delattr(obj, f.name)
    with pytest.raises(FrozenInstanceError):
        obj.extra = 1


def test_equality_and_hash_from_the_fields(record):
    name, obj, _ = record
    values = tuple(getattr(obj, f.name) for f in fields(obj))
    assert obj == dataclasses.replace(obj)
    assert obj.__eq__(values) is NotImplemented and obj != values
    if name == "Transcript":
        # Its own __eq__ compares the arrays as arrays, so copies are equal.
        copied = Transcript(obj.round_table.copy(), obj.blocks.copy(), obj.subsets,
                            obj.blocks_per_parity)
        assert copied == obj and copied.round_table is not obj.round_table
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
    else:
        assert hash(obj) == hash(values) == hash(dataclasses.replace(obj))


def test_repr(record):
    name, obj, _ = record
    shown = ", ".join(f"{f.name}={getattr(obj, f.name)!r}" for f in fields(obj))
    assert repr(obj) == f"{name}({shown})"


def test_argument_errors(record):
    _, obj, _ = record
    cls = type(obj)
    given = {f.name: getattr(obj, f.name) for f in fields(obj) if f.init}
    required = [f.name for f in fields(obj) if f.init and f.default is dataclasses.MISSING]
    assert cls(*given.values()) == obj == cls(**given)
    missing = f"missing 1 required positional argument.*'{required[-1]}'"
    with pytest.raises(TypeError, match=missing):
        cls(**{key: value for key, value in given.items() if key != required[-1]})
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(**given, bogus=1)
    with pytest.raises(TypeError, match="multiple values"):
        cls(*given.values(), **{required[0]: given[required[0]]})
    with pytest.raises(TypeError, match=f"takes (from . to )?{len(given) + 1} positional"):
        cls(*given.values(), None)


def test_round_record_keeps_no_dict():
    record = RECORDS["RoundRecord"][0]()
    assert not hasattr(record, "__dict__")
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))


@pytest.mark.parametrize("annotations, defaults", [
    ({"x": list}, {"x": field(default_factory=list)}),
    ({"x": int}, {"x": field(init=False, default=0)}),
    ({"_": KW_ONLY, "x": int}, {}),
    ({"x": InitVar[int]}, {}),
    ({"x": ClassVar[int]}, {}),
], ids=["default_factory", "init=False default", "kw_only", "InitVar", "ClassVar"])
def test_frozen_refuses_what_it_does_not_implement(annotations, defaults):
    with pytest.raises(TypeError, match="@frozen does not implement"):
        frozen(type("Refused", (), {"__annotations__": annotations, **defaults}))


def test_import_compiles_no_method():
    # dataclass(frozen=True) compiles six methods a class from generated
    # source on every import, 96 for the 16 records, and reads each
    # signature of a class without a docstring by parsing it.  Python 3.13
    # also compiles one empty builder a class, which defines no method.
    script = """if True:
        import dataclasses, re, sys
        defined = []

        def hook(event, args):
            if event != "compile" or not isinstance(args[0], (str, bytes)):
                return
            frame = sys._getframe(1)
            while frame and not frame.f_code.co_filename.endswith("dataclasses.py"):
                frame = frame.f_back
            if frame:
                source = args[0] if isinstance(args[0], str) else args[0].decode()
                defined.extend(re.findall(r"def (\\w+)", source))

        sys.addaudithook(hook)
        import relqkd.cli, relqkd.harness
        print(" ".join(name for name in defined if name != "__create_fn__"))
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
