"""The result and record types: immutable values with a fixed field list.

Each record is a `typing.NamedTuple`, or a small slotted class where it
validates its input (`OraclePrefix`, `Pattern`), computes a field once
(`ToyProgram`) or owns per-instance state (`Skeleton`).  These tests pin
what callers rely on: field order and defaults, the `Name(field=value,
...)` repr, equality and hashing by value, and refusal of assignment.
"""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import groupwalk
from groupwalk import automata, kgroup, machines, subshift

OFF = automata.Offset(("a",), 1)
PAT = subshift.Pattern("Z", 2, (0, 3))
PROG = machines.ToyProgram((("INC", 2), ("HALT",)))
RATE = machines.RATE_PRESETS["identity"]

# type, fields in order, defaults, two samples that differ
RECORDS = [
    (automata.Offset, ("g_word", "dz"), {}, (("a",), 1), ((), 1)),
    (automata.PatchCheck, ("offset", "bit"), {}, (OFF, 1), (OFF, 0)),
    (automata.OtherCheck, ("head", "offset", "state"), {}, (None, OFF, "q"), (1, None, None)),
    (
        automata.RuleEntry,
        ("head", "state", "patch", "others", "move", "next_state"),
        {},
        (0, "q", (automata.PatchCheck(OFF, 0),), None, "z+1", "r"),
        (None, None, None, None, "stay", "r"),
    ),
    (automata.Slot, ("offset", "state"), {}, (OFF, "q"), (OFF, "r")),
    (automata.PeriodicConfig, ("period",), {}, (3,), (4,)),
    (automata.Head, ("g", "z", "state"), {}, ((1, 2), 0, "q"), ((1, 2), 1, "q")),
    (automata.RunState, ("heads", "step"), {}, ((automata.Head(0, 1, "q"),), 4), ((), 4)),
    (
        automata.RunResult,
        ("rejected", "at_step", "arrangement"),
        {"at_step": None, "arrangement": None},
        (True, 3, 0),
        (False,),
    ),
    (
        automata.MembershipResult,
        ("in_s", "phase", "at_step"),
        {"phase": None, "at_step": None},
        (False, 1, 2),
        (True,),
    ),
    (
        automata.PredictorResult,
        ("kind", "phase", "at_step", "query_index"),
        {"phase": None, "at_step": None, "query_index": None},
        ("oracle_exhausted", None, None, 9),
        ("running",),
    ),
    (
        machines.RunOutcome,
        ("halted", "steps", "tainted", "off_end"),
        {"off_end": False},
        (True, 3, False, True),
        (True, 3, False),
    ),
    (machines.RateFunction, ("name", "fn"), {}, tuple(RATE), ("other", RATE.fn)),
    (
        machines.StageRule,
        ("position", "input_value", "prefix", "program", "program_label"),
        {},
        (5, 1, "010", PROG, "enum[0]"),
        (5, 1, "011", PROG, "enum[0]"),
    ),
    (
        machines.Stage,
        ("index", "m", "inputs", "big_m", "rules", "m_prime"),
        {},
        (0, 0, (0,), 0, (), 1),
        (1, 0, (0,), 0, (), 1),
    ),
    (machines.Witness, ("p", "position", "member", "halted"), {}, (1, 2, True, True), (1, 2, False, False)),
    (
        machines.WitnessReport,
        ("rate_name", "stages", "step_cap", "p_max", "witnesses"),
        {},
        ("identity", 1, 10, 5, {"halt": ()}),
        ("identity", 2, 10, 5, {}),
    ),
    (machines.ProbeMap, ("rate", "position_of", "label"), {}, (RATE, abs, "mix"), (RATE, abs, "other")),
    (kgroup.ActResult, ("pattern", "shift", "state"), {}, (PAT, 0, (1, 2, 3)), (PAT, 1, (1, 2, 3))),
    (
        kgroup.WpResult,
        ("kind", "gamma_witness", "pattern_witness", "needed_length"),
        {"gamma_witness": None, "pattern_witness": None, "needed_length": None},
        ("non_identity", None, PAT),
        ("identity",),
    ),
    (kgroup.ConjWitness, ("kind", "distances"), {"distances": ()}, ("distances", (1, 2)), ("always_zero",)),
    (
        kgroup.SweepReport,
        ("patterns_checked", "fixes_all", "failure_ones"),
        {"failure_ones": None},
        (3, False, (0, 1)),
        (3, True),
    ),
    (subshift.Legality, ("kind", "distance"), {"distance": None}, ("unknown", 4), ("legal",)),
    (subshift.OraclePrefix, ("bits",), {}, ("0110",), ("0111",)),
    (subshift.Pattern, ("ctx_name", "radius", "ones"), {}, ("Z", 2, (0, 3)), ("S3", 3, (0, 3))),
    (machines.ToyProgram, ("instructions",), {}, (PROG.instructions,), ((("HALT",),),)),
]


def _signature(cls):
    params = inspect.signature(cls).parameters.values()
    fields = tuple(p.name for p in params)
    defaults = {p.name: p.default for p in params if p.default is not inspect.Parameter.empty}
    return fields, defaults


@pytest.mark.parametrize(
    "cls, fields, defaults, args, other_args", RECORDS, ids=[row[0].__name__ for row in RECORDS]
)
def test_record_contract(cls, fields, defaults, args, other_args):
    assert _signature(cls) == (fields, defaults)
    x, y, other = cls(*args), cls(*args), cls(*other_args)
    values = tuple(getattr(x, f) for f in fields)
    assert repr(x) == f"{cls.__name__}(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)
    ) + ")"
    assert x == y and not x != y and x is not y
    assert x != other
    try:
        hash(values)
    except TypeError:  # a dict field, as in WitnessReport: unhashable
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y)
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)


def test_every_record_type_is_listed():
    """Every NamedTuple the modules define is in the contract table or
    predates it (`KGen`, `WordAnalysis`)."""
    listed = {row[0] for row in RECORDS} | {kgroup.KGen, kgroup.WordAnalysis}
    for module in (automata, kgroup, machines, subshift):
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, tuple) and value.__module__ == module.__name__:
                assert value in listed, value


def test_constructors_still_validate():
    with pytest.raises(ValueError):
        subshift.OraclePrefix("01x")
    with pytest.raises(ValueError):
        subshift.Pattern("Z", 2, (0, 1, 2))


def test_toy_program_counts_its_registers_once():
    assert PROG.register_count == 3
    assert machines.ToyProgram((("HALT",),)).register_count == 1
    with pytest.raises(AttributeError):
        PROG.register_count = 9


def test_skeleton_is_immutable_and_equal_only_to_itself():
    table = {n: n for n in range(64)}  # a rate table is wrapped anew: never cached
    a = machines.build_skeleton(table, 2)
    b = machines.build_skeleton(table, 2)
    assert a.to_text() == b.to_text()
    assert a == a and a != b and len({a, b}) == 2
    fields = ("rate", "enumeration_label", "stages", "length", "probe")
    assert _signature(machines.Skeleton) == (fields, {})
    assert repr(a) == (
        f"Skeleton(rate={a.rate!r}, enumeration_label={a.enumeration_label!r}, "
        f"stages={a.stages!r}, length={a.length!r})"
    )
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert a.to_text() is a.to_text()


def test_importing_the_cli_loads_no_dataclasses():
    """A `@dataclass` costs about 1 ms of start-up in every process, and
    importing `dataclasses` pulls in `inspect`."""
    env = dict(os.environ, PYTHONPATH=str(Path(groupwalk.__file__).parents[1]))
    code = "import sys, groupwalk.cli; sys.exit('dataclasses' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
