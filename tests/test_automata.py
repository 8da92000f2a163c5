import importlib.util
import json
import random
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest

from groupwalk import automata, groups
from groupwalk.automata import (
    AutomatonSpec,
    CanonicalBackend,
    FiniteSupportConfig,
    Head,
    RunState,
    make_xp,
    membership_test,
    place,
    predictor,
    probe_word_is_identity,
    run,
    step,
    trace_records,
)
from groupwalk.errors import SpecificationError
from groupwalk.subshift import OraclePrefix

import oracles


def spec_from(data):
    return AutomatonSpec.from_json(json.dumps(data))


DETECTOR = {
    "group": "Z",
    "heads": 1,
    "radius": 1,
    "states": [["scan", "hit"]],
    "rule": [
        {"head": 0, "state": "scan", "patch": [[["", 0], 1], [["", 1], 1]],
         "move": "stay", "next": "hit"},
        {"head": 0, "state": "scan", "patch": None, "move": "z+1", "next": "scan"},
        {"head": 0, "state": "hit", "patch": None, "move": "stay", "next": "hit"},
    ],
    "initial": [[{"offset": ["", 0], "state": "scan"}]],
    "final": [[{"offset": ["", 0], "state": "hit"}]],
}


def wrapped_detector():
    data = {
        "group": "Z",
        "heads": 3,
        "radius": 1,
        "states": [["scan", "hit"], ["idle"], ["idle"]],
        "rule": DETECTOR["rule"]
        + [{"head": None, "state": "idle", "patch": None, "move": "stay", "next": "idle"}],
        "initial": [[
            {"offset": ["", 0], "state": "scan"},
            {"offset": ["", 0], "state": "idle"},
            {"offset": ["", 0], "state": "idle"},
        ]],
        "final": [[{"offset": ["", 0], "state": "hit"}, None, None]],
    }
    return spec_from(data)


def walker(moves, group="Z", heads=1, extra_rules=(), final=()):
    """One head cycling through the given move list, optional idle heads."""
    states = [[f"s{i}" for i in range(len(moves))]] + [["idle"]] * (heads - 1)
    rule = [
        {"head": 0, "state": f"s{i}", "patch": None,
         "move": mv, "next": f"s{(i + 1) % len(moves)}"}
        for i, mv in enumerate(moves)
    ]
    rule += [{"head": None, "state": "idle", "patch": None, "move": "stay", "next": "idle"}]
    rule += list(extra_rules)
    initial = [[{"offset": ["", 0], "state": "s0"}]
               + [{"offset": ["", 0], "state": "idle"}] * (heads - 1)]
    return spec_from({
        "group": group, "heads": heads, "radius": 1, "states": states,
        "rule": rule, "initial": initial, "final": list(final),
    })


def test_make_xp():
    with pytest.raises(ValueError):
        make_xp(0)
    assert all(make_xp(1).value(z) == 1 for z in range(-5, 6))
    x2 = make_xp(2)
    assert x2.value(3) == 0 and x2.value(4) == 1 and x2.value(-2) == 1


def test_spec_validation():
    bad = dict(DETECTOR)
    bad["rule"] = [dict(DETECTOR["rule"][0], move="warp")] + DETECTOR["rule"][1:]
    with pytest.raises(ValueError):
        spec_from(bad)
    far = dict(DETECTOR)
    far["initial"] = [[{"offset": ["", 5], "state": "scan"}]]
    with pytest.raises(ValueError):
        spec_from(far)


def test_single_head_step_advances():
    spec = walker(["z+1"])
    backend = CanonicalBackend(spec.G)
    rs = place(spec, spec.initial[0], backend)
    rs = step(spec, make_xp(1), rs)
    assert rs.heads[0].z == 1 and rs.step == 1


def test_rule_gap_raises():
    # the table covers s0 but not the state it switches into
    lonely = spec_from({
        "group": "Z", "heads": 1, "radius": 1, "states": [["s0", "ghost"]],
        "rule": [{"head": 0, "state": "s0", "patch": None, "move": "stay", "next": "ghost"}],
        "initial": [[{"offset": ["", 0], "state": "s0"}]],
        "final": [],
    })
    rs = place(lonely, lonely.initial[0], CanonicalBackend(lonely.G))
    rs = step(lonely, make_xp(1), rs)
    with pytest.raises(SpecificationError):
        step(lonely, make_xp(1), rs)


def test_distant_heads_move_as_if_alone():
    solo = walker(["z+1", "z-1"])
    duo_data = {
        "group": "Z", "heads": 2, "radius": 1,
        "states": [["s0", "s1"], ["t0", "t1"]],
        "rule": [
            {"head": 0, "state": "s0", "patch": None, "move": "z+1", "next": "s1"},
            {"head": 0, "state": "s1", "patch": None, "move": "z-1", "next": "s0"},
            {"head": 1, "state": "t0", "patch": None, "move": "z+1", "next": "t1"},
            {"head": 1, "state": "t1", "patch": None, "move": "z-1", "next": "t0"},
        ],
        "initial": [[{"offset": ["", 0], "state": "s0"},
                     {"offset": ["", 0], "state": "t0"}]],
        "final": [],
    }
    duo = spec_from(duo_data)
    backend = CanonicalBackend(duo.G)
    rs_solo = place(solo, solo.initial[0], CanonicalBackend(solo.G))
    rs_duo = place(duo, duo.initial[0], backend)
    # park head 1 far away: still moves by its own rules
    from groupwalk.automata import Head, RunState

    rs_duo = RunState((rs_duo.heads[0], Head(rs_duo.heads[1].g, 40, "t0")), 0)
    for _ in range(6):
        rs_solo = step(solo, make_xp(2), rs_solo)
        rs_duo = step(duo, make_xp(2), rs_duo)
        assert rs_duo.heads[0].z == rs_solo.heads[0].z
        assert rs_duo.heads[1].z - 40 == rs_solo.heads[0].z


def test_meet_rule_switches_both_heads():
    data = {
        "group": "Z", "heads": 2, "radius": 1,
        "states": [["walk", "met"], ["wait", "met"]],
        "rule": [
            {"head": 0, "state": "walk",
             "others": [{"head": 1, "offset": ["", 0], "state": "wait"}],
             "patch": None, "move": "stay", "next": "met"},
            {"head": 1, "state": "wait",
             "others": [{"head": 0, "offset": ["", 0], "state": "walk"}],
             "patch": None, "move": "stay", "next": "met"},
            {"head": 0, "state": "walk", "patch": None, "move": "z+1", "next": "walk"},
            {"head": 1, "state": "wait", "patch": None, "move": "stay", "next": "wait"},
            {"head": None, "state": "met", "patch": None, "move": "stay", "next": "met"},
        ],
        "initial": [[{"offset": ["", 0], "state": "walk"},
                     {"offset": ["", 1], "state": "wait"}]],
        "final": [],
    }
    spec = spec_from(data)
    backend = CanonicalBackend(spec.G)
    rs = place(spec, spec.initial[0], backend)
    rs = step(spec, make_xp(1), rs)  # head 0 walks onto head 1's cell
    assert rs.heads[0].state == "walk" and rs.heads[1].state == "wait"
    rs = step(spec, make_xp(1), rs)  # both see each other at offset 0
    assert rs.heads[0].state == "met" and rs.heads[1].state == "met"


def test_run_survives_with_no_final_set():
    spec = walker(["z+1"])
    assert run(spec, make_xp(1), 0, 50).survived


def test_detector_membership():
    spec = spec_from(DETECTOR)
    r1 = membership_test(spec, 1, 100)
    assert not r1.in_s and r1.phase == 0 and r1.at_step == 1
    assert membership_test(spec, 2, 100).in_s
    r3 = membership_test(spec, 3, 100)
    assert r3.in_s


def test_membership_witness_phase_in_range():
    spec = spec_from(DETECTOR)
    for p in (1, 2, 4):
        res = membership_test(spec, p, 60)
        if not res.in_s:
            assert 0 <= res.phase < p


def test_rejection_is_deterministic():
    spec = spec_from(DETECTOR)
    runs = [run(spec, make_xp(1), 0, 50) for _ in range(3)]
    assert all(r == runs[0] for r in runs)


def test_shift_covariance_on_periodic_configs():
    spec = spec_from(DETECTOR)
    for p in (2, 3):
        for t in range(2 * p):
            a = run(spec, make_xp(p), t, 40)
            b = run(spec, make_xp(p), t % p, 40)
            assert a == b


def test_separation_trace_single_head_is_zero():
    spec = walker(["z+1"])
    assert [rec[5] for rec in trace_records(spec, make_xp(1), 0, 10) if rec[1] == 0] == [0] * 11


def test_separation_trace_identical_rules_stay_together():
    data = {
        "group": "Z", "heads": 2, "radius": 1,
        "states": [["s"], ["t"]],
        "rule": [
            {"head": None, "state": None, "patch": None, "move": "z+1", "next": "s"},
        ],
        "initial": [[{"offset": ["", 0], "state": "s"}, {"offset": ["", 0], "state": "t"}]],
        "final": [],
    }
    # same movement for both heads; states differ but rule is shared
    data["rule"] = [
        {"head": 0, "state": "s", "patch": None, "move": "z+1", "next": "s"},
        {"head": 1, "state": "t", "patch": None, "move": "z+1", "next": "t"},
    ]
    spec = spec_from(data)
    assert [rec[5] for rec in trace_records(spec, make_xp(1), 0, 8) if rec[1] == 0] == [0] * 9


def test_separation_trace_grigorchuk_orbit():
    data = {
        "group": "grigorchuk", "heads": 2, "radius": 1,
        "states": [["s0", "s1"], ["idle"]],
        "rule": [
            {"head": 0, "state": "s0", "patch": None, "move": "g:a", "next": "s1"},
            {"head": 0, "state": "s1", "patch": None, "move": "g:b", "next": "s0"},
            {"head": 1, "state": "idle", "patch": None, "move": "stay", "next": "idle"},
        ],
        "initial": [[{"offset": ["", 0], "state": "s0"},
                     {"offset": ["", 0], "state": "idle"}]],
        "final": [],
    }
    spec = spec_from(data)
    trace = [rec[5] for rec in trace_records(spec, make_xp(1), 0, 32) if rec[1] == 0]
    # the walking head cycles an order-8 product of two generators
    assert max(trace) <= 8 * 2
    assert trace[16] == 0 and trace[32] == 0


def test_locality_far_edits_do_not_matter():
    spec = spec_from(DETECTOR)
    near = FiniteSupportConfig([(0, 0), (0, 1)])
    far_extra = FiniteSupportConfig([(0, 0), (0, 1), (0, 90)])
    a = run(spec, near, 0, 30)
    b = run(spec, far_extra, 0, 30)
    assert a == b and a.rejected


def test_head_conservation_and_determinism_random_specs():
    rng = random.Random(88)
    for _ in range(25):
        spec = random_total_spec(rng)
        backend = CanonicalBackend(spec.G)
        rs1 = place(spec, spec.initial[0], backend)
        rs2 = place(spec, spec.initial[0], backend)
        for _ in range(40):
            rs1 = step(spec, make_xp(3), rs1, backend)
            rs2 = step(spec, make_xp(3), rs2, backend)
            assert len(rs1.heads) == spec.heads
            assert rs1 == rs2


def random_total_spec(rng, group="Z"):
    heads = rng.randint(1, 3)
    states = [[f"q{i}{j}" for j in range(rng.randint(1, 2))] for i in range(heads)]
    moves = ["stay", "z+1", "z-1", "g:+1", "g:-1"]
    rule = []
    for i in range(heads):
        for q in states[i]:
            if rng.random() < 0.5:
                rule.append({
                    "head": i, "state": q,
                    "patch": [[["", 0], rng.randint(0, 1)]],
                    "move": rng.choice(moves), "next": rng.choice(states[i]),
                })
            rule.append({
                "head": i, "state": q, "patch": None,
                "move": rng.choice(moves), "next": rng.choice(states[i]),
            })
    initial = [[{"offset": ["", 0], "state": states[i][0]} for i in range(heads)]]
    return spec_from({
        "group": group, "heads": heads, "radius": 1, "states": states,
        "rule": rule, "initial": initial, "final": [],
    })


def test_predictor_empty_final_always_running():
    spec = walker(["z+1"], heads=3)
    prefix = OraclePrefix(groups.word_problem_prefix(spec.G, 10))
    for cap in (1, 10, 100):
        assert predictor(spec, 2, prefix, cap).kind == "running"


def test_predictor_matches_membership_on_detector():
    spec = wrapped_detector()
    prefix = OraclePrefix(groups.word_problem_prefix(spec.G, 20))
    for p in (1, 2, 3):
        want = membership_test(spec, p, 100)
        got = predictor(spec, p, prefix, 100)
        assert got.halted == (not want.in_s)
        if got.halted:
            assert (got.phase, got.at_step) == (want.phase, want.at_step)


def test_predictor_with_moving_g_head():
    data = {
        "group": "Z", "heads": 3, "radius": 1,
        "states": [["a", "b"], ["idle"], ["idle"]],
        "rule": [
            {"head": 0, "state": "a", "patch": None, "move": "g:+1", "next": "b"},
            {"head": 0, "state": "b", "patch": None, "move": "g:-1", "next": "a"},
            {"head": None, "state": "idle", "patch": None, "move": "stay", "next": "idle"},
        ],
        "initial": [[{"offset": ["", 0], "state": "a"},
                     {"offset": ["", 0], "state": "idle"},
                     {"offset": ["", 0], "state": "idle"}]],
        "final": [[{"offset": ["+1", 0], "state": "b"},
                   {"offset": ["", 0], "state": "idle"}, None]],
    }
    spec = spec_from(data)
    want = membership_test(spec, 2, 6)
    prefix = OraclePrefix(groups.word_problem_prefix(spec.G, 4000))
    got = predictor(spec, 2, prefix, 6)
    assert got.halted == (not want.in_s)


def test_predictor_oracle_exhaustion_is_typed():
    # final arrangement pins a second head, forcing a G-equality query
    data = {
        "group": "Z", "heads": 3, "radius": 1,
        "states": [["a", "b"], ["idle"], ["idle"]],
        "rule": [
            {"head": 0, "state": "a", "patch": None, "move": "g:+1", "next": "b"},
            {"head": 0, "state": "b", "patch": None, "move": "g:-1", "next": "a"},
            {"head": None, "state": "idle", "patch": None, "move": "stay", "next": "idle"},
        ],
        "initial": [[{"offset": ["", 0], "state": "a"},
                     {"offset": ["", 0], "state": "idle"},
                     {"offset": ["", 0], "state": "idle"}]],
        "final": [[{"offset": ["", 0], "state": "b"},
                   {"offset": ["", 0], "state": "idle"}, None]],
    }
    spec = spec_from(data)
    res = predictor(spec, 2, OraclePrefix(""), 50)
    assert res.kind == "oracle_exhausted" and res.query_index is not None


def test_predictor_requires_three_heads():
    with pytest.raises(ValueError):
        predictor(spec_from(DETECTOR), 1, OraclePrefix("1"), 10)


def test_probe_word_identity_checks():
    G = groups.group_context("Z")
    always_zero = lambda p: 0
    from groupwalk.machines import ProbeMap, rate_function

    zero_handle = ProbeMap(rate_function("identity"), always_zero, "zero")
    one_handle = ProbeMap(rate_function("identity"), lambda p: 1, "plus")
    assert probe_word_is_identity(zero_handle, 5, G)  # empty word
    assert not probe_word_is_identity(one_handle, 5, G)  # the word "+1"


def test_probe_word_matches_wp_prefix_bits():
    G = groups.group_context("Z")
    prefix = groups.word_problem_prefix(G, 64)
    from groupwalk.machines import ProbeMap, rate_function

    handle = ProbeMap(rate_function("identity"), lambda p: (7 * p + 3) % 64, "mix")
    for p in range(20):
        assert probe_word_is_identity(handle, p, G) == (prefix[handle.position_of(p)] == "1")


def _walk_workload():
    """perfbench/workloads.py, which builds the walk benchmark's specs."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    loader = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(loader)
    sys.modules[loader.name] = module  # dataclasses look their module up
    try:
        loader.loader.exec_module(module)
    finally:
        del sys.modules[loader.name]
    return module


def _walk_workload_specs():
    """The walk benchmark's 17 specs with their period p and step cap."""
    workloads = _walk_workload()
    contexts = {}
    for i, (name, radius, p, cap, kind) in enumerate(workloads.WALK_CASES):
        g = contexts.setdefault(name, groups.group_context(name))
        data = workloads.spec_data(random.Random(i), groups, g, radius, kind)
        yield spec_from(data), p, cap


def test_spec_json_roundtrip_on_walk_workload_specs():
    for spec, _p, _cap in _walk_workload_specs():
        text = spec.to_json()
        again = AutomatonSpec.from_json(text)
        assert again.to_json() == text
        assert (again.G.name, again.heads, again.radius, again.states) == (
            spec.G.name, spec.heads, spec.radius, spec.states)
        assert (again.rule, again.initial, again.final) == (
            spec.rule, spec.initial, spec.final)


# -- fast paths against the reference stepper -----------------------------------


def reference_membership(spec, p, cap, backend=None):
    """`membership_test` as a phase sweep of `oracles.reference_run`."""
    for phase in range(p):
        r = oracles.reference_run(spec, make_xp(p), phase, cap, backend)
        if r.rejected:
            return automata.MembershipResult(False, phase=phase, at_step=r.at_step)
    return automata.MembershipResult(True)


def _with_reference_step(monkeypatch, fn, *args):
    """fn(*args) with every automaton step taken by `oracles.reference_step`."""
    with monkeypatch.context() as patched:
        patched.setattr(automata, "step", oracles.reference_step)
        return fn(*args)


def random_watching_spec(rng, group):
    """Three heads that wander and test each other: in-range checks (no
    offset), offset checks, patch reads, wildcard heads and states, and a
    final arrangement that pins two heads together."""
    g = groups.group_context(group)
    moves = ["stay", "z+1", "z-1"] + [f"g:{s}" for s in g.generators]
    states = [["a", "b"], ["a", "b"], ["a", "b"]]
    offsets = [[" ".join(w), 0] for w in groups.ball_words(g, 1)] + [["", 1], ["", -1]]
    rule = []
    for _ in range(rng.randint(3, 8)):
        others = []
        for _ in range(rng.randint(1, 2)):
            others.append({
                "head": rng.choice([None, 0, 1, 2]),
                "offset": rng.choice([None, None, rng.choice(offsets)]),
                "state": rng.choice([None, "a", "b"]),
            })
        rule.append({
            "head": rng.choice([None, 0, 1, 2]), "state": rng.choice([None, "a", "b"]),
            "patch": rng.choice([None, [[["", rng.randint(-1, 1)], rng.randint(0, 1)]]]),
            "others": others, "move": rng.choice(moves), "next": rng.choice(["a", "b"]),
        })
    for i in range(3):  # a fallback per head keeps the table total
        rule.append({"head": i, "state": None, "patch": None,
                     "move": rng.choice(moves), "next": rng.choice(["a", "b"])})
    origin = {"offset": ["", 0], "state": "a"}
    return spec_from({
        "group": group, "heads": 3, "radius": 2, "states": states, "rule": rule,
        "initial": [[origin, origin, dict(origin, state="b")]],
        "final": [[{"offset": ["", 0], "state": "b"}, {"offset": ["", 0], "state": "b"}, None]],
    })


@pytest.mark.parametrize("group", ["Z", "S3", "grigorchuk", "Z x grigorchuk"])
def test_in_range_lookup_equals_ball_offset_scan(group):
    """`within(a, b, r - |dz|)` against the scan over ball offsets, for every
    pair of positions in ball(r + 2) and every |dz| <= r (dz and -dz share a
    budget; `step` never asks about |dz| > r)."""
    g = groups.group_context(group)
    backend = CanonicalBackend(g)
    for r in range(1, 5):
        words = groups.ball_words(g, r)
        positions = groups.ball(g, r + 2)
        for a in positions:
            # a w for the ball words w of each norm bound, by element equality
            reach = [set() for _ in range(r + 1)]
            for w in words:
                x = backend.apply_word(a, w)
                for budget in range(len(w), r + 1):
                    reach[budget].add(x)
            for b in positions:
                for budget in range(r + 1):
                    assert backend.within(a, b, budget) == (b in reach[budget])


def test_step_reads_in_range_by_norm_budget():
    """Through `step`: a head sees another exactly when |g^-1 g'| <= r - |dz|."""
    for group in ("Z", "grigorchuk"):
        g = groups.group_context(group)
        for r in (1, 2):
            spec = spec_from({
                "group": group, "heads": 2, "radius": r,
                "states": [["look", "seen", "blind"], ["idle"]],
                "rule": [
                    {"head": 0, "state": "look", "patch": None,
                     "others": [{"head": 1, "offset": None, "state": None}],
                     "move": "stay", "next": "seen"},
                    {"head": 0, "state": "look", "patch": None, "move": "stay", "next": "blind"},
                    {"head": 1, "state": "idle", "patch": None, "move": "stay", "next": "idle"},
                ],
                "initial": [[{"offset": ["", 0], "state": "look"},
                             {"offset": ["", 0], "state": "idle"}]],
                "final": [],
            })
            for b in groups.ball(g, r + 2):
                norm = groups.word_norm(g, b)
                for dz in range(-(r + 1), r + 2):
                    rs = RunState((Head(g.identity(), 0, "look"), Head(b, dz, "idle")), 0)
                    seen = step(spec, make_xp(1), rs).heads[0].state == "seen"
                    assert seen == (norm <= r - abs(dz))


def test_step_matches_reference_on_random_specs(monkeypatch):
    rng = random.Random(88)
    specs = [random_total_spec(rng) for _ in range(25)]
    rng = random.Random(5)
    specs += [random_watching_spec(rng, group)
              for group in ("Z", "S3", "grigorchuk", "Z x grigorchuk") for _ in range(6)]
    for spec in specs:
        for p in (1, 3):
            backend = CanonicalBackend(spec.G)
            fast = slow = place(spec, spec.initial[0], backend)
            for _ in range(40):
                fast = step(spec, make_xp(p), fast, backend)
                slow = oracles.reference_step(spec, make_xp(p), slow, backend)
                assert fast == slow
            assert trace_records(spec, make_xp(p), 1, 40) == _with_reference_step(
                monkeypatch, trace_records, spec, make_xp(p), 1, 40)
            assert membership_test(spec, p, 60) == _with_reference_step(
                monkeypatch, membership_test, spec, p, 60)


def test_walk_workload_specs_match_reference(monkeypatch):
    for spec, p, cap in _walk_workload_specs():
        cap = min(cap, 300)  # a patrol cycle is at most 2 * 18 * 4 steps long
        got = membership_test(spec, p, cap)
        assert got == _with_reference_step(monkeypatch, reference_membership, spec, p, cap)
        assert trace_records(spec, make_xp(p), 0, 80) == _with_reference_step(
            monkeypatch, trace_records, spec, make_xp(p), 0, 80)


def test_predictor_queries_match_reference(monkeypatch):
    """Same verdicts and the same first out-of-range query index, so the
    oracle engine asks its word-problem queries in the reference order."""
    cases = [(spec, p, min(cap, 120)) for spec, p, cap in _walk_workload_specs()]
    rng = random.Random(6)
    cases += [(random_watching_spec(rng, group), p, 40)
              for group in ("Z", "S3", "grigorchuk") for p in (1, 2)]
    kinds = set()
    for spec, p, cap in cases:
        full = groups.word_problem_prefix(spec.G, 16384)
        for length in (0, 7, 60, 700, 4096, 16384):
            prefix = OraclePrefix(full[:length])
            got = predictor(spec, p, prefix, cap)
            want = _with_reference_step(monkeypatch, predictor, spec, p, prefix, cap)
            assert got == want
            kinds.add(got.kind)
    assert kinds == {"halted", "running", "oracle_exhausted"}


def test_radius_4_grigorchuk_in_range_checks_make_no_equality_calls(monkeypatch):
    calls = []
    equal = CanonicalBackend.equal

    def counting_equal(self, a, b):
        calls.append(1)
        return equal(self, a, b)

    monkeypatch.setattr(CanonicalBackend, "equal", counting_equal)
    for spec, p, cap in _walk_workload_specs():
        if spec.G.name != "grigorchuk" or spec.radius != 4:
            continue
        # the only final slot pins one head, so no equality comes from in_final
        assert all(sum(s is not None for s in arr) == 1 for arr in spec.final)
        membership_test(spec, p, 60)
        assert calls == []
        _with_reference_step(monkeypatch, membership_test, spec, p, 60)
        assert calls  # the ball-offset scan does make them
        calls.clear()


def test_dispatch_index_equals_a_table_scan():
    """`entries_for` equals the table scan for every declared (head, state)
    and for one undeclared state, on specs with wildcard heads and states."""
    rng = random.Random(88)
    specs = [random_total_spec(rng) for _ in range(25)]
    rng = random.Random(5)
    specs += [random_watching_spec(rng, group)
              for group in ("Z", "S3", "grigorchuk", "Z x grigorchuk") for _ in range(6)]
    specs += [spec for spec, _p, _cap in _walk_workload_specs()]
    assert any(e.head is None for spec in specs for e in spec.rule)
    assert any(e.state is None for spec in specs for e in spec.rule)
    for spec in specs:
        for head, states in enumerate(spec.states):
            for state in states + ("undeclared",):
                want = tuple(e for e in spec.rule
                             if e.head in (None, head) and e.state in (None, state))
                assert spec.entries_for(head, state) == want


# -- the repeated-layout cut in `run` -----------------------------------------


CUT_GROUPS = ("Z", "S3", "grigorchuk", "Z x grigorchuk", "Z x S3")


def _counting_steps(monkeypatch):
    """Route `automata.step` through a wrapper; returns its call list."""
    calls = []
    real = automata.step

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(automata, "step", counted)
    return calls


def _first_repeat_steps(spec, config, phase, cap):
    """Steps a run takes when it stops at exactly the first repeat: per
    arrangement, the first n <= cap at which it rejects, reaches the cap,
    or meets a layout seen at an earlier step, kept in a plain set."""
    backend = CanonicalBackend(spec.G)
    total = 0
    for arr in spec.initial:
        rs = place(spec, arr, backend, phase)
        seen = set()
        for n in range(cap + 1):
            here = automata._layout(rs, config.period, backend)
            if automata.in_final(spec, rs, backend) or n == cap or here in seen:
                break
            seen.add(here)
            rs = oracles.reference_step(spec, config, rs, backend)
        total += n
    return total


def _cut_cases():
    """Watching specs (which reject, cycle and drift) with p <= 4, and
    total specs with p <= 3."""
    rng = random.Random(14)
    cases = [(random_watching_spec(rng, group), 4) for group in CUT_GROUPS for _ in range(6)]
    rng = random.Random(41)
    return cases + [(random_total_spec(rng), 3) for _ in range(10)]


def test_run_matches_reference_run_on_random_specs(monkeypatch):
    """The cut changes no result: every phase of every case, and each
    membership sweep against the sweep of the reference runs.  With a cap
    below the record size, each run takes exactly the steps up to its
    first repeated layout."""
    cases = _cut_cases()
    cap = 400
    assert cap < automata.MAX_RECORDED_LAYOUTS
    calls = _counting_steps(monkeypatch)
    fast = slow = 0
    outcomes = set()
    for spec, p_max in cases:
        for p in range(1, p_max + 1):
            want = automata.MembershipResult(True)
            for phase in range(p):
                calls.clear()
                got = run(spec, make_xp(p), phase, cap)
                assert len(calls) == _first_repeat_steps(spec, make_xp(p), phase, cap)
                fast += len(calls)
                outcomes.add("rejected" if got.rejected else "cut" if len(calls) < cap
                             else "capped")
                calls.clear()
                slow_run = oracles.reference_run(spec, make_xp(p), phase, cap)
                slow += len(calls)
                assert got == slow_run
                if slow_run.rejected and want.in_s:
                    want = automata.MembershipResult(False, phase, slow_run.at_step)
            assert membership_test(spec, p, cap) == want
    assert outcomes == {"rejected", "cut", "capped"}
    assert fast < slow


def _layout_part_specs():
    """Runs that reject only after a layout repeats in all but one part."""
    hunter = spec_from({  # same head, z and state, later z mod p meets a 1
        "group": "Z", "heads": 1, "radius": 1, "states": [["scan", "hit"]],
        "rule": [
            {"head": 0, "state": "scan", "patch": [[["", 0], 1]], "move": "stay", "next": "hit"},
            {"head": 0, "state": "scan", "patch": None, "move": "z+1", "next": "scan"},
            {"head": 0, "state": "hit", "patch": None, "move": "stay", "next": "hit"},
        ],
        "initial": [[{"offset": ["", 0], "state": "scan"}]],
        "final": [[{"offset": ["", 0], "state": "hit"}]],
    })
    countdown = walker(["stay"] * 3, final=[[{"offset": ["", 0], "state": "s2"}]])
    escape = spec_from({  # same z and states while head 0 leaves in G
        "group": "Z", "heads": 2, "radius": 2, "states": [["go"], ["watch", "lost"]],
        "rule": [
            {"head": 0, "state": "go", "patch": None, "move": "g:+1", "next": "go"},
            {"head": 1, "state": "watch", "patch": None,
             "others": [{"head": 0, "offset": None, "state": None}],
             "move": "stay", "next": "watch"},
            {"head": 1, "state": "watch", "patch": None, "move": "stay", "next": "lost"},
            {"head": 1, "state": "lost", "patch": None, "move": "stay", "next": "lost"},
        ],
        "initial": [[{"offset": ["", 0], "state": "go"}, {"offset": ["", 0], "state": "watch"}]],
        "final": [[None, {"offset": ["", 0], "state": "lost"}]],
    })
    return {"phase": hunter, "state": countdown, "relative g": escape}


@pytest.mark.parametrize("part", ["phase", "state", "relative g"])
def test_cut_compares_every_part_of_the_layout(part):
    spec = _layout_part_specs()[part]
    for p in range(1, 5):
        for phase in range(p):
            got = run(spec, make_xp(p), phase, 50)
            assert got.rejected
            assert got == oracles.reference_run(spec, make_xp(p), phase, 50)


def test_cut_ends_a_grigorchuk_patrol_in_its_first_cycles(monkeypatch):
    spec = next(spec for spec, _p, _cap in _walk_workload_specs()
                if spec.G.name == "grigorchuk" and spec.radius == 1)
    calls = _counting_steps(monkeypatch)
    assert membership_test(spec, 3, 1_000_000).in_s
    assert len(calls) == sum(_first_repeat_steps(spec, make_xp(3), phase, 1_000_000)
                             for phase in range(3))


def _drifter():
    """Head 0 drifts away from head 1 forever, so no layout repeats, and
    the final arrangement is never realised."""
    return walker(["z+1", "z+1"], heads=2, final=[[
        {"offset": ["", 0], "state": "s0"}, {"offset": ["", 1], "state": "idle"}]])


def test_cut_needs_a_repeated_layout(monkeypatch):
    """The drifting run steps to the cap."""
    spec = _drifter()
    calls = _counting_steps(monkeypatch)
    for p in (1, 2):
        calls.clear()
        assert run(spec, make_xp(p), 0, 300).survived
        assert len(calls) == 300


def _watching_record(monkeypatch):
    """Give `run` a layout record that notes its size and stride after
    each layout it answers as new, that is once per step `run` takes."""
    sizes, strides = [], []

    class Watched(automata.RepeatRecord):
        def repeated(self, config):
            if super().repeated(config):
                return True
            sizes.append(len(self))
            strides.append(self.stride)
            return False

    monkeypatch.setattr(automata, "RepeatRecord", Watched)
    return sizes, strides


def test_a_thinned_record_changes_no_result(monkeypatch):
    """With a record of 8 layouts the stride doubles within 400 steps, yet
    every run equals the reference run and stops less than one stride past
    its first repeat.  The record is thinned as soon as it reaches 8, so
    between steps it holds fewer."""
    monkeypatch.setattr(automata, "MAX_RECORDED_LAYOUTS", 8)
    sizes, strides = _watching_record(monkeypatch)
    cap = 400
    for spec, p_max in _cut_cases():
        for p in range(1, p_max + 1):
            for phase in range(p):
                sizes.clear()
                strides.clear()
                got = run(spec, make_xp(p), phase, cap)
                first = _first_repeat_steps(spec, make_xp(p), phase, cap)
                assert first <= len(sizes) < first + (strides[-1] if strides else 1)
                assert max(sizes, default=0) < 8  # thinned once it reaches 8
                assert got == oracles.reference_run(spec, make_xp(p), phase, cap)


def test_a_thinned_record_cuts_a_long_grigorchuk_patrol(monkeypatch):
    """The radius-4 patrol first repeats after 141 steps, past a record of 8
    layouts, and is still cut less than one stride later."""
    monkeypatch.setattr(automata, "MAX_RECORDED_LAYOUTS", 8)
    spec, p, _cap = next(case for case in _walk_workload_specs()
                         if case[0].G.name == "grigorchuk" and case[0].radius == 4)
    sizes, strides = _watching_record(monkeypatch)
    cap = 100_000
    for phase in range(p):
        sizes.clear()
        strides.clear()
        assert run(spec, make_xp(p), phase, cap).survived
        first = _first_repeat_steps(spec, make_xp(p), phase, cap)
        assert first > 8 * 8 and strides[-1] > 8
        assert first <= len(sizes) < first + strides[-1]
        assert max(sizes) < 8


def test_a_thinned_record_still_needs_a_repeated_layout(monkeypatch):
    """The drifting run steps to its cap through many doublings of a
    record of 8 layouts."""
    monkeypatch.setattr(automata, "MAX_RECORDED_LAYOUTS", 8)
    spec = _drifter()
    sizes, strides = _watching_record(monkeypatch)
    for p in (1, 2):
        sizes.clear()
        strides.clear()
        assert run(spec, make_xp(p), 0, 300).survived
        assert len(sizes) == 300
        assert max(sizes) < 8 and strides[-1] >= 32


def test_cut_skips_finite_support_and_the_oracle_engine(monkeypatch):
    """A head that stays put repeats its layout at once, yet neither a
    finite-support configuration nor word positions are cut."""
    spec = walker(["stay"])
    calls = _counting_steps(monkeypatch)
    assert run(spec, make_xp(1), 0, 300).survived
    assert len(calls) <= 2
    calls.clear()
    assert run(spec, FiniteSupportConfig([(0, 0)]), 0, 300).survived
    assert len(calls) == 300
    calls.clear()
    prefix = OraclePrefix(groups.word_problem_prefix(spec.G, 8))
    assert run(spec, make_xp(1), 0, 300, automata.OracleBackend(spec.G, prefix)).survived
    assert len(calls) == 300


# -- the walking-group protocol ------------------------------------------------


@dataclass(frozen=True)
class _Boxed:
    """An opaque position: equal exactly when the wrapped positions are,
    and no group element, so any group arithmetic on it fails."""

    inner: object


PROTOCOL = ("start", "apply_gen", "apply_word", "relative", "equal", "within", "element",
            "exact_relative")


def _boxing_backend(calls):
    """`CanonicalBackend` seen through its protocol only: positions are
    boxed, and `calls` counts each method call and each read of
    `exact_relative`."""

    class Boxing:
        def __init__(self, ctx):
            self._real = CanonicalBackend(ctx)

        @property
        def exact_relative(self):
            calls["exact_relative"] += 1
            return self._real.exact_relative

        def start(self):
            calls["start"] += 1
            return _Boxed(self._real.start())

        def apply_gen(self, pos, sym):
            calls["apply_gen"] += 1
            return _Boxed(self._real.apply_gen(pos.inner, sym))

        def apply_word(self, pos, word):
            calls["apply_word"] += 1
            return _Boxed(self._real.apply_word(pos.inner, word))

        def relative(self, a, b):
            calls["relative"] += 1
            return _Boxed(self._real.relative(a.inner, b.inner))

        def equal(self, a, b):
            calls["equal"] += 1
            return self._real.equal(a.inner, b.inner)

        def within(self, a, b, budget):
            calls["within"] += 1
            return self._real.within(a.inner, b.inner, budget)

        def element(self, pos):
            calls["element"] += 1
            return self._real.element(pos.inner)

    return Boxing


def _engine_results(spec, cap):
    """Steps, runs, membership sweeps and traces on periodic and
    finite-support configurations, all with the default backend."""
    backend = automata.CanonicalBackend(spec.G)
    out = []
    for p in (1, 3):
        rs = place(spec, spec.initial[0], backend, p - 1)
        for _ in range(20):
            rs = step(spec, make_xp(p), rs)
            out.append(tuple((backend.element(h.g), h.z, h.state) for h in rs.heads))
        out.extend(automata.run(spec, make_xp(p), phase, cap) for phase in range(p))
        out.append(membership_test(spec, p, cap))
        out.append(trace_records(spec, make_xp(p), p - 1, 30))
    cells = FiniteSupportConfig((g, z) for g in groups.ball(spec.G, 1) for z in (-1, 0, 1))
    out.append(automata.run(spec, cells, 0, cap))
    out.extend(cells.read(backend, backend.start(), w, z)
               for w in groups.ball_words(spec.G, 2) for z in (-1, 0, 1))
    return out


def test_engine_sees_positions_only_through_the_backend(monkeypatch):
    """With every position boxed, the engine gives the canonical backend's
    results, calls every protocol method, and reads `exact_relative` once
    per `run` call."""
    rng = random.Random(14)
    specs = [random_watching_spec(rng, group) for group in CUT_GROUPS for _ in range(6)]
    rng = random.Random(41)
    specs += [random_total_spec(rng) for _ in range(10)]
    specs += [spec for spec, _p, _cap in _walk_workload_specs()]
    want = [_engine_results(spec, 60) for spec in specs]
    calls = Counter()
    runs = []
    real_run = automata.run
    monkeypatch.setattr(automata, "CanonicalBackend", _boxing_backend(calls))
    monkeypatch.setattr(automata, "run", lambda *args: runs.append(1) or real_run(*args))
    for spec, expected in zip(specs, want):
        assert _engine_results(spec, 60) == expected
    assert all(calls[name] for name in PROTOCOL), calls
    assert calls["exact_relative"] == len(runs)
