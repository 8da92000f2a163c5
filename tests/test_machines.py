import pytest

from groupwalk import machines
from groupwalk.errors import BudgetExceededError, RateError
from groupwalk.machines import (
    BUILTIN_PROGRAMS,
    HALT_PROGRAM,
    LOOP_PROGRAM,
    ORACLE_ECHO_PROGRAM,
    STANDARD_ENUMERATION,
    ListEnumeration,
    approx_members,
    build_skeleton,
    cantor_pair,
    cantor_unpair,
    compose_rates,
    decode_program,
    parse_program,
    program_code,
    rate_function,
    restrict_rate,
    run_program,
    transport_probe_map,
)
from groupwalk.subshift import OraclePrefix

import oracles

ROSTER = [
    ("halt", HALT_PROGRAM),
    ("loop", LOOP_PROGRAM),
    ("echo", ORACLE_ECHO_PROGRAM),
]


def test_parse_and_format_roundtrip():
    text = "ORACLE 1\nDECJZ 1 3\nHALT\nDECJZ 2 3"
    prog = parse_program(text)
    assert prog == ORACLE_ECHO_PROGRAM
    assert parse_program(prog.to_text()) == prog


def test_parse_rejects_bad_programs():
    with pytest.raises(ValueError):
        parse_program("JUMP 3")
    with pytest.raises(ValueError):
        parse_program("DECJZ 0 9")  # label out of range


def test_run_halt_immediately():
    out = run_program(HALT_PROGRAM, 7, "", 100)
    assert out.halted and out.steps == 1 and not out.tainted


def test_run_loop_never_halts():
    for cap in (1, 10, 1000):
        out = run_program(LOOP_PROGRAM, 0, "", cap)
        assert not out.halted and out.steps == cap


def test_run_oracle_echo():
    assert run_program(ORACLE_ECHO_PROGRAM, 2, "001", 50).halted
    assert run_program(ORACLE_ECHO_PROGRAM, 2, "001", 50).steps == 3
    assert not run_program(ORACLE_ECHO_PROGRAM, 0, "001", 50).halted
    oob = run_program(ORACLE_ECHO_PROGRAM, 9, "001", 50)
    assert not oob.halted and oob.tainted


def test_run_accepts_prefix_objects():
    assert run_program(ORACLE_ECHO_PROGRAM, 1, OraclePrefix("011"), 50).halted


def test_pairing_roundtrip():
    for n in range(200):
        i, j = cantor_unpair(n)
        assert cantor_pair(i, j) == n


def test_program_code_roundtrip():
    for prog in BUILTIN_PROGRAMS.values():
        assert decode_program(program_code(prog)) == prog


def test_decode_invalid_codes_diverge():
    assert decode_program(0) == LOOP_PROGRAM  # empty program is ill-formed
    for i in range(40):
        prog = decode_program(i)
        # labels always valid after decoding
        for ins in prog.instructions:
            if ins[0] == "DECJZ":
                assert 0 <= ins[2] < len(prog.instructions)


def test_enumeration_is_infinite_to_one():
    seen = {}
    for n in range(300):
        prog = STANDARD_ENUMERATION.program_at(n)
        seen.setdefault(prog.instructions, []).append(n)
    repeated = [v for v in seen.values() if len(v) >= 3]
    assert repeated, "every machine should recur under the pairing"


def test_skeleton_stage_zero_shape():
    sk = build_skeleton("identity", 1)
    stage = sk.stages[0]
    assert stage.m == 0
    assert stage.inputs == (0,)
    assert len(stage.rules) == 1
    assert stage.rules[0].prefix == ""
    assert stage.rules[0].position == 1


def test_skeleton_identity_rate_inputs():
    sk = build_skeleton("identity", 2)
    assert sk.stages[1].m == 2
    assert sk.stages[1].inputs == (2, 3, 4, 5)
    assert sk.stages[1].big_m == 5
    # candidate prefixes padded with zeros out to rate(p_i)
    assert [r.prefix for r in sk.stages[1].rules] == ["00", "010", "1000", "11000"]


def test_skeleton_square_rate_inputs():
    sk = build_skeleton("square", 2)
    assert sk.stages[1].inputs == (2, 3, 4, 5)
    assert sk.stages[1].big_m == 25


def test_skeleton_positions_partition_initial_segment():
    sk = build_skeleton("identity", 3)
    reserved = [r.position for r in sk.rules()]
    assert len(reserved) == len(set(reserved))
    assert max(reserved) < sk.length
    # stages tile the determined initial segment with no gaps or overlaps
    assert sk.stages[0].m == 0
    for left, right in zip(sk.stages, sk.stages[1:]):
        assert right.m == left.m_prime + 1
    assert sk.length == sk.stages[-1].m_prime + 1
    for stage in sk.stages:
        for rule in stage.rules:
            assert rule.position > stage.big_m
            assert rule.position <= stage.m_prime


def test_skeleton_deterministic():
    # a memo hit against a build made after the memo is cleared
    a = build_skeleton("identity", 3)
    assert build_skeleton("identity", 3) is a
    machines._build_skeleton.cache_clear()
    text = a.to_text()
    assert a.to_text() is text  # rendered once per skeleton
    b = build_skeleton("identity", 3)
    assert b is not a
    assert b.to_text() == text
    assert a.members(10_000) == b.members(10_000)


def test_skeleton_budget():
    with pytest.raises(BudgetExceededError) as info:
        build_skeleton("identity", 4)
    assert info.value.stage == 3
    # stage 1 of tower5 needs 2^65538 candidates, past str()'s digit limit
    with pytest.raises(BudgetExceededError, match=r"needs 2\^65538 prefix candidates"):
        build_skeleton("tower5", 2)


def test_skeleton_memo_is_bounded():
    cache = machines._build_skeleton
    assert cache.cache_info().maxsize == 8
    enumerations = [ListEnumeration([HALT_PROGRAM], label=f"e{i}") for i in range(12)]
    skeletons = [build_skeleton("identity", 2, enumeration=e) for e in enumerations]
    assert cache.cache_info().currsize <= 8
    # the most recent key still hits; the oldest was evicted and rebuilds
    assert build_skeleton("identity", 2, enumeration=enumerations[-1]) is skeletons[-1]
    assert build_skeleton("identity", 2, enumeration=enumerations[0]) is not skeletons[0]
    assert cache.cache_info().currsize <= 8


def test_skeleton_memo_edge_cases():
    table = {n: n for n in range(16)}
    first = build_skeleton(table, 2)
    second = build_skeleton(table, 2)  # a table is wrapped anew, so it misses
    assert first is not second
    assert first.to_text() == second.to_text()
    for _ in range(2):  # an exceeded budget is raised on every call, not cached
        with pytest.raises(BudgetExceededError):
            build_skeleton("identity", 4)


# halts after 2p + 2 steps on input p: count r0 down, then HALT
COUNTDOWN = parse_program("DECJZ 0 2\nDECJZ 1 0\nHALT")
# the same count, then one INC that runs off the end, so it halts under a
# cap one above its 2p + 3 steps
COUNTDOWN_OFF_END = parse_program("DECJZ 0 2\nDECJZ 1 0\nINC 1")


@pytest.mark.parametrize("program", [COUNTDOWN, COUNTDOWN_OFF_END])
def test_members_replay_matches_capped_runs_in_any_cap_order(program):
    # under exp with 2 stages the inputs are 0 and 2..9, so the least caps
    # under which the rules halt lie in 2..22 and straddle the caps below
    caps = (1, 2, 3, 6, 7, 8, 13, 20, 21, 22, 100)
    orders = {
        "ascending": caps,
        "descending": caps[::-1],
        "interleaved": (13, 2, 100, 7, 1, 21, 6, 22, 3, 20, 8, 13, 1),
    }
    for name, order in orders.items():
        sk = build_skeleton("exp", 2, enumeration=ListEnumeration([program], label=name))
        rules = list(sk.rules())
        assert len(rules) == 9
        for cap in order:
            prefix = sk.members(cap)
            for rule in rules:
                halted = oracles.capped_run(
                    rule.program, rule.input_value, rule.prefix, cap
                )[0]
                assert prefix.bit(rule.position) == int(halted), (name, cap, rule)
            assert len(prefix.members()) == sum(
                prefix.bit(r.position) for r in rules
            )


def test_probe_positions():
    sk = build_skeleton("identity", 2)
    assigned = {p: sk.probe_position(p) for p in sk.stages[1].inputs}
    assert all(pos > sk.stages[1].big_m for pos in assigned.values())
    assert len(set(assigned.values())) == len(assigned)
    assert sk.probe_position(99) == 0  # unprobed inputs hit the fixed non-member
    assert build_skeleton("identity", 2).probe_position(2) == assigned[2]


def test_approx_members_monotone_in_cap_and_stages():
    prefixes = [approx_members("identity", 3, cap) for cap in (10, 100, 10_000)]
    for shorter, longer in zip(prefixes, prefixes[1:]):
        assert all(a <= b for a, b in zip(shorter.bits, longer.bits))
    two = approx_members("identity", 2, 10_000)
    three = approx_members("identity", 3, 10_000)
    assert three.extends(two)


def test_approx_members_constant_enumerations():
    all_halt = ListEnumeration([HALT_PROGRAM], label="halt-only")
    a = approx_members("identity", 2, 100, enumeration=all_halt)
    sk = build_skeleton("identity", 2, enumeration=all_halt)
    assert all(a.bit(r.position) == 1 for r in sk.rules())
    all_loop = ListEnumeration([LOOP_PROGRAM], label="loop-only")
    b = approx_members("identity", 2, 100, enumeration=all_loop)
    assert b.members() == []


def test_stage_rules_match_replayed_prefix():
    # the rule whose candidate prefix equals the realised one reads the
    # true determined bits padded with zeros
    sk = build_skeleton("identity", 3)
    prefix = approx_members("identity", 3, 10_000)
    for stage in sk.stages:
        true_w = prefix.bits[: stage.m]
        matching = [r for r in stage.rules if r.prefix[: stage.m] == true_w]
        assert matching, stage.index
        rule = matching[0]
        assert rule.prefix == true_w + "0" * (len(rule.prefix) - stage.m)
        # determined-out-of-members region really is out
        assert all(
            prefix.bit(q) == 0 for q in range(stage.m, stage.big_m + 1)
        )


def test_witness_report_builtin_roster():
    rep = build_skeleton("identity", 3).witness_report(ROSTER, 10_000, 40)
    halt_ws = rep.witnesses["halt"]
    assert any(w.member for w in halt_ws)
    loop_ws = rep.witnesses["loop"]
    assert any((not w.member) and w.position > 0 for w in loop_ws)
    assert build_skeleton("identity", 2).witness_report([], 100, 10).witnesses == {}


def test_witness_report_loop_members_stay_out_at_every_cap():
    for cap in (10, 100, 1000):
        rep = build_skeleton("identity", 3).witness_report([("loop", LOOP_PROGRAM)], cap, 10)
        assert all(not w.member for w in rep.witnesses["loop"])


def test_rate_presets_and_tables():
    assert rate_function("identity")(7) == 7
    assert rate_function("square")(5) == 25
    assert rate_function("exp")(5) == 32
    assert rate_function("tower5")(0) == 65536
    table = rate_function({0: 0, 1: 2, 2: 2, 3: 5})
    assert table(3) == 5
    with pytest.raises(RateError):
        rate_function({0: 3, 1: 1})
    with pytest.raises(RateError):
        rate_function("warp")
    composed = compose_rates(rate_function("square"), rate_function("identity"))
    assert composed(4) == 16


def test_restrict_rate():
    handle = build_skeleton("square", 2).probe_map()
    smaller = restrict_rate(handle, "identity")
    assert smaller.rate.name == "identity"
    assert smaller.position_of(3) == handle.position_of(3)
    with pytest.raises(RateError):
        restrict_rate(smaller, "square")


def test_restricted_handle_reverified_by_witness_scan():
    # build the set at the square rate, then probe it at the identity rate:
    # the same probe map still produces coincidences for oracle-blind machines
    from groupwalk.machines import probe_witnesses

    prefix = approx_members("square", 2, 1000)
    handle = build_skeleton("square", 2).probe_map()
    restricted = restrict_rate(handle, "identity")
    ws = probe_witnesses(prefix, restricted, ROSTER, 1000, 10)
    assert any(w.member for w in ws["halt"])
    assert any(not w.member for w in ws["loop"])


def test_witness_scan_stops_at_the_first_bound_past_the_prefix():
    """A rate is nondecreasing, so the scan reads no bound past the first
    one that exceeds the prefix.  This table has no value at 2; tower5's
    value at 2 has about 2^65536 bits."""
    prefix = OraclePrefix("0" * 10)
    handle = machines.ProbeMap(rate_function({0: 0, 1: 100}), lambda p: 0, "short")
    ws = machines.probe_witnesses(prefix, handle, ROSTER, 100, 5)
    assert [w.p for w in ws["loop"]] == [0] and ws["halt"] == ()


def test_transport_probe_map_identity():
    handle = build_skeleton("identity", 2).probe_map()
    out = transport_probe_map(
        lambda n: n,
        lambda w: w,
        "identity",
        handle,
        check_prefixes=["0101", ""],
    )
    assert out.position_of(4) == handle.position_of(4)
    assert out.rate(9) == 9


def test_transport_rejects_flat_rates():
    handle = build_skeleton("identity", 2).probe_map()
    with pytest.raises(RateError):
        transport_probe_map(lambda n: n, lambda w: w, {i: 0 for i in range(40)}, handle)


def test_transport_rejects_short_translations():
    handle = build_skeleton("identity", 2).probe_map()
    with pytest.raises(RateError):
        transport_probe_map(
            lambda n: n,
            lambda w: w[: len(w) // 2],
            "identity",
            handle,
            check_prefixes=["010101"],
        )


def _agrees_with_slow_path(prog, input_value, bits, cap):
    out = run_program(prog, input_value, bits, cap)
    assert (out.halted, out.steps, out.tainted) == oracles.capped_run(
        prog, input_value, bits, cap
    ), (prog.to_text(), input_value, bits, cap)
    return out


def test_loop_detection_matches_capped_stepping_exhaustively():
    loop_code = program_code(LOOP_PROGRAM)
    checked = 0
    for i in range(2000):
        prog = decode_program(i)
        if prog == LOOP_PROGRAM and i != loop_code:
            continue  # ill-formed code
        for input_value in range(6):
            for bits in ("", "0", "1", "0110"):
                for cap in (1, 7, 100, 1000):
                    _agrees_with_slow_path(prog, input_value, bits, cap)
                    checked += 1
    assert checked > 100_000


def test_counter_that_never_repeats_runs_to_the_cap():
    # r0 counts up forever, so no configuration repeats although the pc
    # does; the read of address 50, past the prefix, comes at step 149
    counter = parse_program("INC 0\nORACLE 1\nDECJZ 2 0")
    bits = "1" * 50
    for cap in (1, 7, 148, 149, 1000, 5000):
        out = _agrees_with_slow_path(counter, 0, bits, cap)
        assert not out.halted and out.steps == cap
        assert out.tainted == (cap >= 149)


def test_loop_with_first_taint_inside_the_cycle():
    # a countdown preamble with no reads, then the cycle 5 -> 6 -> 7 -> 5
    # whose ORACLE read falls past the prefix for inputs >= 4
    prog = parse_program(
        """
        INC 2
        INC 2
        INC 2
        DECJZ 2 5
        DECJZ 1 3
        DECJZ 1 6
        ORACLE 1
        DECJZ 1 5
        """
    )
    first_taint = None
    for cap in range(1, 80):
        out = _agrees_with_slow_path(prog, 9, "0110", cap)
        assert not out.halted
        if out.tainted and first_taint is None:
            first_taint = cap
    assert first_taint is not None and first_taint > 10
    # an in-prefix read of 1 leaves the cycle and runs off the end
    assert _agrees_with_slow_path(prog, 2, "0110", 80).halted
