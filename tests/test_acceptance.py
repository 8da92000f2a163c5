"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
as they complete.  Every tolerance is exact; randomness is seeded.
"""

import itertools
import random

from groupwalk import groups, kgroup, machines
from groupwalk.automata import (
    CanonicalBackend,
    make_xp,
    membership_test,
    place,
    predictor,
    step,
)
from groupwalk.kgroup import (
    conj_bit,
    conj_reduction,
    embed_element,
    gamma,
    kword_from_index,
    kword_index,
    make_kcontext,
    many_one_index,
    quotient_check,
    reduction_width,
    sweep_power_identity,
    wp_k,
)
from groupwalk.machines import (
    BUILTIN_PROGRAMS,
    approx_members,
    build_skeleton,
    witness_report,
)
from groupwalk.subshift import OraclePrefix, enumerate_language

import oracles
import test_automata as automata_helpers


def verdict(number, ok, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_membership_embedding_exhaustive():
    # every constraint set inside {1..5} and every probe value 1..5
    ctx = make_kcontext("Z", "S3")
    mismatches = 0
    for subset in range(32):
        members = [i + 1 for i in range(5) if subset >> i & 1]
        c = ctx.with_oracle(OraclePrefix.from_members(members, 11))
        for n in range(1, 6):
            res = wp_k(c, embed_element(c, n))
            want = "identity" if n in members else "non_identity"
            if res.kind != want:
                mismatches += 1
    verdict(1, mismatches == 0, f"32 prefixes x 5 values, {mismatches} mismatches")


def test_criterion_2_reduction_coherence():
    ctx = make_kcontext("Z", "S3")
    rng = random.Random(2025)
    checked_bits = 0
    ok = True
    for _ in range(20):
        length = rng.randint(1, 9)
        u_bits = [rng.choice("01") for _ in range(length)]
        v_bits = [b if b == "1" else rng.choice("01") for b in u_bits]
        u, v = OraclePrefix("".join(u_bits)), OraclePrefix("".join(v_bits))
        gu, gv = conj_reduction(ctx, u), conj_reduction(ctx, v)
        ok = ok and len(gu) == len(gv) == reduction_width(ctx, length)
        ok = ok and all(a <= b for a, b in zip(gu.bits, gv.bits))
        cu = ctx.with_oracle(u)
        for i in range(len(gu)):
            res = wp_k(cu, kword_from_index(ctx, i))
            ok = ok and res.kind != "needs_oracle"
            ok = ok and (res.kind == "identity") == (gu.bits[i] == "1")
            checked_bits += 1
    verdict(2, ok, f"20 monotone pairs, {checked_bits} decided bits against wp")


def test_criterion_3_quotient_probe_exhaustive():
    ctx = make_kcontext("Z", "S3")
    rng = random.Random(3)
    pairs = []
    for _ in range(10):
        length = rng.randint(9, 11)
        small = [rng.choice("01") for _ in range(length)]
        large = [b if b == "1" else rng.choice("01") for b in small]
        pairs.append(
            (
                ctx.with_oracle(OraclePrefix("".join(small))),
                ctx.with_oracle(OraclePrefix("".join(large))),
            )
        )
    words = [
        tuple(w)
        for L in range(5)
        for w in itertools.product(ctx.generators, repeat=L)
    ]
    violations = 0
    for c_small, c_large in pairs:
        for w in words:
            if not quotient_check(c_small, c_large, w):
                violations += 1
    verdict(
        3,
        violations == 0,
        f"{len(words)} words x {len(pairs)} nested prefixes, {violations} violations",
    )


def test_criterion_4_torsion_bound_sweep():
    ctx = make_kcontext("grigorchuk", "S3", "0" * 49)
    rng = random.Random(4)
    kept = 0
    skipped = 0
    filtered = 0
    failures = 0
    checked_patterns = 0
    while kept + skipped < 200:
        length = rng.randint(1, 3)
        word = tuple(rng.choice(ctx.generators) for _ in range(length))
        g_elem = groups.evaluate_word(ctx.G, gamma(word))
        try:
            k = groups.element_order(ctx.G, g_elem, 8)
        except Exception:
            filtered += 1
            continue
        report = sweep_power_identity(ctx, word, 6 * k, k * len(word), 100_000)
        if report is None:
            skipped += 1
            continue
        kept += 1
        checked_patterns += report.patterns_checked
        if not report.fixes_all:
            failures += 1
    verdict(
        4,
        failures == 0,
        f"{kept} swept, {skipped} over budget, {filtered} beyond order cap, "
        f"{checked_patterns} windows, {failures} failures",
    )


def test_criterion_5_word_problem_against_tree_oracle():
    G = groups.group_context("grigorchuk")
    mismatches = 0
    words = 0
    for length in range(7):
        for word in itertools.product("abcd", repeat=length):
            words += 1
            if groups.is_identity(G, word) != oracles.tree_trivial(word, 6):
                mismatches += 1
    ab_order = groups.element_order(G, groups.evaluate_word(G, ("a", "b")), 64)
    ok = mismatches == 0 and ab_order == 8
    verdict(5, ok, f"{words} words vs depth-6 action, {mismatches} mismatches, ord(ab)={ab_order}")


ROSTER = [
    ("halt", BUILTIN_PROGRAMS["halt"]),
    ("loop", BUILTIN_PROGRAMS["loop"]),
    ("echo", BUILTIN_PROGRAMS["echo"]),
]


def test_criterion_6_construction_harness():
    caps = (100, 1_000, 10_000)
    # the memoised skeleton against a build made after the memo is cleared
    memoised = build_skeleton("identity", 3)
    machines._build_skeleton.cache_clear()
    skeleton = build_skeleton("identity", 3)
    deterministic = (
        skeleton is not memoised
        and memoised.to_text() == skeleton.to_text()
        and build_skeleton("identity", 3).to_text() == skeleton.to_text()
    )
    assigned = set(skeleton.probe.values())
    halt_ok = False
    loop_ok = False
    loop_candidates = None
    for cap in caps:
        rep = witness_report("identity", ROSTER, 3, cap, 40)
        halt_ws = [w for w in rep.witnesses["halt"] if w.member]
        if cap == caps[-1]:
            halt_ok = len(halt_ws) >= 1
        stage_loop = {
            w.p for w in rep.witnesses["loop"] if not w.member and w.position in assigned
        }
        loop_candidates = (
            stage_loop if loop_candidates is None else loop_candidates & stage_loop
        )
    loop_ok = bool(loop_candidates)
    ok = deterministic and halt_ok and loop_ok
    verdict(
        6,
        ok,
        f"deterministic={deterministic}, halting witnesses in members={halt_ok}, "
        f"probed non-members at every cap={sorted(loop_candidates)[:4]}",
    )


def test_criterion_7_pipeline_transport():
    ctx = make_kcontext("Z", "S3")
    prefix = approx_members("identity", 3, 10_000)
    skeleton = build_skeleton("identity", 3)
    report = witness_report("identity", ROSTER, 3, 10_000, 40)
    fallback_index = kword_index(
        ctx, (kgroup.KGen("S", ctx.G.generators[0]),)
    )
    total = 0
    mismatches = 0
    for label, _prog in ROSTER:
        for w in report.witnesses[label]:
            n = skeleton.probe_position(w.p)
            idx = many_one_index(ctx, n) if n >= 1 else fallback_index
            bit = conj_bit(ctx, prefix, idx)
            total += 1
            if bit is None or (bit == 1) != w.halted:
                mismatches += 1
    verdict(7, mismatches == 0, f"{total} transported witnesses, {mismatches} mismatches")


def test_criterion_8_simulator():
    spec = automata_helpers.spec_from(automata_helpers.DETECTOR)
    r1 = membership_test(spec, 1, 100)
    r2 = membership_test(spec, 2, 100)
    detector_ok = (not r1.in_s) and r2.in_s

    wrapped = automata_helpers.wrapped_detector()
    wp_prefix = OraclePrefix(groups.word_problem_prefix(wrapped.G, 20))
    predictor_ok = True
    for p in (1, 2, 3):
        want = membership_test(wrapped, p, 100)
        got = predictor(wrapped, p, wp_prefix, 100)
        predictor_ok = predictor_ok and got.halted == (not want.in_s)

    rng = random.Random(8)
    invariants_ok = True
    for _ in range(100):
        spec_r = automata_helpers.random_total_spec(rng)
        backend = CanonicalBackend(spec_r.G)
        rs_a = place(spec_r, spec_r.initial[0], backend)
        rs_b = place(spec_r, spec_r.initial[0], backend)
        for _ in range(100):
            rs_a = step(spec_r, make_xp(3), rs_a, backend)
            rs_b = step(spec_r, make_xp(3), rs_b, backend)
            if len(rs_a.heads) != spec_r.heads or rs_a != rs_b:
                invariants_ok = False
                break
        if not invariants_ok:
            break
    ok = detector_ok and predictor_ok and invariants_ok
    verdict(
        8,
        ok,
        f"detector={detector_ok}, predictor agreement={predictor_ok}, "
        f"100 specs x 100 steps invariants={invariants_ok}",
    )


def test_criterion_9_language_counts():
    Z = groups.group_context("Z")
    rng = random.Random(9)
    checked = 0
    mismatches = 0
    for n in range(5):
        for _ in range(10):
            length = 2 * n + 1 + rng.randint(0, 3)
            prefix = OraclePrefix("".join(rng.choice("01") for _ in range(length)))
            produced = enumerate_language(Z, prefix, n)
            elems = groups.ball(Z, n)
            brute = []
            for ones in oracles.assignments_with_at_most_two_ones(len(elems)):
                if len(ones) == 2:
                    d = groups.distance(Z, elems[ones[0]], elems[ones[1]])
                    if prefix.bit(d) == 1:
                        continue
                brute.append(ones)
            legal_pairs = sum(1 for ones in brute if len(ones) == 2)
            closed_form = 1 + len(elems) + legal_pairs
            checked += 1
            if len(produced) != closed_form or sorted(
                p.ones for p in produced
            ) != sorted(brute):
                mismatches += 1
    verdict(9, mismatches == 0, f"{checked} (n, prefix) cases, {mismatches} mismatches")
