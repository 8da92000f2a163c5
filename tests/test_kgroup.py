import functools
import itertools
import random

import pytest

from groupwalk import groups, kgroup
from groupwalk.errors import (
    CapExceededError,
    ContextError,
    PrefixTooShortError,
    UnknownGeneratorError,
)
from groupwalk.kgroup import (
    KGen,
    OrderNeedsOracle,
    WordAnalysis,
    act,
    analyze_word,
    conj_bit,
    conj_reduction,
    conj_verdict,
    conj_witness,
    embed_element,
    embed_prefix,
    format_kword,
    gamma,
    kword_from_index,
    kword_index,
    make_kcontext,
    many_one_index,
    moved_windows,
    order_k,
    parse_kword,
    quotient_check,
    read_multiplier,
    reduction_width,
    section,
    sweep_power_identity,
    word_footprint,
    wp_k,
    wp_verdict,
)
from groupwalk.subshift import OraclePrefix, enumerate_language, make_pattern, pattern_legal

import oracles


@pytest.fixture(scope="module")
def ctx():
    return make_kcontext("Z", "S3", "0" * 11)


@pytest.fixture(scope="module")
def gctx():
    return make_kcontext("grigorchuk", "S3", "0" * 40)


def random_kword(ctx, rng, max_len, min_len=0):
    length = rng.randint(min_len, max_len)
    return tuple(rng.choice(ctx.generators) for _ in range(length))


def test_gamma_and_section(ctx):
    assert gamma(()) == ()
    w = parse_kword(ctx, "S:+1 M:(12):1")
    assert gamma(w) == ("+1",)
    v = ("+1", "-1")
    assert section(v) == parse_kword(ctx, "S:+1 S:-1")
    assert gamma(section(v)) == v


def test_section_shares_one_kgen_per_symbol():
    for g_name in ("Z", "grigorchuk", "Z x S3"):
        G = groups.group_context(g_name)
        v = groups.random_word(G, random.Random(g_name), 60, 40)
        lifted = section(v)
        assert lifted == tuple(KGen("S", s) for s in v)
        for sym in set(v):
            assert len({id(kg) for kg in lifted if kg.sym == sym}) == 1, (g_name, sym)


def literal_embed_element(ctx, n):
    """embed_element built letter by letter, one KGen and one
    inverse_symbol call per letter."""
    G, H = ctx.G, ctx.H
    h, hp = next(
        (a, b)
        for a in H.generators
        for b in H.generators
        if H.multiply_raw(H.generator_element(b), H.generator_element(a))
        != H.multiply_raw(H.generator_element(a), H.generator_element(b))
    )
    g_word = groups.sphere_words(G, n)[0]
    shift = tuple(KGen("S", s) for s in g_word)
    shift_inv = tuple(KGen("S", G.inverse_symbol(s)) for s in reversed(g_word))
    return (
        (KGen("M", hp, 1),)
        + shift + (KGen("M", h, 1),) + shift_inv
        + (KGen("M", H.inverse_symbol(hp), 1),)
        + shift + (KGen("M", H.inverse_symbol(h), 1),) + shift_inv
    )


@pytest.mark.parametrize("g_name", ["Z", "grigorchuk", "Z x S3"])
def test_embed_element_matches_letterwise_construction(g_name):
    ctx = make_kcontext(g_name, "S3")
    for n in (1, 2, 3, 5, 8, 13):
        assert embed_element(ctx, n) == literal_embed_element(ctx, n), n


@pytest.mark.parametrize("h_name", ["S3", "grigorchuk", "Z x S3"])
@pytest.mark.parametrize("g_name", ["Z", "S3", "grigorchuk", "Z x S3", "S3 x grigorchuk"])
def test_embed_footprint_is_the_replayed_footprint(g_name, h_name):
    """The fact an embedding's verdict rests on: the replayed word of
    norm n has one requirement, distance n, for the window with 1s at the
    origin and at the first element of sphere(n), so under any prefix its
    verdict is the prefix's bit n."""
    ctx = make_kcontext(g_name, h_name)
    norms = [n for n in range(1, 13) if ctx.G.has_norm(n)]
    prefixes = [OraclePrefix(b) for b in ("", "0" * 13, "1" * 13, "0110100110010")]
    for n in norms:
        word = embed_element(ctx, n)
        analysis = analyze_word(ctx, word)
        c = ctx.G.ball_size(n - 1)
        assert analysis == WordAnalysis("conjunctive", 4 * n + 4, requirements=((n, (0, c)),)), n
        for prefix in prefixes:
            assert wp_k(ctx.with_oracle(prefix), word).kind == kgroup.VERDICT[prefix.bit(n)]
    assert norms == ([1, 2] if g_name == "S3" else list(range(1, 13)))
    with pytest.raises(ValueError):
        embed_element(ctx, 0)
    with pytest.raises(ContextError):  # H = Z is abelian
        embed_element(make_kcontext(g_name, "Z"), 1)


@pytest.mark.parametrize("g_name", ["Z", "Z x S3", "S3 x Z", "Z x S3 x S3"])
def test_closed_form_probes_match_the_grown_bfs(g_name):
    """Every probe answer of a fresh context, the first sphere word
    extended by +1 past R = D + 1 (the probe-word rule), equals the BFS's
    on a context grown to radius 200, where the first sphere word is read
    up its BFS parents and the embedding's requirement comes from
    replaying its word."""
    fresh, grown = make_kcontext(g_name, "S3"), make_kcontext(g_name, "S3")
    G, B = fresh.G, grown.G
    groups.ball(B, 200)
    for n in range(201):
        start, end = (B._layer_end[n - 1] if n else 0), B._layer_end[n]
        assert G.has_norm(n) and start < end
        assert G.first_sphere_word(n) == groups._word_at(B, start)
        if n:
            word = literal_embed_element(grown, n)
            assert embed_element(fresh, n) == word, n
            assert analyze_word(grown, word).requirements == ((n, (0, start)),), n
            assert embed_prefix(fresh, n, 32) == word[:32]
    assert len(G._layer_end) - 1 == (3 if g_name == "S3 x Z" else 1)
    if g_name == "Z":  # the tower5 probe grows the ball only to radius 1
        n = 65_537
        word = embed_element(fresh, n)
        assert embed_prefix(fresh, n, 32) == word[:32]
        assert len(G._elems) == 3
        assert analyze_word(grown, word).requirements == ((n, (0, 2 * n - 1)),)
    # the BFS answers the other probe questions, as on the grown context
    for n in range(201):
        start, end = (B._layer_end[n - 1] if n else 0), B._layer_end[n]
        assert G.ball_size(n) == end
        assert [G.index_radius(i, n) for i in range(start, end)] == [n] * (end - start)
        assert {G.index_radius(i, n - 1) for i in range(start, end)} == {None}


def test_embedding_index_digits_come_from_the_first_letters(monkeypatch):
    """The `~10^d` a pipeline prints: over K(Z, S3), up to the tower5
    probe, the float bracket on an embedding word's length and first
    letters gives the full index's digit count, with no exact end built."""
    ctx = make_kcontext("Z", "S3")
    full = groups.decimal_length
    exact = []
    monkeypatch.setattr(groups, "decimal_length", lambda v: exact.append(v) or full(v))
    ns = list(range(8, 300)) + [2**k + d for k in range(9, 17) for d in (-1, 0, 1)] + [65_537]
    for n in ns:
        want = full(kword_index(ctx, embed_element(ctx, n)))
        lead = embed_prefix(ctx, n, groups._LEAD)
        assert groups.lenlex_decimal_length(ctx.generators, 4 * n + 4, lead) == want, n
    assert not exact


def test_section_roundtrip_random_words(ctx):
    rng = random.Random(12)
    for _ in range(30):
        v = groups.random_word(ctx.G, rng, 8)
        assert gamma(section(v)) == v


def test_gamma_homomorphism(ctx):
    rng = random.Random(2)
    for _ in range(30):
        u = random_kword(ctx, rng, 6)
        v = random_kword(ctx, rng, 6)
        assert gamma(u + v) == gamma(u) + gamma(v)


def test_gamma_of_embedding_is_trivial(ctx):
    for n in (1, 2, 4):
        assert groups.is_identity(ctx.G, gamma(embed_element(ctx, n)))


def test_act_multiplier_fires_on_matching_bit(ctx):
    origin_one = make_pattern(ctx.G, 1, (0,))
    zero = make_pattern(ctx.G, 1, ())
    word = (KGen("M", "(12)", 1),)
    res = act(ctx, word, origin_one, ctx.H.identity())
    assert res.state == ctx.H.generator_element("(12)")
    assert ctx.G.is_identity_element(res.shift)
    res = act(ctx, word, zero, ctx.H.identity())
    assert res.state == ctx.H.identity()


def test_act_three_step_conjugate(ctx):
    # reads the cell one step to the right of the origin
    word = parse_kword(ctx, "S:+1 M:(12):1 S:-1")
    plus_one = make_pattern(ctx.G, 1, (1,))  # ball order [0, +1, -1]
    origin_one = make_pattern(ctx.G, 1, (0,))
    res = act(ctx, word, plus_one, ctx.H.identity())
    assert res.state == ctx.H.generator_element("(12)")
    assert ctx.G.is_identity_element(res.shift)
    res = act(ctx, word, origin_one, ctx.H.identity())
    assert res.state == ctx.H.identity()


def test_act_reads_outside_the_domain_never_fire(ctx):
    # the bit-0 multiplier reads the cell at +2: a 0 cell of ball(2), but
    # outside the domain of a radius-1 window
    word = parse_kword(ctx, "S:+1 S:+1 M:(12):0 S:-1 S:-1")
    e_h = ctx.H.identity()
    assert act(ctx, word, make_pattern(ctx.G, 1, ()), e_h).state == e_h
    fired = act(ctx, word, make_pattern(ctx.G, 2, ()), e_h).state
    assert fired == ctx.H.generator_element("(12)")


def test_act_functorial(ctx):
    rng = random.Random(9)
    for _ in range(25):
        u = random_kword(ctx, rng, 4)
        v = random_kword(ctx, rng, 4)
        radius = max(len(u) + len(v), 1)
        size = len(groups.ball(ctx.G, radius))
        pattern = make_pattern(
            ctx.G, radius, tuple(rng.sample(range(size), rng.randint(0, 2)))
        )
        h = groups.evaluate_word(ctx.H, groups.random_word(ctx.H, rng, 2))
        inner = act(ctx, v, pattern, h)
        # domains suffice, so the composite shift acts on the same window
        outer_word_only = act(ctx, u + v, pattern, h)
        # compare the state after shifting the read origin of u by hand:
        # act(uv) must equal act over u applied to (v-shifted window, state)
        combined_shift = ctx.G.multiply_raw(
            groups.evaluate_word(ctx.G, gamma(u)), inner.shift
        )
        assert outer_word_only.shift == combined_shift


def test_act_left_multiplier_independent_of_state(ctx):
    rng = random.Random(13)
    h_all = groups.ball(ctx.H, 3)
    for _ in range(20):
        w = random_kword(ctx, rng, 4)
        if not groups.is_identity(ctx.G, gamma(w)):
            continue
        pattern = make_pattern(
            ctx.G, max(len(w), 1), tuple(rng.sample(range(3), rng.randint(0, 2)))
        )
        base = act(ctx, w, pattern, ctx.H.identity()).state
        for h in h_all:
            res = act(ctx, w, pattern, h)
            assert res.state == ctx.H.multiply_raw(base, h)


def test_wp_trivial_words(ctx):
    assert wp_k(ctx, ()).kind == "identity"
    assert wp_k(ctx, parse_kword(ctx, "S:+1 S:-1")).kind == "identity"
    res = wp_k(ctx, parse_kword(ctx, "S:+1"))
    assert res.kind == "non_identity" and res.gamma_witness == ("+1",)


def test_wp_embedding_follows_membership(ctx):
    c_in = ctx.with_oracle(OraclePrefix.from_members([2], 11))
    assert wp_k(c_in, embed_element(c_in, 2)).kind == "identity"
    c_out = ctx.with_oracle(OraclePrefix.zeros(11))
    res = wp_k(c_out, embed_element(c_out, 2))
    assert res.kind == "non_identity"
    assert res.pattern_witness is not None and len(res.pattern_witness.ones) == 2


def test_wp_needs_oracle_is_typed(ctx):
    short = ctx.with_oracle(OraclePrefix("0"))
    res = wp_k(short, embed_element(short, 2))
    assert res.kind == "needs_oracle" and res.needed_length == 3


def test_grigorchuk_embedding_exhaustive():
    """For every A inside {1..8} and n = 1..8, wp_k(embed(n)) over
    K(grigorchuk, S3) is the identity exactly when n is in A.  A
    non-member's witness window lies over ball(4n + 4), past the element
    cap from n = 6 on, and is made from its two ball indices alone."""
    ctx = make_kcontext("grigorchuk", "S3")
    words = {n: embed_element(ctx, n) for n in range(1, 9)}
    for subset in range(256):
        members = [i + 1 for i in range(8) if subset >> i & 1]
        c = ctx.with_oracle(OraclePrefix.from_members(members, 17))
        for n, word in words.items():
            res = wp_k(c, word)
            if n in members:
                assert res.kind == "identity", (members, n)
            else:
                assert res.kind == "non_identity", (members, n)
                witness = res.pattern_witness
                assert witness.radius == 4 * n + 4 and len(witness.ones) == 2
                assert pattern_legal(c.G, c.oracle, witness), (members, n)


def test_act_replays_witness_windows_past_the_element_cap():
    """The literal interpreter confirms wp_k's witness for embed(n), whose
    window lies over ball(4n + 4), by building only the ball its reads reach."""
    c = make_kcontext("grigorchuk", "S3", "0" * 17)
    e_h = c.H.identity()
    for n in (6, 8):
        word = embed_element(c, n)
        witness = wp_k(c, word).pattern_witness
        assert not act(c, word, witness, e_h).fixes(c, witness, e_h)
    assert len(c.G._layer_end) <= 9  # ball(8) at most, never ball(36)


def test_wp_matches_brute_force(ctx):
    rng = random.Random(4)
    prefixes = [
        OraclePrefix.zeros(9),
        OraclePrefix("011111111"),
        OraclePrefix("001010101"),
        OraclePrefix("010001001"),
    ]
    words = [
        tuple(w)
        for L in range(4)
        for w in itertools.product(ctx.generators, repeat=L)
    ]
    words += [random_kword(ctx, rng, 4, 4) for _ in range(60)]
    for prefix in prefixes:
        c = ctx.with_oracle(prefix)
        for w in words:
            expected, witness = oracles.brute_wp(c, w)
            got = wp_k(c, w)
            assert got.kind == expected, (w, prefix.bits)
            if expected == "non_identity" and witness[0] == "pattern":
                assert got.pattern_witness.ones == witness[1].ones, (w, prefix.bits)


def test_embed_element_shape(ctx):
    assert len(embed_element(ctx, 2)) == 12
    for n in range(1, 6):
        assert len(embed_element(ctx, n)) == 4 * n + 4
    with pytest.raises(ValueError):
        embed_element(ctx, 0)


def test_embed_needs_nonabelian_state_group():
    flat = make_kcontext("Z", "Z", "0000000")
    with pytest.raises(ContextError):
        embed_element(flat, 1)


def test_many_one_index(ctx):
    indices = [many_one_index(ctx, n) for n in range(1, 6)]
    assert indices == sorted(indices) and len(set(indices)) == 5
    assert kword_from_index(ctx, indices[0]) == embed_element(ctx, 1)
    assert len(kword_from_index(ctx, indices[0])) == 8
    w = embed_element(ctx, 3)
    assert kword_from_index(ctx, kword_index(ctx, w)) == w


def test_conj_reduction_first_bit(ctx):
    out = conj_reduction(ctx, OraclePrefix("0"))
    assert out.bits == "1"  # only the empty word is inside the bound
    assert reduction_width(ctx, 0) == 0
    assert len(conj_reduction(ctx, OraclePrefix(""))) == 0


def test_conj_reduction_monotone_and_consistent(ctx):
    rng = random.Random(21)
    for _ in range(8):
        length = rng.randint(1, 9)
        u_bits = [rng.choice("01") for _ in range(length)]
        v_bits = [b if b == "1" else rng.choice("01") for b in u_bits]
        u, v = OraclePrefix("".join(u_bits)), OraclePrefix("".join(v_bits))
        gu, gv = conj_reduction(ctx, u), conj_reduction(ctx, v)
        assert len(gu) == len(gv) == reduction_width(ctx, length)
        assert all(a <= b for a, b in zip(gu.bits, gv.bits))
        cu = ctx.with_oracle(u)
        for i in range(len(gu)):
            verdict = wp_k(cu, kword_from_index(ctx, i))
            assert verdict.kind != "needs_oracle"
            assert (verdict.kind == "identity") == (gu.bits[i] == "1")


def test_conj_reduction_respects_prefix_extension(ctx):
    rng = random.Random(22)
    for _ in range(6):
        bits = "".join(rng.choice("01") for _ in range(9))
        u, v = OraclePrefix(bits[:5]), OraclePrefix(bits)
        assert conj_reduction(ctx, v).extends(conj_reduction(ctx, u))


def test_conj_bit_agrees_with_window(ctx):
    u = OraclePrefix("010010101")
    window = conj_reduction(ctx, u)
    for i in range(0, len(window), 37):
        assert conj_bit(ctx, u, i) == int(window.bits[i])


def test_conj_witness(ctx):
    assert conj_witness(ctx, 0, 5).kind == "distances"
    assert conj_witness(ctx, 0, 5).distances == ()
    shift_index = kword_index(ctx, parse_kword(ctx, "S:+1"))
    assert conj_witness(ctx, shift_index, 9).kind == "always_zero"
    embed_idx = many_one_index(ctx, 2)
    w = conj_witness(ctx, embed_idx, 2 * 12 + 1)
    assert w.kind == "distances" and w.distances == (2,)
    with pytest.raises(PrefixTooShortError):
        conj_witness(ctx, embed_idx, 10)


def test_order_basics(ctx):
    assert order_k(ctx, (), 10) == 1
    assert order_k(ctx, (KGen("M", "(12)", 1),), 10) == 2
    assert order_k(ctx, parse_kword(ctx, "S:+1"), 10) is groups.INFINITE


def test_order_needs_oracle_at_an_unknown_pair_distance():
    """embed(2)^k moves only a window with 1s at distance 2."""
    short = make_kcontext("Z", "S3", "00")
    word = embed_element(short, 2)
    with pytest.raises(OrderNeedsOracle) as exc:
        order_k(short, word, 64)
    assert exc.value.needed == 3
    assert order_k(short.with_oracle(OraclePrefix("00100")), word, 64) == 1
    assert order_k(short.with_oracle(OraclePrefix("00000")), word, 64) == 3


def test_order_past_the_cap_raises():
    """The word's shift image has order 1 and its moved windows' multipliers
    have lcm 6, each below 5: only the whole order, 6, passes cap 5."""
    ctx = make_kcontext("Z", "S3", "0000000000")
    word = parse_kword(ctx, "M:(12):1 S:+1 M:(23):1 S:-1")
    with pytest.raises(CapExceededError) as exc:
        order_k(ctx, word, 5)
    assert exc.value.cap == 5
    assert order_k(ctx, word, 6) == 6


def test_drifting_shift_never_grows_the_ball():
    ctx = make_kcontext("Z", "S3", "")
    word = parse_kword(ctx, "M:(12):1" + " S:+1" * 3000)
    assert analyze_word(ctx, word).kind == "shift"
    assert len(ctx.G._layer_end) == 1


def test_order_matches_brute_force(ctx):
    rng = random.Random(6)
    long_ctx = ctx.with_oracle(OraclePrefix.zeros(200))
    checked = 0
    while checked < 12:
        w = random_kword(long_ctx, rng, 3, 1)
        g = groups.evaluate_word(long_ctx.G, gamma(w))
        if long_ctx.G.provably_infinite_order(g):
            continue
        k = order_k(long_ctx, w, 30)
        assert k == oracles.brute_order(long_ctx, w, 30)
        checked += 1


def test_order_divides_torsion_bound(gctx):
    rng = random.Random(14)
    checked = 0
    while checked < 10:
        w = random_kword(gctx, rng, 2, 1)
        g = groups.evaluate_word(gctx.G, gamma(w))
        try:
            k = groups.element_order(gctx.G, g, 8)
        except Exception:
            continue
        total = order_k(gctx, w, 64)
        assert (6 * k) % total == 0, (w, total, k)
        checked += 1


def test_quotient_check(ctx):
    base = ctx.with_oracle(OraclePrefix.zeros(11))
    bigger = ctx.with_oracle(OraclePrefix.from_members([1, 2, 3], 11))
    # same set on both sides is always fine
    for L in range(3):
        for w in itertools.product(ctx.generators, repeat=L):
            assert quotient_check(base, base, w)
            assert quotient_check(base, bigger, w)
    # the embedding flips from non-identity to identity when A grows: allowed
    assert quotient_check(base, bigger, embed_element(ctx, 2))
    with pytest.raises(ValueError):
        quotient_check(bigger, base, ())


def literal_sweep(ctx, word, radius):
    """(patterns_checked, fixes_all, failure_ones) of folding `act` over
    enumerate_language, stopping at the first window not fixed."""
    e = ctx.H.identity()
    checked = 0
    for pattern in enumerate_language(ctx.G, ctx.oracle, radius):
        checked += 1
        if not act(ctx, word, pattern, e).fixes(ctx, pattern, e):
            return checked, False, pattern.ones
    return checked, True, None


def test_sweep_matches_literal_action():
    """The sweep's report equals the literal fold field by field, under the
    all-zero oracle and under oracles with members, which leave out the
    illegal pairs before the stopping window in some sweeps."""
    rng = random.Random(17)
    for g_name in ("Z", "grigorchuk", "S3"):
        ctx = make_kcontext(g_name, "S3")
        sweeps = filtered = 0
        for _ in range(40):
            w = random_kword(ctx, rng, 2, 1)
            g = groups.evaluate_word(ctx.G, gamma(w))
            if ctx.G.provably_infinite_order(g):
                continue
            try:
                k = groups.element_order(ctx.G, g, 10)
            except CapExceededError:
                continue
            exponent = k * rng.choice((1, 2, 6))
            radius = k * len(w)
            member_bits = "".join(rng.choice("01") for _ in range(2 * radius + 1))
            for bits in ("0" * (2 * radius + 1), member_bits):
                c = ctx.with_oracle(OraclePrefix(bits))
                report = sweep_power_identity(c, w, exponent, radius, 10_000)
                if report is None:
                    continue
                want = literal_sweep(c, w * exponent, radius)
                assert (
                    report.patterns_checked, report.fixes_all, report.failure_ones
                ) == want, (g_name, w, exponent, bits)
                sweeps += 1
                # windows of the unfiltered order up to the stopping one
                size = len(groups.ball(c.G, radius))
                order = list(oracles.assignments_with_at_most_two_ones(size))
                stop = len(order) if want[1] else order.index(want[2]) + 1
                filtered += stop > want[0]
        assert sweeps >= 20 and filtered > 0, (g_name, sweeps, filtered)


def literal_footprint(ctx, word):
    """word_footprint by a literal replay: each letter's element comes
    from generator_element."""
    g = ctx.G
    t = g.identity()
    raw = []
    for kg in reversed(word):
        if kg.kind == "S":
            t = g.multiply_raw(g.generator_element(kg.sym), t)
        else:
            raw.append((t, kg.bit, ctx.H.generator_element(kg.sym)))
    if not g.is_identity_element(t):
        return None
    return tuple((g._index_of(g.inverse(shift)), bit, elem) for shift, bit, elem in raw)


@pytest.mark.parametrize("g_name", ["Z", "grigorchuk", "Z x S3"])
def test_word_footprint_matches_literal_replay(g_name):
    """Seeded random words, half of them closed up to a trivial shift image
    by their gamma's inverse, with multipliers spread through both halves."""
    rng = random.Random(f"footprint {g_name}")
    ctx = make_kcontext(g_name, "S3")
    trivial = 0
    for _ in range(150):
        w = random_kword(ctx, rng, 30)
        if rng.random() < 0.5:
            back = list(section(groups.inverse_word(ctx.G, gamma(w))))
            for _ in range(rng.randint(0, 4)):
                back.insert(rng.randint(0, len(back)), rng.choice(ctx.generators[-6:]))
            w = tuple(back) + w
        want = literal_footprint(ctx, w)
        assert word_footprint(ctx, w) == want, w
        trivial += want is not None
    for n in (1, 4, 9):
        w = embed_element(ctx, n)
        assert word_footprint(ctx, w) == literal_footprint(ctx, w)
    assert trivial >= 50, trivial


@pytest.mark.parametrize(
    "letter", [KGen("S", "q"), KGen("S", "(12)"), KGen("M", "q", 1), KGen("M", "+1", 0)]
)
def test_word_footprint_rejects_foreign_letters(ctx, letter):
    """K(Z, S3) has no shift (12) and no multiplier by +1."""
    body = embed_element(ctx, 3)
    for word in ((letter,), body + (letter,) + body):
        with pytest.raises(UnknownGeneratorError):
            word_footprint(ctx, word)
        with pytest.raises(UnknownGeneratorError):
            wp_k(ctx, word)


def test_moved_windows_follow_the_brute_window_order():
    """moved_windows yields exactly the windows of the brute assignment
    order over the sorted read cells whose multiplier is not e."""
    rng = random.Random(23)
    H = groups.group_context("S3")
    gens = [H.generator_element(s) for s in H.generators]
    e = H.identity()
    for _ in range(200):
        reads = tuple(
            (rng.randrange(12), rng.randint(0, 1), rng.choice(gens))
            for _ in range(rng.randint(0, 8))
        )
        cells = sorted({cell for cell, _, _ in reads})
        want = []
        for a in oracles.assignments_with_at_most_two_ones(len(cells)):
            ones = tuple(cells[i] for i in a)
            h = H.identity()
            for cell, bit, elem in reads:
                if (cell in ones) == bit:
                    h = H.multiply_raw(elem, h)
            if h != e:
                want.append((ones, h))
        got = list(moved_windows(H, reads))
        assert got == want, reads


def test_transport_probe_map_into_word_problem(ctx):
    from groupwalk.machines import (
        RateFunction,
        build_skeleton,
        transport_probe_map,
    )

    handle = build_skeleton("identity", 2).probe_map()
    fallback = kword_index(ctx, (KGen("S", ctx.G.generators[0]),))
    carrier = lambda n: many_one_index(ctx, n) if n >= 1 else fallback
    beta = RateFunction("reduction-width", lambda m: reduction_width(ctx, m))
    out = transport_probe_map(
        carrier,
        lambda bits: conj_reduction(ctx, OraclePrefix(bits)).bits,
        beta,
        handle,
        check_prefixes=["", "0", "0101"],
    )
    # membership of n transports to membership of the embedded word's index
    from groupwalk.machines import approx_members

    prefix = approx_members("identity", 2, 1000)
    for p in (0, 2, 3, 4, 5):
        n = handle.position_of(p)
        got = conj_bit(ctx, prefix, out.position_of(p))
        assert got is not None
        assert (got == 1) == (prefix.bit(n) == 1)
    assert out.rate(3) == reduction_width(ctx, 3)


def test_kword_tokens_roundtrip(ctx):
    w = parse_kword(ctx, "S:+1 M:(13):0 S:-1 M:(12):1")
    assert parse_kword(ctx, format_kword(w)) == w
    assert format_kword(()) == "e"


@pytest.mark.parametrize("g_id, h_id", [("Z x S3", "S3"), ("Z", "S3 x S3")])
def test_kword_tokens_roundtrip_product_groups(g_id, h_id):
    pctx = make_kcontext(g_id, h_id)
    word = pctx.generators
    assert parse_kword(pctx, format_kword(word)) == word
    for kg in word:
        assert parse_kword(pctx, kg.token()) == (kg,)


def _slow_reduction(ctx, prefix):
    words = _lenlex_words(ctx, reduction_width(ctx, len(prefix)))
    return "".join(str(conj_verdict(prefix, kgroup.analyze_word(ctx, word))) for word in words)


@functools.cache
def _lenlex_words(ctx, count):
    return [kword_from_index(ctx, i) for i in range(count)]


@pytest.mark.parametrize("g_id", ["Z", "grigorchuk", "Z x S3", "S3"])
def test_conj_reduction_matches_word_by_word(g_id, monkeypatch):
    """The depth-first reduction against one lazy bit per word: every bit
    of every prefix of at most 7 bits and of seeded 7- to 10-bit ones,
    then every 1 and a seeded sample of the 0s of seeded 11- to 13-bit
    prefixes.  Over the finite S3 almost no subtree is pruned by norm."""
    # a word's analysis does not depend on the prefix, so the word-by-word
    # bits, which look analyze_word up in the module, may reuse it across
    # prefixes; the reduction itself never calls analyze_word
    monkeypatch.setattr(kgroup, "analyze_word", functools.cache(kgroup.analyze_word))
    ctx = make_kcontext(g_id, "S3")
    prefixes = [
        "".join(bits) for n in range(8) for bits in itertools.product("01", repeat=n)
    ]
    rng = random.Random(31)
    prefixes += ["".join(rng.choice("01") for _ in range(n)) for n in range(7, 11)]
    if g_id == "Z":
        prefixes.append("01101001101")
    for bits in prefixes:
        prefix = OraclePrefix(bits)
        assert conj_reduction(ctx, prefix).bits == _slow_reduction(ctx, prefix), bits
    for n in (11, 13):  # a 12-bit prefix reads no bit its 11-bit head does not
        prefix = OraclePrefix("".join(rng.choice("01") for _ in range(n)))
        bits = conj_reduction(ctx, prefix).bits
        ones = [i for i, b in enumerate(bits) if b == "1"]
        zeros = rng.sample([i for i, b in enumerate(bits) if b == "0"], 100)
        for i in ones + zeros:
            word = kword_from_index(ctx, i)
            bit = conj_verdict(prefix, kgroup.analyze_word(ctx, word))
            assert str(bit) == bits[i], (prefix.bits, i)


@pytest.mark.parametrize(
    "g_id, h_id", [("Z", "Z"), ("Z", "grigorchuk"), ("S3", "Z x S3"), ("grigorchuk", "grigorchuk")]
)
def test_conj_reduction_matches_word_by_word_over_state_groups(g_id, h_id, monkeypatch):
    """The depth-first reduction against one lazy bit per word over state
    groups other than S3, whose ball-index tables and remaining-length
    bound differ: infinite (Z, Z x S3) and of intermediate growth
    (grigorchuk).  Every prefix of at most 5 bits and seeded 6- to 9-bit
    ones."""
    monkeypatch.setattr(kgroup, "analyze_word", functools.cache(kgroup.analyze_word))
    ctx = make_kcontext(g_id, h_id)
    prefixes = [
        "".join(bits) for n in range(6) for bits in itertools.product("01", repeat=n)
    ]
    rng = random.Random(32)
    prefixes += ["".join(rng.choice("01") for _ in range(n)) for n in range(6, 10)]
    for bits in prefixes:
        prefix = OraclePrefix(bits)
        assert conj_reduction(ctx, prefix).bits == _slow_reduction(ctx, prefix), bits


@pytest.mark.parametrize("g_id", ["S3", "Z"])
def test_carried_multipliers_are_the_read_multipliers(g_id):
    """Every multiplier the reduction's search carries for a word of at
    most 4 letters, the zero window's, each read cell's single-1
    window's and each pair of read cells' two-1 window's, is
    `read_multiplier` over the word's footprint reads.  Over S3 two-1
    windows move at these lengths."""
    ctx = make_kcontext(g_id, "S3")
    G, H = ctx.G, ctx.H
    children = kgroup.reduction_children(ctx, 12)  # prunes no word of 4 letters
    layer = [((), kgroup.ROOT_STATE)]
    moved_pairs = 0
    for length in range(5):
        assert len(layer) == len(ctx.generators) ** length
        below = []
        for word, state in layer:
            j, t, cells, mults, pairs, m = state
            # the word's reads, with its shift undone by letters acting last
            undo = section(groups.inverse_word(G, gamma(word)))
            reads = word_footprint(ctx, undo + word)
            assert j == length and t == G._index[groups.evaluate_word(G, gamma(word))]
            assert cells == tuple(dict.fromkeys(cell for cell, _, _ in reads))
            windows = [()] + [(c,) for c in cells]
            windows += [(cells[a], cells[b]) for a, b in kgroup.carried_pairs(len(cells))]
            want = [H._index[read_multiplier(H, reads, ones)] for ones in windows]
            assert list(mults + pairs) == want, format_kword(word)
            assert m == max(H.norm(H.element_at(x)) for x in mults)
            moved_pairs += any(pairs)
            if length < 4:
                below += [((ctx.generators[d],) + word, kid) for d, kid in children(state)]
        layer = below
    assert moved_pairs


@pytest.mark.parametrize("h_id", ["grigorchuk", "Z x S3"])
def test_conj_reduction_grows_state_ball_to_word_length(h_id):
    """A reduction's multipliers lie in H's ball(L), L the longest word
    length it covers, so it grows a fresh H's BFS to radius L exactly."""
    for length in (1, 2, 5, 9, 10):
        ctx = make_kcontext("Z", h_id)
        conj_reduction(ctx, OraclePrefix(("01" * length)[:length]))
        assert len(ctx.H._layer_end) - 1 == (length - 1) // 2, length


@pytest.mark.parametrize("g_id, top", [("Z", 4), ("grigorchuk", 4), ("Z x S3", 4), ("S3", 2)])
def test_embedding_bit_is_its_distance_requirement(g_id, top):
    """embed(n) needs exactly distance n, so its bit is the prefix's bit n."""
    kctx = make_kcontext(g_id, "S3")
    for n in range(1, top + 1):
        word = embed_element(kctx, n)
        analysis = analyze_word(kctx, word)
        assert analysis.kind == "conjunctive" and analysis.distances() == [n]
        for rest in "01":
            for bit in (0, 1):
                prefix = OraclePrefix(rest * n + str(bit) + rest)
                assert conj_verdict(prefix, analysis) == bit, (n, prefix)
            assert conj_verdict(OraclePrefix(rest * n), analysis) is None


@pytest.mark.parametrize("g_id", ["Z", "grigorchuk"])
def test_wp_verdict_decides_by_the_conj_verdict_scan(g_id):
    """wp_k's kind is conj_verdict's answer under the same prefix:
    identity, non_identity and needs_oracle are 1, 0 and None.  Words of
    at most 3 letters, embed(n) and products embed(a) embed(b), which
    carry two distances, each under seeded prefixes of 0 to 9 bits.  A
    shortage decides under every extension to its needed length, and a
    refuted requirement stays the witness under every one-bit
    extension."""
    ctx = make_kcontext(g_id, "S3")
    embeds = [embed_element(ctx, n) for n in range(1, 5)]
    products = [a + b for a, b in itertools.permutations(embeds, 2)]
    assert all(len(analyze_word(ctx, w).distances()) == 2 for w in products)
    count = groups.lenlex_count(len(ctx.generators), 3)
    words = [kword_from_index(ctx, i) for i in range(count)] + embeds + products
    kinds = {1: "identity", 0: "non_identity", None: "needs_oracle"}
    rng = random.Random(26)
    seen = set()
    for word in words:
        analysis = analyze_word(ctx, word)
        for length in range(10):
            bits = "".join(rng.choice("01") for _ in range(length))
            res = wp_k(ctx.with_oracle(OraclePrefix(bits)), word)
            assert res.kind == kinds[conj_verdict(OraclePrefix(bits), analysis)], (word, bits)
            if analysis.kind != "conjunctive":
                continue
            seen.add(res.kind)
            if res.kind == "needs_oracle":
                for tail in itertools.product("01", repeat=res.needed_length - length):
                    longer = ctx.with_oracle(OraclePrefix(bits + "".join(tail)))
                    assert wp_verdict(longer, analysis).kind != "needs_oracle", (word, bits)
            elif res.kind == "non_identity":
                for b in "01":
                    longer = ctx.with_oracle(OraclePrefix(bits + b))
                    assert wp_verdict(longer, analysis) == res, (word, bits, b)
    assert seen == set(kinds.values())
