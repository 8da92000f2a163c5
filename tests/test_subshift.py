import itertools
import random

import pytest

from groupwalk import groups
from groupwalk.errors import PrefixTooShortError
from groupwalk.subshift import (
    Legality,
    OraclePrefix,
    enumerate_language,
    forbidden_pattern_stream,
    legal_windows,
    make_pattern,
    pattern_legal,
    pattern_record,
)

import oracles


@pytest.fixture(scope="module")
def Z():
    return groups.group_context("Z")


def brute_language(ctx, prefix, n):
    """All <=2-one assignments over the ball whose pair distance avoids A."""
    elems = groups.ball(ctx, n)
    out = []
    for ones in oracles.assignments_with_at_most_two_ones(len(elems)):
        if len(ones) == 2:
            d = groups.distance(ctx, elems[ones[0]], elems[ones[1]])
            if prefix.bit(d) == 1:
                continue
        out.append(ones)
    return out


def test_prefix_validation():
    for bad in ("012", "2", "0x1", " 01", "01 ", "01\n", "0,1", "\u0661"):
        with pytest.raises(ValueError):
            OraclePrefix(bad)
    assert OraclePrefix("").bits == "" and OraclePrefix("1" * 5000).bit(4999) == 1
    p = OraclePrefix("0110")
    assert len(p) == 4
    assert p.bit(1) == 1 and p.bit(7) is None
    assert p.members() == [1, 2]
    assert OraclePrefix.from_members([2], 4).bits == "0010"
    assert OraclePrefix("0100").letterwise_le(OraclePrefix("0110"))
    assert OraclePrefix("0110").extends(OraclePrefix("01"))


def test_members_match_a_scan_of_every_bit():
    rng = random.Random(5)
    cases = ["", "0", "1", "0" * 64, "1" * 64, "0" * 2057 + "1", "1" + "0" * 2057]
    cases += ["".join(rng.choice("01") for _ in range(rng.randrange(200))) for _ in range(200)]
    cases += ["".join(rng.choice("0000000001") for _ in range(2058)) for _ in range(20)]
    for bits in cases:
        assert OraclePrefix(bits).members() == [i for i, ch in enumerate(bits) if ch == "1"]


def test_pattern_rejects_three_ones(Z):
    with pytest.raises(ValueError):
        make_pattern(Z, 1, (0, 1, 2))


@pytest.mark.parametrize("name, radius", [("Z", 3), ("grigorchuk", 3), ("S3", 5)])
def test_make_pattern_index_bounds(name, radius):
    """The last cell of ball(radius) is accepted and the next index is
    not, as when the dense window was built over the whole ball; S3 is
    exhausted at radius 2."""
    ctx = groups.group_context(name)
    size = len(groups.ball(groups.group_context(name), radius))
    p = make_pattern(ctx, radius, (0, size - 1))
    assert p.ones == (0, size - 1)
    assert p.value_at(size - 1) == 1 and p.value_at(1) == 0
    for bad in ((size,), (0, size), (-1,)):
        with pytest.raises(ValueError):
            make_pattern(ctx, radius, bad)


def test_make_pattern_builds_no_ball_past_its_largest_index():
    # ball(28) of the Grigorchuk group is far past an element cap of 1,000
    G = groups.group_context("grigorchuk", element_cap=1000)
    size = len(groups.ball(groups.group_context("grigorchuk"), 2))
    p = make_pattern(G, 28, (size - 1, 0))
    assert p.ones == (0, size - 1) and p.radius == 28
    assert len(G._layer_end) == 3  # the BFS stopped at radius 2
    assert pattern_legal(G, OraclePrefix("00100"), p) == Legality("illegal", 2)
    assert pattern_record(p) == {"ctx": "grigorchuk", "radius": 28, "ones": [0, size - 1]}


def test_all_zero_pattern_legal(Z):
    p = make_pattern(Z, 2, ())
    for bits in ("", "1111", "0000000"):
        assert pattern_legal(Z, OraclePrefix(bits), p).kind == "legal"


def test_pair_at_known_distance_illegal(Z):
    # ball order on Z is [0, +1, -1]; indices 1, 2 sit at distance 2
    p = make_pattern(Z, 1, (1, 2))
    verdict = pattern_legal(Z, OraclePrefix("0010"), p)
    assert verdict.kind == "illegal" and verdict.distance == 2


def test_pair_beyond_prefix_unknown(Z):
    elems = groups.ball(Z, 3)
    i0, i3 = elems.index(0), elems.index(3)
    verdict = pattern_legal(Z, OraclePrefix("0"), make_pattern(Z, 3, (i0, i3)))
    assert verdict.kind == "unknown" and verdict.distance == 3


def test_enumerate_language_counts(Z):
    assert len(enumerate_language(Z, OraclePrefix("000"), 1)) == 7
    assert len(enumerate_language(Z, OraclePrefix("111"), 1)) == 4
    assert len(enumerate_language(Z, OraclePrefix.from_members([2], 3), 1)) == 6


def test_enumerate_language_order(Z):
    pats = enumerate_language(Z, OraclePrefix("000"), 1)
    assert [p.ones for p in pats] == [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]


def test_enumerate_language_matches_brute_force():
    """Unsorted, the language lists the brute oracle's windows in its
    order: zero window, single 1s, then pairs lexicographically."""
    rng = random.Random(11)
    for name in ("Z", "S3", "grigorchuk", "Z x S3"):
        ctx = groups.group_context(name)
        for n in range(4):
            for _ in range(6):
                bits = "".join(rng.choice("01") for _ in range(2 * n + 1 + rng.randint(0, 3)))
                prefix = OraclePrefix(bits)
                ours = [p.ones for p in enumerate_language(ctx, prefix, n)]
                assert ours == brute_language(ctx, prefix, n), (name, n, bits)
                assert sum(1 for _ in legal_windows(ctx, prefix, n)) == len(ours)


def test_enumerate_language_needs_prefix(Z):
    with pytest.raises(PrefixTooShortError) as info:
        enumerate_language(Z, OraclePrefix("0000"), 2)
    assert info.value.needed == 5


def test_language_antimonotone_in_members(Z):
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(0, 3)
        length = 2 * n + 1
        u_bits = [rng.choice("01") for _ in range(length)]
        v_bits = [b if b == "1" else rng.choice("01") for b in u_bits]
        u, v = OraclePrefix("".join(u_bits)), OraclePrefix("".join(v_bits))
        assert u.letterwise_le(v)
        lang_u = {p.ones for p in enumerate_language(Z, u, n)}
        lang_v = {p.ones for p in enumerate_language(Z, v, n)}
        assert lang_v <= lang_u


def test_stream_empty_for_empty_set(Z):
    assert list(forbidden_pattern_stream(Z, [], max_radius=5)) == []


def test_stream_distance_one(Z):
    first = list(itertools.islice(forbidden_pattern_stream(Z, [1]), 2))
    assert [p.ones for p in first] == [(0, 1), (0, 2)]


def test_stream_distance_two_radius_one(Z):
    pats = [
        p
        for p in forbidden_pattern_stream(Z, [2], max_radius=1)
        if p.radius == 1
    ]
    assert len(pats) == 1 and pats[0].ones == (1, 2)


def test_stream_patterns_are_illegal(Z):
    for p in itertools.islice(forbidden_pattern_stream(Z, [1, 3, 2]), 25):
        verdict = pattern_legal(Z, OraclePrefix.from_members([1, 2, 3], 50), p)
        assert verdict.kind == "illegal"


def test_stream_eventually_covers_every_window(Z):
    # every distance-2 pair within ball(2) shows up somewhere in the stream
    want = set()
    elems = groups.ball(Z, 2)
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if abs(elems[i] - elems[j]) == 2:
                want.add((elems[i], elems[j]))
    seen = set()
    for p in forbidden_pattern_stream(Z, [2], max_radius=4):
        ball_elems = groups.ball(Z, p.radius)
        i, j = p.ones
        seen.add((ball_elems[i], ball_elems[j]))
    assert want <= seen


def test_stream_terminates_on_finite_groups():
    S3 = groups.group_context("S3")
    pats = list(forbidden_pattern_stream(S3, [1]))
    # each of the 6 elements has 3 neighbours at distance 1
    assert len(pats) == 9


def test_pattern_record_roundtrip(Z):
    p = make_pattern(Z, 2, (0, 3))
    assert pattern_record(p) == {"ctx": "Z", "radius": 2, "ones": [0, 3]}
