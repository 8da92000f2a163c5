import functools
import random
import sys

import pytest

from groupwalk.errors import (
    CapacityError,
    CapExceededError,
    ContextError,
    UnknownGeneratorError,
)
from groupwalk import groups
from groupwalk.groups import (
    INFINITE,
    GroupCtx,
    ball,
    ball_orders,
    ball_words,
    decimal_digits,
    decimal_length,
    distance,
    element_order,
    enumerate_words,
    evaluate_word,
    group_context,
    has_norm,
    is_identity,
    lenlex_count,
    lenlex_decode,
    lenlex_index,
    multiply,
    index_radius,
    inverse_word,
    parse_word,
    sphere_words,
    torsion_table,
    word_index,
    word_problem_prefix,
    word_norm,
)

import oracles


@pytest.fixture(scope="module")
def Z():
    return group_context("Z")


@pytest.fixture(scope="module")
def S3():
    return group_context("S3")


@pytest.fixture(scope="module")
def G():
    return group_context("grigorchuk")


def test_multiply_integers(Z):
    assert multiply(Z, 3, -1) == 2


def test_multiply_transposition_involution(S3):
    t = S3.generator_element("(12)")
    assert S3.is_identity_element(multiply(S3, t, t))


def test_multiply_grigorchuk_involution(G):
    a = evaluate_word(G, ("a",))
    prod = multiply(G, a, a)
    assert prod == evaluate_word(G, ())
    assert oracles.tree_trivial(("a", "a"), 4)


def test_multiply_context_mismatch(Z):
    with pytest.raises(ContextError):
        multiply(Z, 1, ("a",))


def test_is_identity_integers(Z):
    assert is_identity(Z, ("+1", "-1"))
    assert not is_identity(Z, ("+1",))


def test_is_identity_grigorchuk_ab_power(G):
    word = tuple("ab" * 8)
    assert oracles.tree_trivial(word, 8)
    assert is_identity(G, word)
    assert not is_identity(G, ("a", "b"))


def test_is_identity_unknown_symbol(Z):
    with pytest.raises(UnknownGeneratorError):
        is_identity(Z, ("+2",))


def test_grigorchuk_matches_tree_oracle_exhaustively(G):
    import itertools

    for length in range(5):
        for word in itertools.product("abcd", repeat=length):
            assert is_identity(G, word) == oracles.tree_trivial(word, 7), word


def test_word_norm(Z, G):
    assert word_norm(Z, 0) == 0
    assert word_norm(Z, 5) == 5
    assert word_norm(G, evaluate_word(G, ("a", "d"))) == 2


def test_distance(Z, G):
    assert distance(Z, 4, 4) == 0
    assert distance(Z, 2, 5) == 3
    assert distance(G, evaluate_word(G, ("a",)), evaluate_word(G, ("d",))) == 2


def test_distance_left_invariant(Z, G):
    rng = random.Random(7)
    for ctx in (Z, G):
        elems = ball(ctx, 4)
        for _ in range(40):
            g, h, k = (rng.choice(elems) for _ in range(3))
            assert distance(ctx, multiply(ctx, k, g), multiply(ctx, k, h)) == distance(
                ctx, g, h
            )


def test_ball_basics(Z, S3, G):
    assert ball(Z, 0) == [0]
    assert sorted(ball(Z, 1)) == [-1, 0, 1]
    assert len(ball(G, 1)) == 5
    assert ball(G, 1) == [evaluate_word(G, w) for w in ((), ("a",), ("b",), ("c",), ("d",))]
    assert len(ball(S3, 5)) == 6  # the whole group


def test_ball_monotone(G):
    sizes = [len(ball(G, n)) for n in range(7)]
    assert sizes == sorted(sizes)
    for n in range(6):
        assert ball(G, n) == ball(G, n + 1)[: len(ball(G, n))]


def test_ball_against_signature_bfs(G):
    # dedup by raw tree action instead of the shipped canonical keys
    independent = oracles.signature_ball(5, 8)
    assert len(independent) == len(ball(G, 5))
    ours = ball_words(G, 5)
    assert independent == list(ours)


def test_ball_capacity_error():
    small = group_context("grigorchuk", element_cap=30)
    with pytest.raises(CapacityError) as info:
        ball(small, 6)
    assert info.value.attained_radius >= 2


def test_element_order(Z, S3, G):
    three_cycle = evaluate_word(S3, ("(12)", "(23)"))
    assert element_order(S3, three_cycle, 10) == 3
    assert element_order(G, evaluate_word(G, ("a", "b")), 20) == 8
    assert element_order(Z, 1, 10) is INFINITE


def test_element_order_cap_exceeded(G):
    ac = evaluate_word(G, ("a", "c"))
    with pytest.raises(CapExceededError):
        element_order(G, ac, 8)
    assert element_order(G, ac, 16) == 16


def test_element_order_matches_inverse(G):
    rng = random.Random(3)
    elems = ball(G, 3)
    for _ in range(25):
        g = rng.choice(elems)
        assert element_order(G, g, 64) == element_order(G, G.inverse(g), 64)


def test_torsion_function(S3, G):
    assert torsion_table(S3, 0, 10)[-1] == 1
    assert torsion_table(S3, 4, 10)[-1] == 3
    assert torsion_table(G, 1, 10)[-1] == 2


def test_carried_order_matches_reduced_word_loop():
    """Orders from products of ids equal a loop that carries the id of
    each power forward one letter of the ball word at a time."""
    G = group_context("grigorchuk")
    product = G._portraits.product

    def letter_order(word, cap):
        g = 0
        for k in range(1, cap + 1):
            for x in word:
                g = product(g, G.element_of[x])
            if g == 0:
                return k
        raise CapExceededError(cap)

    for g, w in zip(ball(G, 10), ball_words(G, 10)):
        assert G.order(g, 64) == letter_order(w, 64), w
    ac = evaluate_word(G, ("a", "c"))
    for order, elem in ((G.order, ac), (letter_order, ("a", "c"))):
        with pytest.raises(CapExceededError):
            order(elem, 8)
        with pytest.raises(CapExceededError):
            order(elem, 15)
        assert order(elem, 16) == 16


def test_section_orders_match_power_loop_on_ball_12():
    G = group_context("grigorchuk")
    elems = ball(G, 12)
    assert len(elems) > 1000
    for g in elems:
        assert G.order(g, 64) == GroupCtx.order(G, g, 64), g


def test_section_orders_match_power_loop_on_every_depth_1_portrait():
    """Every id whose sections are nucleus members: the nucleus itself and
    all 45 other (swap, left, right) nodes over it, whether or not the
    group holds them; the recursion of the deeper ids ends among these."""
    G = group_context("grigorchuk")
    table = G._portraits
    ids = {table._node(swap, left, right)
           for swap in (0, 1) for left in range(5) for right in range(5)}
    assert len(ids) == 50
    for g in ids:
        assert table.order(g) == GroupCtx.order(G, g, 64), table._nodes[g]


def test_section_orders_match_power_loop_on_long_random_words():
    """Words of 40-300 letters, evaluated without building any ball."""
    G = group_context("grigorchuk")
    rng = random.Random(19)
    seen = set()
    for _ in range(200):
        g = evaluate_word(G, groups.random_word(G, rng, 300, 40))
        k = G.order(g, 4096)
        assert k == GroupCtx.order(G, g, 4096)
        seen.add(k)
    assert len(G._elems) == 1 and max(seen) >= 64


def test_section_orders_raise_exactly_past_the_cap():
    G = group_context("grigorchuk")
    rng = random.Random(20)
    elems = list(ball(G, 8)) + [
        evaluate_word(G, groups.random_word(G, rng, 120, 40)) for _ in range(20)
    ]
    for g in elems:
        k = GroupCtx.order(G, g, 4096)
        assert G.order(g, k) == k
        for order in (G.order, functools.partial(GroupCtx.order, G)):
            with pytest.raises(CapExceededError) as info:
                order(g, k - 1)
            assert info.value.cap == k - 1


@pytest.mark.parametrize("name", ["S3 x grigorchuk", "grigorchuk x grigorchuk"])
def test_product_orders_match_power_loop(name):
    P = group_context(name)
    for g in ball(P, 6):
        assert P.order(g, 64) == GroupCtx.order(P, g, 64), g


def test_product_orders_with_an_integer_factor():
    P = group_context("Z x grigorchuk")
    ac = evaluate_word(P.right, ("a", "c"))
    assert P.order((0, ac), 64) == GroupCtx.order(P, (0, ac), 64) == 16
    for order in (P.order, functools.partial(GroupCtx.order, P)):
        with pytest.raises(CapExceededError):
            order((3, ac), 64)
    assert element_order(P, (3, ac), 64) is INFINITE


def test_product_order_past_the_cap_while_each_factor_fits():
    P = group_context("S3 x grigorchuk")
    g = evaluate_word(P, ("L:(12)", "L:(23)", "R:a", "R:c"))
    assert P.left.order(g[0], 20) == 3 and P.right.order(g[1], 20) == 16
    for order in (P.order, functools.partial(GroupCtx.order, P)):
        with pytest.raises(CapExceededError):
            order(g, 20)
        with pytest.raises(CapExceededError):
            order(g, 47)
        assert order(g, 48) == 48


@pytest.mark.parametrize("name", ["S3", "grigorchuk", "S3 x grigorchuk"])
def test_ball_orders_and_torsion_table_match_generic_loop(name):
    """Orders from each kind's own `order` (the section recursion in the
    Grigorchuk group, the lcm of the factors' orders in a product) equal
    the generic loop's, element by element; each table entry is the
    largest order over ball(n), and so is the last entry of the table
    up to radius n."""
    top = 9
    ctx = group_context(name)
    slow = [GroupCtx.order(ctx, g, 64) for g in ball(ctx, top)]
    assert ball_orders(group_context(name), top, 64) == slow
    want = [max(slow[: len(ball(ctx, n))]) for n in range(top + 1)]
    assert torsion_table(group_context(name), top, 64) == want
    for n in range(top + 1):
        assert torsion_table(group_context(name), n, 64)[-1] == want[n]


def test_torsion_table_cap_exceeded():
    G = group_context("grigorchuk")
    assert torsion_table(G, 2, 16) == [1, 2, 16]
    with pytest.raises(CapExceededError):
        torsion_table(G, 2, 15)
    with pytest.raises(ValueError):
        torsion_table(G, -1, 16)


def test_index_radius_grows_only_to_the_index():
    G = group_context("grigorchuk")
    sizes = [len(ball(group_context("grigorchuk"), r)) for r in range(4)]
    assert index_radius(G, 0, 30) == 0
    assert index_radius(G, sizes[2], 30) == 3
    assert len(G._layer_end) == 4  # built through radius 3, not 30
    assert index_radius(G, sizes[2], 2) is None
    assert index_radius(G, -1, 5) is None


@pytest.mark.parametrize(
    "name", ["Z", "S3", "Z x S3", "grigorchuk", "Z x grigorchuk", "S3 x grigorchuk"]
)
def test_norms_are_the_layers_of_the_bfs_index(name):
    """An element's norm is the length of its ball word: |n| in Z, the
    layer of its BFS index in S3 and Grigorchuk, in a product the sum of
    its factors' norms."""
    ctx = group_context(name)
    r = 8
    for g, w in zip(ball(ctx, r), ball_words(ctx, r)):
        assert word_norm(ctx, g) == ctx.norm(g) == len(w)
        for n in range(-1, r + 2):
            assert ctx.norm_at_most(g, n) == (len(w) <= n)


def test_integer_norms_past_the_element_cap_grow_no_ball():
    """|n| in Z is closed form: a norm of 100,000 needs no ball of 200,001
    elements, in Z or along the integer factor of a product."""
    Z = group_context("Z")
    assert word_norm(Z, 100_000) == 100_000
    assert len(Z._layer_end) == 1
    P = group_context("Z x S3")
    assert word_norm(P, (100_000, P.right.identity())) == 100_000
    assert P.norm_at_most((-50, (2, 1, 3)), 51)
    assert not P.norm_at_most((-50, (2, 1, 3)), 50)
    assert len(P._layer_end) == len(P.left._layer_end) == 1


def test_product_norm_at_most_grows_only_the_factor_balls():
    """norm_at_most in Z x grigorchuk, checked against the word-storing BFS
    of a second context, leaves the product's own BFS at the identity."""
    words = oracles.bfs_words(group_context("Z x grigorchuk"), 5)
    ctx = group_context("Z x grigorchuk")
    for w in words:
        g = evaluate_word(ctx, w)
        for n in range(-1, 7):
            assert ctx.norm_at_most(g, n) == (len(w) <= n), (w, n)
    assert len(ctx._layer_end) == 1


def test_torsion_function_rejects_nontorsion(Z):
    with pytest.raises(ValueError):
        torsion_table(Z, 2, 10)


def test_grigorchuk_relations(G):
    for w in ("aa", "bb", "cc", "dd", "bcdbcd"):
        assert is_identity(G, tuple(w)), w


def test_enumerate_words(Z):
    assert enumerate_words(Z, 0) == ()
    assert enumerate_words(Z, 1) == ("+1",)
    assert enumerate_words(Z, 2) == ("-1",)


def test_word_enumeration_roundtrip(Z, G):
    for ctx in (Z, G):
        for k in range(10_000):
            assert word_index(ctx, enumerate_words(ctx, k)) == k


def test_lenlex_index_roundtrip_small_and_large_alphabets():
    # alphabets up to 36 symbols take the digit-string path, larger ones
    # the arithmetic one; long words give indices far past machine size
    for size in (2, 8, 36, 37, 40):
        alphabet = tuple(f"x{i}" for i in range(size))
        for k in list(range(2000)) + [10**40 + 3, 7**300]:
            assert lenlex_index(alphabet, lenlex_decode(alphabet, k)) == k
    with pytest.raises(UnknownGeneratorError):
        lenlex_index(("a", "b"), ("a", "z"))


def test_decimal_digits_match_str():
    rng = random.Random(9)
    values = [0, 1, 9, 10, 99, 100, 10**12 - 1, 10**12, 10**4299, 10**4300 - 1]
    values += [rng.getrandbits(rng.randint(1, 14_000)) for _ in range(200)]
    for v in values:
        assert decimal_digits(v) == str(v)


def test_decimal_length_matches_decimal_digits():
    values = [0, 1]
    for k in range(1, 5001):
        values += [10**k - 1, 10**k, 10**k + 1]
    rng = random.Random(32)
    values += [rng.getrandbits(rng.randint(1, 20_000)) for _ in range(300)]
    for v in values:
        assert decimal_length(v) == len(decimal_digits(v)), v


def test_digit_conversions_under_the_least_str_digit_limit():
    """640 digits is the least limit on int <-> str conversion a program
    may set; the split conversions keep every part below it."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        pytest.skip("this interpreter has no int <-> str digit limit")
    rng = random.Random(34)
    before = sys.get_int_max_str_digits()
    set_limit(640)
    try:
        for size in (10, 11):
            alphabet = tuple(f"x{i}" for i in range(size))
            word = tuple(rng.choice(alphabet) for _ in range(4500))
            index = lenlex_index(alphabet, word)
            assert lenlex_decode(alphabet, index) == word
        assert decimal_digits(10**5000 + 1) == "1" + "0" * 4999 + "1"
    finally:
        set_limit(before)


def test_inverse_word_matches_letterwise_inverse():
    rng = random.Random(33)
    for name in ("Z", "S3", "grigorchuk", "Z x S3", "S3 x grigorchuk"):
        ctx = group_context(name)
        for _ in range(30):
            w = groups.random_word(ctx, rng, 40)
            inv = inverse_word(ctx, w)
            assert inv == tuple(ctx.inverse_symbol(s) for s in reversed(w))
            assert is_identity(ctx, w + inv)


def test_lenlex_long_words_roundtrip():
    # thousands of letters: the split digit conversions against Horner,
    # at lengths around both leaf sizes and past the 4,300-digit limit on
    # str -> int conversion, over power-of-two bases, other bases up to
    # 36 and a base past 36
    rng = random.Random(8)
    lengths = {0, 1, 64, 1000, 4301, 4500}
    for leaf in (groups._SPLIT, groups._LEAF):
        lengths |= {leaf - 1, leaf, leaf + 1, 2 * leaf + 1}
    for size in (2, 8, 10, 11, 40):
        alphabet = tuple(f"x{i}" for i in range(size))
        for length in sorted(lengths):
            word = tuple(rng.choice(alphabet) for _ in range(length))
            rest = 0
            for sym in word:
                rest = rest * size + alphabet.index(sym)
            index = (size**length - 1) // (size - 1) + rest
            assert lenlex_index(alphabet, word) == index
            assert lenlex_decode(alphabet, index) == word
            # the first and last words of each length
            first = (size**length - 1) // (size - 1)
            assert lenlex_decode(alphabet, first) == (alphabet[0],) * length
            if length:
                assert lenlex_decode(alphabet, first - 1) == (alphabet[-1],) * (length - 1)
        with pytest.raises(UnknownGeneratorError):
            lenlex_index(alphabet, word[:2000] + ("y",) + word[2000:])


def test_element_equality_through_word_problem(G):
    # (ab)^4 has order 2, so its square equals the identity element
    x = evaluate_word(G, tuple("ab" * 4))
    sq = multiply(G, x, x)
    assert sq == evaluate_word(G, ())
    assert x != evaluate_word(G, ())


def test_product_context():
    P = group_context("Z x grigorchuk")
    assert P.name == "Z x grigorchuk"
    e = P.identity()
    g = evaluate_word(P, ("L:+1", "R:a"))
    assert g == (1, evaluate_word(P.right, ("a",)))
    assert multiply(P, g, P.inverse(g)) == e
    assert element_order(P, evaluate_word(P, ("L:+1", "L:+1")), 10) is INFINITE
    assert element_order(P, evaluate_word(P, ("R:a",)), 10) == 2
    assert len(ball(P, 1)) == 7
    assert not P.is_torsion()


def test_product_of_torsion_groups_is_torsion():
    P = group_context("S3 x grigorchuk")
    assert P.is_torsion()
    assert torsion_table(P, 1, 10)[-1] == 2


@pytest.mark.parametrize("name", ["Z", "S3", "grigorchuk", "Z x S3", "S3 x grigorchuk"])
def test_word_problem_prefix_matches_per_word_identity(name):
    """Level-by-level prefixes equal is_identity of each enumerated word,
    at lengths 0 and 1 and one either side of every level boundary."""
    ctx = group_context(name)
    s = len(ctx.generators)
    longest = 1200
    want = "".join(
        "1" if is_identity(ctx, enumerate_words(ctx, i)) else "0" for i in range(longest)
    )
    lengths = {0, 1, 2, longest}
    for level in range(1, 8):
        end = lenlex_count(s, level)
        if end < longest:
            lengths |= {end - 1, end, end + 1}
    for length in sorted(lengths):
        assert word_problem_prefix(group_context(name), length) == want[:length]


PRODUCT_IDS = ("Z", "S3", "grigorchuk", "Z x S3", "Z x S3 x grigorchuk")
S3_PERMS = {"(12)": (2, 1, 3), "(23)": (1, 3, 2), "(13)": (3, 2, 1)}


def _per_kind_element(ctx, sym):
    """Generator elements by each kind's own rule, product symbols parsed."""
    if ctx.kind == "Z":
        return {"+1": 1, "-1": -1}[sym]
    if ctx.kind == "S3":
        return S3_PERMS[sym]
    if ctx.kind == "grigorchuk":
        assert sym in "abcd" and len(sym) == 1
        return "eabcd".index(sym)  # the nucleus ids
    side, _, rest = sym.partition(":")
    if side == "L":
        return (_per_kind_element(ctx.left, rest), ctx.right.identity())
    assert side == "R"
    return (ctx.left.identity(), _per_kind_element(ctx.right, rest))


def _per_kind_inverse(ctx, sym):
    """Inverse symbols by each kind's own rule: +1 and -1 swap in Z, S3 and
    Grigorchuk generators are involutions, products keep the side."""
    if ctx.kind == "Z":
        return {"+1": "-1", "-1": "+1"}[sym]
    if ctx.kind in ("S3", "grigorchuk"):
        _per_kind_element(ctx, sym)  # a generator of the kind
        return sym
    side, _, rest = sym.partition(":")
    factor = {"L": ctx.left, "R": ctx.right}[side]
    return f"{side}:{_per_kind_inverse(factor, rest)}"


@pytest.mark.parametrize("name", PRODUCT_IDS)
def test_generator_tables_match_per_kind_rules(name):
    ctx = group_context(name)
    assert list(ctx.element_of) == list(ctx.generators)
    for sym in ctx.generators:
        assert ctx.generator_element(sym) == _per_kind_element(ctx, sym)
        assert ctx.inverse_symbol(sym) == _per_kind_inverse(ctx, sym)
    assert ctx.inverse_of == {s: _per_kind_inverse(ctx, s) for s in ctx.generators}


@pytest.mark.parametrize("name", PRODUCT_IDS)
def test_foreign_symbols_raise_unknown_generator(name):
    ctx = group_context(name)
    first = ctx.generators[0]
    for sym in ("q", "L:q", "L:", "R:L:+1"):
        for call in (
            lambda: ctx.generator_element(sym),
            lambda: ctx.inverse_symbol(sym),
            lambda: inverse_word(ctx, (first, sym)),
            lambda: inverse_word(ctx, (sym,)),
            lambda: evaluate_word(ctx, (first, sym)),
            lambda: parse_word(ctx, f"{first} {sym}"),
        ):
            with pytest.raises(UnknownGeneratorError, match="generator"):
                call()


def test_asymmetric_generating_set_is_rejected():
    class Half(groups.IntegersGroup):
        def __init__(self):
            GroupCtx.__init__(self, "half", 0, {"+1": 1, "+2": 2})

    with pytest.raises(ValueError, match="not symmetric"):
        Half()


@pytest.mark.parametrize("name", PRODUCT_IDS)
def test_ball_and_sphere_words_match_word_storing_bfs(name):
    expected = oracles.bfs_words(group_context(name), 6)
    ctx = group_context(name)
    for r in range(7):
        assert ball_words(ctx, r) == [w for w in expected if len(w) <= r]
    fresh = group_context(name)  # spheres read before any ball is listed
    for r in (6, 0, 3):
        assert sphere_words(fresh, r) == [w for w in expected if len(w) == r]


def test_ball_and_sphere_words_refuse_a_negative_radius():
    """As `ball` does, on a fresh context and on one whose ball is built."""
    fresh, built = group_context("Z"), group_context("Z")
    ball(built, 3)
    for ctx in (fresh, built):
        for listing in (ball, ball_words, sphere_words):
            with pytest.raises(ValueError, match="radius must be >= 0"):
                listing(ctx, -1)
    assert len(ball_words(built, 3)) == 7


@pytest.mark.parametrize("name", ["Z", "S3", "grigorchuk", "Z x S3", "S3 x grigorchuk"])
def test_has_norm_is_a_nonempty_sphere(name):
    """Read on a fresh context and on one whose spheres are built; n runs
    past S3's largest norm, 3."""
    fresh, listed = group_context(name), group_context(name)
    for n in range(1, 11):
        assert has_norm(fresh, n) == bool(sphere_words(listed, n)) == has_norm(listed, n)
    assert has_norm(fresh, 0)
    with pytest.raises(ValueError, match="radius must be >= 0"):
        has_norm(fresh, -1)


def test_deep_sphere_word_keeps_no_ball_of_words():
    """The BFS keeps a parent index per element, not a word: the Z ball to
    radius 1,064 holds 2,129 elements, whose words would be 1.13 M letters."""
    import tracemalloc

    tracemalloc.start()
    try:
        words = sphere_words(group_context("Z"), 1064)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert words[0] == ("+1",) * 1064 and words[1] == ("-1",) * 1064
    assert peak < 2 * 1024 * 1024
