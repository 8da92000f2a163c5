"""Portrait-table ids against the nested-tuple portraits they replace."""

import random

from groupwalk import grigorchuk, groups

import oracles


def portrait_bfs(n):
    """Ball words of radius n, deduplicated by nested-tuple portraits.

    Also returns every (parent element, generator, portrait) the search
    tried, duplicates included.
    """
    seen = {grigorchuk.portrait(())}
    words, layer, tried = [()], [((), ())], []
    for _ in range(n):
        nxt = []
        for elem, word in layer:
            for x in grigorchuk.GENERATORS:
                cand = grigorchuk.reduce_word(elem + (x,))
                p = grigorchuk.portrait(cand)
                tried.append((elem, x, p))
                if p not in seen:
                    seen.add(p)
                    nxt.append((cand, word + (x,)))
                    words.append(word + (x,))
        layer = nxt
    return words, tried


def test_ball_17_matches_portrait_bfs():
    words, tried = portrait_bfs(17)
    G = groups.group_context("grigorchuk")
    assert len(words) == 10_661
    assert list(groups.ball_words(G, 17)) == words
    # every word the search tried, unreduced: equal ids exactly when
    # equal portraits
    id_of, portrait_of = {}, {}
    for elem, x, p in tried:
        k = groups.evaluate_word(G, elem + (x,))
        assert id_of.setdefault(p, k) == k
        assert portrait_of.setdefault(k, p) == p


def test_is_identity_element_matches_tree_action():
    G = groups.group_context("grigorchuk")
    rng = random.Random(11)
    # at most 12 letters, which the action on level 8 decides
    relators = (("a", "a"), ("b", "c", "d"), tuple("ad" * 4))
    verdicts = set()
    for i in range(200):
        if i % 2:
            u = groups.random_word(G, rng, 2)
            word = u + rng.choice(relators) + groups.inverse_word(G, u)
        else:
            word = groups.random_word(G, rng, 12)
        got = G.is_identity_element(groups.evaluate_word(G, word))
        assert got == oracles.tree_trivial(word, 8), word
        verdicts.add(got)
    assert verdicts == {True, False}


def test_products_of_ids_match_portraits_of_joined_words():
    """g h on ids, h acting first, against the portrait of the joined
    word: for unreduced words of at most 12 letters, and for every
    ordered pair of ball(3) words, which covers every product of two
    nucleus members."""
    G = groups.group_context("grigorchuk")
    id_of, portrait_of = {}, {}

    def check(u, v):
        k = G.multiply_raw(groups.evaluate_word(G, u), groups.evaluate_word(G, v))
        p = grigorchuk.portrait(u + v)
        assert id_of.setdefault(p, k) == k, (u, v)
        assert portrait_of.setdefault(k, p) == p, (u, v)

    rng = random.Random(12)
    for _ in range(3000):
        check(*(groups.random_word(G, rng, 12) for _ in range(2)))
    assert 100 < len(id_of) < 3000  # equal products and distinct ones
    words = groups.ball_words(G, 3)
    for u in words:
        for v in words:
            check(u, v)


def test_inverse_ids_match_inverse_words():
    G = groups.group_context("grigorchuk")
    rng = random.Random(13)
    for _ in range(500):
        u = groups.random_word(G, rng, 12)
        assert G.inverse(groups.evaluate_word(G, u)) == groups.evaluate_word(
            G, groups.inverse_word(G, u)
        )


def test_orders_match_portraits_of_powers():
    """The order of each ball(6) element is the least k with portrait(u^k)
    the identity, u its ball word."""
    G = groups.group_context("grigorchuk")
    for g, u in zip(groups.ball(G, 6), groups.ball_words(G, 6)):
        k = 1
        while grigorchuk.portrait(u * k) != "e":
            k += 1
        assert groups.element_order(G, g, 64) == k, u
