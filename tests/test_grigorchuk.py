"""Portrait-table keys against the nested-tuple portraits they replace."""

import itertools
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


class SmallTable(grigorchuk.PortraitTable):
    MEMO_BOUND = 256


def test_ball_17_matches_portrait_bfs():
    words, tried = portrait_bfs(17)
    G = groups.group_context("grigorchuk")
    assert len(words) == 10_661
    assert list(groups.ball_words(G, 17)) == words
    # every word the search tried, unreduced: equal ids exactly when
    # equal portraits, in the context's table and in a small table that
    # evicts as it goes
    small = SmallTable()
    for key, sample in ((G.key, tried), (small.key, tried[:5000])):
        id_of, portrait_of = {}, {}
        for elem, x, p in sample:
            k = key(elem + (x,))
            assert id_of.setdefault(p, k) == k
            assert portrait_of.setdefault(k, p) == p
    assert small.memo_size() <= SmallTable.MEMO_BOUND


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
        got = G.is_identity_element(word)
        assert got == oracles.tree_trivial(word, 8), word
        verdicts.add(got)
    assert verdicts == {True, False}


def test_word_memo_stays_bounded():
    G = groups.group_context("grigorchuk")
    table = G._portraits
    # 10^5 distinct unreduced words, shortest first, so that most extend
    # a word keyed shortly before
    words = (w for n in range(10) for w in itertools.product("abcd", repeat=n))
    for w in itertools.islice(words, 100_000):
        G.key(w)
    assert table.memo_size() <= table.MEMO_BOUND < 100_000
