"""Word arithmetic for the first Grigorchuk group.

Elements act on the rooted binary tree.  The generator ``a`` swaps the two
subtrees; ``b``, ``c``, ``d`` fix the first level and act on the subtrees
through the mutual recursion

    b = (a, d),    c = (a, b),    d = (e, c)

written as (action on left subtree, action on right subtree).  All four
generators are involutions and {e, b, c, d} is a Klein four-group
(bc = cb = d, bd = db = c, cd = dc = b).  This labelling of b, c, d is
fixed once and for all here; it determines the orders of short products
(ord(ab) = 8, ord(ad) = 4, ord(ac) = 16).

Words are stored length-reduced: no doubled letters and no two adjacent
letters from {b, c, d}, so reduced words alternate a's with single letters
from {b, c, d}.  Reduction never increases length, and the level-one
sections of a reduced word of length n >= 2 have length at most
ceil(n / 2) < n, which makes the portrait recursion terminate.

Canonical keys come from `PortraitTable`, which hash-conses portrait
nodes into small ints and builds the key of a word from the key of its
longest recently keyed prefix, one letter at a time.  `portrait` is the
readable nested-tuple form of the same canonical portrait.
"""

GENERATORS = ("a", "b", "c", "d")

# x -> (left section, right section); "" is the identity.  a is the swap.
SECTIONS = {"b": ("a", "d"), "c": ("a", "b"), "d": ("", "c")}

_KLEIN = {
    ("b", "c"): "d",
    ("c", "b"): "d",
    ("b", "d"): "c",
    ("d", "b"): "c",
    ("c", "d"): "b",
    ("d", "c"): "b",
}

# minimal-portrait collapse: (swap, left, right) patterns that denote a
# generator or the identity.
_NUCLEUS = {
    (0, "e", "e"): "e",
    (1, "e", "e"): "a",
    (0, "a", "d"): "b",
    (0, "a", "b"): "c",
    (0, "e", "c"): "d",
}


def reduce_word(letters, reduced_prefix=()):
    """Length-reduce a word over a, b, c, d.

    Applies x x -> e and the Klein merges for adjacent letters from
    {b, c, d}.  The result alternates a's and single non-a letters.  A
    `reduced_prefix`, which must itself be reduced, gives the reduction
    of reduced_prefix + letters while folding in only `letters`.
    """
    out = list(reduced_prefix)
    for x in letters:
        if x not in SECTIONS and x != "a":
            raise ValueError(f"not a Grigorchuk generator: {x!r}")
        if not out:
            out.append(x)
        elif out[-1] == x:
            out.pop()
        elif out[-1] != "a" and x != "a":
            # the merged letter sits after an 'a' or at the start, so no
            # cascade to the left is possible
            out[-1] = _KLEIN[(out[-1], x)]
        else:
            out.append(x)
    return tuple(out)


def activity_and_sections(word):
    """Split a word into its root swap bit and the two level-one sections.

    The word is taken as a product with the rightmost letter acting first;
    sections come back as unreduced words.
    """
    swap = 0
    s0, s1 = [], []
    for x in word:
        if x == "a":
            swap ^= 1
            s0, s1 = s1, s0
        else:
            left, right = SECTIONS[x]
            if left:
                s0.append(left)
            if right:
                s1.append(right)
    return swap, s0, s1


def portrait(letters):
    """Canonical form of a word: its minimal tree portrait, as nested tuples.

    Two words are equal in the group iff their portraits are equal.
    Leaves are the one-letter names 'e', 'a', 'b', 'c', 'd'; internal
    nodes are (swap, left, right) triples that do not match any
    generator's own decomposition.  This is the readable, recomputed form
    of the ids `PortraitTable` hands out, and the reference they are
    tested against.
    """
    w = reduce_word(letters)
    if not w:
        return "e"
    if len(w) == 1:
        return w[0]
    swap, s0, s1 = activity_and_sections(w)
    node = (swap, portrait(s0), portrait(s1))
    return _NUCLEUS.get(node, node)


# The nucleus as table ids 0-4, with each member's own (swap, left,
# right) decomposition; a node equal to one of these collapses to the leaf.
_LEAF_NAMES = tuple(_NUCLEUS.values())
_LEAF_IDS = {name: i for i, name in enumerate(_LEAF_NAMES)}
_LEAF_NODES = tuple((s, _LEAF_IDS[left], _LEAF_IDS[right]) for s, left, right in _NUCLEUS)

# Words whose key is looked for among their memoised prefixes: at most
# this many prefixes are tried, longest first, before starting from e.
_PREFIX_TRIES = 4


class PortraitTable:
    """Canonical portraits as small ints, hash-consed within one table.

    Ids 0-4 are the nucleus e, a, b, c, d; any other id names a node
    (swap, left id, right id) that matches no nucleus member's own
    decomposition.  Two words get the same id exactly when they are equal
    in the group.  Ids are handed out in order of first use, so they can
    be compared only within one table.

    `times(g, x)` is the id of g x (the generator x acting first),
    memoised per table.  `key(word)` looks the word up in a memo of at
    most `MEMO_BOUND` words and otherwise applies `times` letter by letter
    from the longest memoised prefix among the word's `_PREFIX_TRIES`
    longest, so a word that extends a recently keyed one by a letter costs
    one `times` call.  It needs no reduced input.  The node and `times`
    tables grow with the elements seen; the word memo does not.
    """

    MEMO_BOUND = 1 << 16

    def __init__(self):
        self._nodes = list(_LEAF_NODES)  # id -> (swap, left, right)
        self._ids = {node: i for i, node in enumerate(_LEAF_NODES)}
        self._times = {x: {} for x in GENERATORS}
        # two generations of at most half the bound each; a full recent
        # generation replaces the older one
        self._half = self.MEMO_BOUND // 2
        self._recent = {}
        self._older = {}

    def memo_size(self):
        """Number of words in the key memo (never above the bound)."""
        return len(self._recent) + len(self._older)

    def _node(self, swap, left, right):
        node = (swap, left, right)
        i = self._ids.get(node)
        if i is None:
            i = self._ids[node] = len(self._nodes)
            self._nodes.append(node)
        return i

    def times(self, g, x):
        """Id of g x, where the generator x acts first."""
        memo = self._times[x]
        h = memo.get(g)
        if h is None:
            if g < len(_LEAF_NAMES):
                h = self._leaf_times(g, x)
            elif x == "a":
                swap, left, right = self._nodes[g]
                h = self._node(swap ^ 1, right, left)
            else:
                swap, left, right = self._nodes[g]
                x0, x1 = SECTIONS[x]
                if x0:
                    left = self.times(left, x0)
                h = self._node(swap, left, self.times(right, x1))
            memo[g] = h
        return h

    def _leaf_times(self, g, x):
        # Splitting a nucleus member's decomposition again would loop
        # (d d -> c c -> b b -> d d), so reduce the two-letter word and
        # split it once: its sections are single letters or empty.
        w = reduce_word(((_LEAF_NAMES[g],) if g else ()) + (x,))
        if len(w) < 2:
            return _LEAF_IDS[w[0]] if w else 0
        swap, s0, s1 = activity_and_sections(w)
        return self._node(
            swap,
            _LEAF_IDS[s0[0]] if s0 else 0,
            _LEAF_IDS[s1[0]] if s1 else 0,
        )

    def _lookup(self, word):
        g = self._recent.get(word)
        if g is None:
            g = self._older.get(word)
        return g

    def key(self, word):
        """Id of the group element the word denotes."""
        g = self._recent.get(word)
        if g is not None:
            return g
        g = self._older.get(word)
        if g is None:
            g, start = 0, 0
            for cut in range(len(word) - 1, max(len(word) - 1 - _PREFIX_TRIES, 0), -1):
                h = self._lookup(word[:cut])
                if h is not None:
                    g, start = h, cut
                    break
            times = self.times
            for x in word[start:]:
                g = times(g, x)
        if len(self._recent) >= self._half:
            self._older = self._recent
            self._recent = {}
        self._recent[word] = g
        return g
