"""Arithmetic for the first Grigorchuk group.

Elements act on the rooted binary tree.  The generator ``a`` swaps the two
subtrees; ``b``, ``c``, ``d`` fix the first level and act on the subtrees
through the mutual recursion

    b = (a, d),    c = (a, b),    d = (e, c)

written as (action on left subtree, action on right subtree).  All four
generators are involutions and {e, b, c, d} is a Klein four-group
(bc = cb = d, bd = db = c, cd = dc = b).  This labelling of b, c, d is
fixed once and for all here; it determines the orders of short products
(ord(ab) = 8, ord(ad) = 4, ord(ac) = 16).

An element is an id from a `PortraitTable`: its minimal tree portrait,
hash-consed into a small int, so equal elements get equal ids.  The
table multiplies (`product`), inverts (`inverse`) and finds the order
(`order`) of ids by section recursion down to the nucleus, memoised per
table.  An order comes from the orders of level-one sections, as in
Grigorchuk's proof that the group is a 2-group, with no loop over powers.

Words enter only through `reduce_word`, which length-reduces them: no
doubled letters and no two adjacent letters from {b, c, d}, so reduced
words alternate a's with single letters from {b, c, d}.  Reduction never
increases length, and the level-one sections of a reduced word of length
n >= 2 have length at most ceil(n / 2) < n, which makes the portrait
recursion terminate.  `portrait` is the readable nested-tuple form of
the canonical portrait, recomputed from a word: the reference the ids
are tested against.
"""

import math

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


def reduce_word(letters):
    """Length-reduce a word over a, b, c, d.

    Applies x x -> e and the Klein merges for adjacent letters from
    {b, c, d}.  The result alternates a's and single non-a letters.
    """
    out = []
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
_NUCLEUS_NAMES = tuple(_NUCLEUS.values())
_NUCLEUS_IDS = {name: i for i, name in enumerate(_NUCLEUS_NAMES)}
_NUCLEUS_NODES = tuple((s, _NUCLEUS_IDS[left], _NUCLEUS_IDS[right]) for s, left, right in _NUCLEUS)


class PortraitTable:
    """Group elements as small ints: canonical portraits, hash-consed.

    Ids 0-4 are the nucleus e, a, b, c, d; any other id names a node
    (swap, left id, right id) that matches no nucleus member's own
    decomposition.  Equal ids are equal elements.  Ids are handed out in
    order of first use, so they can be compared only within one table.

    `product(g, h)` is the id of g h, `inverse(g)` that of g^-1 and
    `order(g)` the order of g; each is memoised per table, so the table
    grows with the elements and products seen.
    """

    def __init__(self):
        self._nodes = list(_NUCLEUS_NODES)  # id -> (swap, left, right)
        self._ids = {node: i for i, node in enumerate(_NUCLEUS_NODES)}
        self._products = {}  # h -> {g: id of g h}
        self._inverses = {}
        self._orders = {0: 1, 1: 2, 2: 2, 3: 2, 4: 2}  # id -> order; e, then a-d

    def __len__(self):
        """Number of ids handed out."""
        return len(self._nodes)

    def _node(self, swap, left, right):
        node = (swap, left, right)
        i = self._ids.get(node)
        if i is None:
            i = self._ids[node] = len(self._nodes)
            self._nodes.append(node)
        return i

    def product(self, g, h):
        """Id of g h, where h acts first.

        The section of g h at a level-one vertex v is the product of g's
        section at h(v) and h's section at v.  A factor's sections are
        shallower than the factor unless it is a nucleus member, so the
        recursion ends at a product of two nucleus members, which
        `_leaf_product` splits.
        """
        if not h:
            return g
        if not g:
            return h
        memo = self._products.get(h)
        if memo is None:
            memo = self._products[h] = {}
        gh = memo.get(g)
        if gh is None:
            if g < len(_NUCLEUS_NAMES) and h < len(_NUCLEUS_NAMES):
                gh = self._leaf_product(g, h)
            else:
                nodes = self._nodes
                g_swap, g0, g1 = nodes[g]
                h_swap, h0, h1 = nodes[h]
                if h_swap:
                    g0, g1 = g1, g0
                gh = self._node(g_swap ^ h_swap, self.product(g0, h0), self.product(g1, h1))
            memo[g] = gh
        return gh

    def _leaf_product(self, g, h):
        # Splitting the two nucleus members' decompositions again would loop
        # (d d -> c c -> b b -> d d), so reduce the two-letter word and
        # split it once: its sections are single letters or empty.
        w = reduce_word((_NUCLEUS_NAMES[g], _NUCLEUS_NAMES[h]))
        if len(w) < 2:
            return _NUCLEUS_IDS[w[0]] if w else 0
        swap, s0, s1 = activity_and_sections(w)
        return self._node(
            swap,
            _NUCLEUS_IDS[s0[0]] if s0 else 0,
            _NUCLEUS_IDS[s1[0]] if s1 else 0,
        )

    def inverse(self, g):
        """Id of g^-1: its section at v is the inverse of g's section at
        g^-1(v).  The nucleus members are involutions."""
        if g < len(_NUCLEUS_NAMES):
            return g
        inv = self._inverses.get(g)
        if inv is None:
            swap, left, right = self._nodes[g]
            if swap:
                left, right = right, left
            inv = self._inverses[g] = self._node(swap, self.inverse(left), self.inverse(right))
        return inv

    def order(self, g):
        """Order of g, from the orders of its level-one sections.

        A g that fixes level one has order lcm(ord g0, ord g1).  A g that
        swaps has order 2 ord(g0 g1): g^2 fixes level one with the
        sections g1 g0 and g0 g1, which are conjugate.  The recursion
        ends, because:

        * a step to a section lowers the portrait depth, and a swap step
          never raises it (a product of two ids of depth at most k has
          depth at most k + 1), so every id it reaches is one of the
          finitely many of depth at most g's;
        * a chain of steps that came back to an id would have come back
          to its depth, so every step in it would be a swap, and that id
          would have order 2^m times its own order for some m >= 1: an
          infinite order, which no element of this 2-group has.
        """
        k = self._orders.get(g)
        if k is None:
            swap, left, right = self._nodes[g]
            if swap:
                k = 2 * self.order(self.product(left, right))
            else:
                k = math.lcm(self.order(left), self.order(right))
            self._orders[g] = k
        return k
