"""Finitely generated groups with decidable word problem.

Provides the four group kinds used throughout the package (the integers,
the symmetric group on three points, the first Grigorchuk group, and
direct products of these), together with the word-level operations built
on them: evaluation, identity testing, word norms and the word metric,
canonical ball enumeration, element orders, the torsion function as a
table over radii, and the length-lex bijection between naturals and
generator words.

Conventions fixed here and relied on everywhere else:

* Generating sets are symmetric (closed under inverse) and ordered; the
  declared order defines the length-lex enumeration of words.  Every
  evaluator reads a context's two generator tables (see GroupCtx).
* A word denotes the product of its letters with the rightmost letter
  acting first when elements are viewed as maps.
* Balls are enumerated breadth-first; within a layer, elements appear in
  the lexicographic order of their first-discovered word.  Index 0 is the
  identity.  This order is deterministic and is the index space for
  pattern domains.
* Elements are canonical values, compared and hashed as they are: ints
  in Z, permutation tuples in S3, portrait ids in the Grigorchuk group,
  and pairs of these in a product.  `GroupCtx.order` is the order: a
  loop over powers by default (Z, S3), the portrait table's section
  recursion in the Grigorchuk group, the lcm of the factors' orders in a
  product.  `GroupCtx.norm` is the norm: the BFS layer by default, |n| in
  Z, the sum of the factors' norms in a product.

All values are immutable and all operations are pure.  The only
mutation is internal memoisation, owned by each context: its BFS
element -> index table, parent pointers and layer ends (an element's
norm is the layer holding its index), and for the Grigorchuk group its
portrait-id table (the hash-consed nodes, the one product memo, the
inverse memo and the order memo).  Grigorchuk elements, and products
over them, are comparable only within the context that made them.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math

from . import grigorchuk
from .errors import (
    CapacityError,
    CapExceededError,
    ContextError,
    UnknownGeneratorError,
)


class _Infinite:
    """Marker for a provably infinite element order."""

    def __repr__(self):
        return "Infinite"


INFINITE = _Infinite()

_S3_IDENTITY = (1, 2, 3)
_S3_GENS = {
    "(12)": (2, 1, 3),
    "(23)": (1, 3, 2),
    "(13)": (3, 2, 1),
}


def _s3_mul(p, q):
    # (p q)(i) = p(q(i))
    return (p[q[0] - 1], p[q[1] - 1], p[q[2] - 1])


def _s3_inv(p):
    out = [0, 0, 0]
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


class GroupCtx:
    """A group kind plus its identity and ordered symmetric generating set.

    Built from one ordered mapping, symbol -> element (`element_of`; a
    product composes its factors' mappings under "L:" and "R:").  Its
    keys are `generators`, and `inverse_of` maps each symbol to the one
    whose element is its inverse.  Subclasses supply the raw arithmetic;
    the word-level operations at module scope work uniformly through
    this interface.  Each context owns a breadth-first enumeration cache,
    which keeps each element's parent index and last letter rather than
    its word, so reuse one context object per group rather than
    recreating it in a loop.
    """

    kind = "abstract"

    def __init__(self, name, identity, table, element_cap=200_000):
        self.name = name
        self._identity = identity
        self.element_of = dict(table)
        self.generators = tuple(self.element_of)
        self.element_cap = element_cap
        if identity in self.element_of.values():
            raise ValueError(f"generating set of {name} contains the identity")
        symbol_of = {x: sym for sym, x in self.element_of.items()}
        try:
            self.inverse_of = {
                sym: symbol_of[self.inverse(x)] for sym, x in self.element_of.items()
            }
        except KeyError:
            raise ValueError(f"generating set of {name} is not symmetric") from None
        # BFS state: canonical element list, each element's BFS parent
        # index and last letter, layer boundaries (index i = end of ball
        # of radius i), element -> index.
        self._elems = [identity]
        self._parent = [0]
        self._symbol = [None]
        self._layer_end = [1]
        self._index = {identity: 0}
        self._exhausted = False

    def identity(self):
        return self._identity

    def is_identity_element(self, a):
        return a == self._identity

    def generator_element(self, sym):
        try:
            return self.element_of[sym]
        except KeyError:
            raise self._unknown(sym) from None

    def inverse_symbol(self, sym):
        try:
            return self.inverse_of[sym]
        except KeyError:
            raise self._unknown(sym) from None

    def _unknown(self, sym):
        return UnknownGeneratorError(f"unknown {self.name} generator {sym!r}")

    # -- raw arithmetic supplied by subclasses --------------------------

    def multiply_raw(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def contains(self, a):
        """Structural membership check for raw values."""
        raise NotImplementedError

    def is_torsion(self):
        raise NotImplementedError

    def provably_infinite_order(self, a):
        """True when the element has a nonzero coordinate along an integer factor."""
        return False

    def order(self, a, cap):
        """Least k in 1..cap with a^k = e; CapExceededError past the cap.
        Multiplies by a once per power."""
        acc = a
        for k in range(1, cap + 1):
            if self.is_identity_element(acc):
                return k
            acc = self.multiply_raw(acc, a)
        raise CapExceededError(cap)

    def norm(self, g):
        """|g|: the layer of the BFS holding g, grown until it does."""
        return bisect.bisect_right(self._layer_end, self._index_of(g))

    def norm_at_most(self, g, n):
        """Is |g| <= n?  One lookup once ball(n) is built: an element the
        BFS has not reached is farther out, so the ball never grows past n."""
        if n < 0:
            return False
        end = self._ball_end(n)
        i = self._index.get(g)
        return i is not None and i < end

    def __repr__(self):
        return f"<group {self.name}>"

    # -- BFS cache -------------------------------------------------------

    def _ensure_radius(self, n):
        while len(self._layer_end) <= n and not self._exhausted:
            start = self._layer_end[-2] if len(self._layer_end) >= 2 else 0
            end = self._layer_end[-1]
            added = False
            for i in range(start, end):
                parent = self._elems[i]
                for sym, x in self.element_of.items():
                    cand = self.multiply_raw(parent, x)
                    if cand in self._index:
                        continue
                    if len(self._elems) >= self.element_cap:
                        raise CapacityError(len(self._layer_end) - 1, self.element_cap)
                    self._index[cand] = len(self._elems)
                    self._elems.append(cand)
                    self._parent.append(i)
                    self._symbol.append(sym)
                    added = True
            self._layer_end.append(len(self._elems))
            if not added:
                self._exhausted = True

    def _ball_end(self, n):
        """End of ball(n) in BFS order, the BFS grown to radius n."""
        self._ensure_radius(n)
        return self._layer_end[min(n, len(self._layer_end) - 1)]

    def _index_of(self, g):
        """BFS index of g, growing the BFS one layer at a time until it
        holds g."""
        while g not in self._index:
            if self._exhausted:
                raise ContextError("element not generated by the declared generators")
            self._ensure_radius(len(self._layer_end))
        return self._index[g]


class IntegersGroup(GroupCtx):
    kind = "Z"

    def __init__(self, element_cap=200_000):
        super().__init__("Z", 0, {"+1": 1, "-1": -1}, element_cap)

    def multiply_raw(self, a, b):
        return a + b

    def inverse(self, a):
        return -a

    def contains(self, a):
        return isinstance(a, int) and not isinstance(a, bool)

    def is_torsion(self):
        return False

    def provably_infinite_order(self, a):
        return a != 0

    def norm(self, g):
        return abs(g)

    def norm_at_most(self, g, n):
        return abs(g) <= n


class SymmetricGroup3(GroupCtx):
    kind = "S3"

    def __init__(self, element_cap=200_000):
        super().__init__("S3", _S3_IDENTITY, _S3_GENS, element_cap)

    def multiply_raw(self, a, b):
        return _s3_mul(a, b)

    def inverse(self, a):
        return _s3_inv(a)

    def contains(self, a):
        return isinstance(a, tuple) and sorted(a) == [1, 2, 3]

    def is_torsion(self):
        return True


class GrigorchukGroup(GroupCtx):
    """Elements are ids of this context's `grigorchuk.PortraitTable`.

    Ids are comparable only within one table, so elements of two
    Grigorchuk contexts (or of two products over them) must not be
    mixed.  `format_element` prints an id as its ball word.
    """

    kind = "grigorchuk"

    def __init__(self, element_cap=200_000):
        self._portraits = grigorchuk.PortraitTable()
        # every table gives a, b, c, d the nucleus ids 1-4
        gens = {x: i for i, x in enumerate(grigorchuk.GENERATORS, 1)}
        super().__init__("grigorchuk", 0, gens, element_cap)

    def multiply_raw(self, a, b):
        return self._portraits.product(a, b)

    def inverse(self, a):
        return self._portraits.inverse(a)

    def contains(self, a):
        return isinstance(a, int) and not isinstance(a, bool) and 0 <= a < len(self._portraits)

    def is_torsion(self):
        return True

    def order(self, a, cap):
        """The portrait table's order of a (no powers); CapExceededError
        past the cap."""
        k = self._portraits.order(a)
        if k > cap:
            raise CapExceededError(cap)
        return k


class ProductGroup(GroupCtx):
    kind = "product"

    def __init__(self, left, right, element_cap=200_000):
        self.left = left
        self.right = right
        e_left, e_right = left.identity(), right.identity()
        gens = {f"L:{s}": (x, e_right) for s, x in left.element_of.items()}
        gens.update((f"R:{s}", (e_left, x)) for s, x in right.element_of.items())
        super().__init__(f"{left.name} x {right.name}", (e_left, e_right), gens, element_cap)

    def multiply_raw(self, a, b):
        return (
            self.left.multiply_raw(a[0], b[0]),
            self.right.multiply_raw(a[1], b[1]),
        )

    def inverse(self, a):
        return (self.left.inverse(a[0]), self.right.inverse(a[1]))

    def contains(self, a):
        return (
            isinstance(a, tuple)
            and len(a) == 2
            and self.left.contains(a[0])
            and self.right.contains(a[1])
        )

    def is_torsion(self):
        return self.left.is_torsion() and self.right.is_torsion()

    def provably_infinite_order(self, a):
        return self.left.provably_infinite_order(a[0]) or self.right.provably_infinite_order(a[1])

    def order(self, a, cap):
        """lcm of the factors' orders; CapExceededError when a factor's
        order or the lcm is past the cap."""
        k = math.lcm(self.left.order(a[0], cap), self.right.order(a[1], cap))
        if k > cap:
            raise CapExceededError(cap)
        return k

    # |(a, b)| = |a| + |b| for the union of the factors' generating sets,
    # so neither method grows the product's own BFS.

    def norm(self, g):
        return self.left.norm(g[0]) + self.right.norm(g[1])

    def norm_at_most(self, g, n):
        a, b = g
        return self.left.norm_at_most(a, n) and self.right.norm_at_most(b, n - self.left.norm(a))


def group_context(spec_id, element_cap=200_000):
    """Build a group context from a string id.

    Accepted ids: "Z", "S3", "grigorchuk", and products joined with " x "
    (left associative), e.g. "Z x grigorchuk".
    """
    parts = [p.strip() for p in spec_id.split(" x ")]
    ctx = _atom_context(parts[0], element_cap)
    for p in parts[1:]:
        ctx = ProductGroup(ctx, _atom_context(p, element_cap), element_cap)
    return ctx


def _atom_context(token, element_cap):
    t = token.lower()
    if t == "z":
        return IntegersGroup(element_cap)
    if t == "s3":
        return SymmetricGroup3(element_cap)
    if t == "grigorchuk":
        return GrigorchukGroup(element_cap)
    raise ValueError(f"unknown group id {token!r}")


# -- word-level operations ------------------------------------------------


def multiply(ctx, a, b):
    if not (ctx.contains(a) and ctx.contains(b)):
        raise ContextError(f"operands do not belong to {ctx.name}")
    return ctx.multiply_raw(a, b)


def evaluate_word(ctx, word):
    """Product of the word's letters (empty word = identity)."""
    acc = ctx.identity()
    for sym in word:
        acc = ctx.multiply_raw(acc, ctx.generator_element(sym))
    return acc


def is_identity(ctx, word):
    """Does the word evaluate to the identity?  Total for all group kinds."""
    return ctx.is_identity_element(evaluate_word(ctx, word))


def word_norm(ctx, g):
    """Length of a shortest generator word evaluating to g (`GroupCtx.norm`)."""
    if not ctx.contains(g):
        raise ContextError(f"element does not belong to {ctx.name}")
    return ctx.norm(g)


def distance(ctx, g, h):
    """Left-invariant word metric d(g, h) = |g^-1 h|."""
    return word_norm(ctx, multiply(ctx, ctx.inverse(g), h))


def index_distance(ctx, i, j):
    """Distance between the elements at BFS indices i and j, both already
    reached by the BFS."""
    elems = ctx._elems
    return ctx.norm(ctx.multiply_raw(ctx.inverse(elems[i]), elems[j]))


def ball(ctx, n):
    """All elements of norm <= n in canonical order (index 0 is e)."""
    if n < 0:
        raise ValueError("radius must be >= 0")
    return ctx._elems[: ctx._ball_end(n)]


def index_radius(ctx, index, n):
    """Norm of the element at ball index `index`, or None when the index
    lies outside ball(n).  The BFS grows one layer at a time, only until
    it reaches the index, and never past radius n."""
    if index < 0:
        return None
    ends = ctx._layer_end  # grows in place
    while True:
        r = bisect.bisect_right(ends, index)  # first ball holding the index
        if r < len(ends):
            return r if r <= n else None
        if ctx._exhausted or len(ends) > n:
            return None
        ctx._ensure_radius(len(ends))


def ball_words(ctx, n):
    """First-discovered (length-lex minimal among BFS parents) words, ball order.

    Built in one forward pass: a parent precedes its children, so each
    word is its parent's word plus one letter.
    """
    if n < 0:
        raise ValueError("radius must be >= 0")
    end = ctx._ball_end(n)
    words = [()]
    for parent, sym in zip(ctx._parent[1:end], ctx._symbol[1:end]):
        words.append(words[parent] + (sym,))
    return words


def _word_at(ctx, i):
    """The ball word of the element at BFS index i, read up its parents."""
    word = []
    while i:
        word.append(ctx._symbol[i])
        i = ctx._parent[i]
    return tuple(reversed(word))


def has_norm(ctx, n):
    """Does sphere(n) hold an element?  Two layer ends of the BFS, grown
    to radius n, decide it; no word is built."""
    if n < 0:
        raise ValueError("radius must be >= 0")
    return ctx._ball_end(n) != (ctx._ball_end(n - 1) if n else 0)


def sphere_words(ctx, n):
    """Canonical words of the elements of norm exactly n, each read up its
    BFS parents, so no word of a smaller sphere is built."""
    if n < 0:
        raise ValueError("radius must be >= 0")
    ctx._ensure_radius(n)
    if n >= len(ctx._layer_end):
        return []
    lo = ctx._layer_end[n - 1] if n >= 1 else 0
    return [_word_at(ctx, i) for i in range(lo, ctx._layer_end[n])]


def element_order(ctx, g, cap):
    """Least k >= 1 with g^k = e, INFINITE when provable, else CapExceededError."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if ctx.provably_infinite_order(g):
        return INFINITE
    return ctx.order(g, cap)


def ball_orders(ctx, n, cap):
    """`element_order` of every element of ball(n), in ball order.

    The ball grows one layer at a time and each layer's orders are found
    before the next layer is built, so an order past the cap is reported
    before a ball past the element cap.
    """
    if n < 0:
        raise ValueError("radius must be >= 0")
    orders = []
    end = 0
    for r in range(n + 1):
        start, end = end, ctx._ball_end(r)
        orders.extend(element_order(ctx, g, cap) for g in ctx._elems[start:end])
    return orders


def torsion_table(ctx, n, cap):
    """Largest element order over ball(r), for r = 0..n (torsion kinds only).

    One pass over ball(n) (`ball_orders`), with the running maximum read
    off at each layer end: smaller balls are prefixes of larger ones.
    """
    if not ctx.is_torsion():
        raise ValueError(f"{ctx.name} is not a torsion group")
    running = list(itertools.accumulate(ball_orders(ctx, n, cap), max))
    ends = ctx._layer_end
    return [running[ends[min(r, len(ends) - 1)] - 1] for r in range(n + 1)]


# -- length-lex enumeration of words over an ordered alphabet -------------


def lenlex_decode(alphabet, index):
    """The index-th word over the alphabet, ordered by length then lex."""
    if index < 0:
        raise ValueError("index must be >= 0")
    s = len(alphabet)
    if s < 2:
        raise ValueError("alphabet must have at least two symbols")
    # the word is as long as the largest L with (s^L - 1) / (s - 1) <= index
    target = index * (s - 1) + 1
    length = max(int(math.log(target, s)) - 1, 0)  # float guess, fixed up
    while s ** (length + 1) <= target:
        length += 1
    rest = index - (s**length - 1) // (s - 1)
    return tuple(alphabet[d] for d in _base_digits(rest, s, length))


def lenlex_index(alphabet, word):
    """Inverse of lenlex_decode."""
    s = len(alphabet)
    if s < 2:
        raise ValueError("alphabet must have at least two symbols")
    pos = {sym: i for i, sym in enumerate(alphabet)}
    try:
        digits = list(map(pos.__getitem__, word))
    except KeyError as exc:
        raise UnknownGeneratorError(f"symbol {exc.args[0]!r} not in alphabet") from None
    shorter = (s ** len(word) - 1) // (s - 1)  # words of length < |word|
    return shorter + _base_value(digits, s)


# Digit conversions split long numbers, so that a word of n letters costs
# about log n rounds of big multiplications or divisions rather than n
# passes over an n-digit number.  `_base_digits` halves down to _SPLIT
# digits.  `_base_value` converts leaves of digits in C, with int(text,
# base), and joins them pairwise.  A leaf holds _LEAF digits, fewer than
# 640, the least str -> int digit limit a program may set
# (sys.int_info.str_digits_check_threshold); the limit binds every base
# that is not a power of two.  A power of two has no limit and converts
# in linear time, so its digits are one leaf.  Lists of at most _SPLIT
# digits, and leaves in bases past 36, which int() cannot read, fold in
# Python.
_SPLIT = 32
_LEAF = 512
_DIGIT_BYTES = bytes.maketrans(bytes(range(36)), b"0123456789abcdefghijklmnopqrstuvwxyz")


def _base_digits(value, base, length):
    """The `length` base-`base` digits of value, most significant first."""
    if length <= _SPLIT:
        digits = [0] * length
        for i in range(length - 1, -1, -1):
            value, digits[i] = divmod(value, base)
        return digits
    half = length // 2
    high, low = divmod(value, base**half)
    return _base_digits(high, base, length - half) + _base_digits(low, base, half)


def _base_value(digits, base):
    """Inverse of _base_digits: the value of a list of base-`base` digits,
    most significant first."""
    n = len(digits)
    if n <= _SPLIT:  # cheaper than setting up a conversion in C
        return _horner(digits, base)
    if base <= 36:
        text = bytes(digits).translate(_DIGIT_BYTES)
        width = n if base & (base - 1) == 0 else _LEAF
        leaf = functools.partial(int, base=base)
    else:
        text, width, leaf = digits, _SPLIT, functools.partial(_horner, base=base)
    # leaves cut from the least significant end, so all but the last are full
    values = [leaf(text[max(end - width, 0) : end]) for end in range(n, 0, -width)]
    while len(values) > 1:
        place = base**width
        # an odd count leaves the most significant value for the next round
        odd = values[-1:] if len(values) % 2 else []
        values = [low + high * place for low, high in zip(values[0::2], values[1::2])] + odd
        width *= 2
    return values[0]


def _horner(digits, base):
    value = 0
    for d in digits:
        value = value * base + d
    return value


# str() converts ints of up to this many bits (about 617 digits), inside
# 640, the least int -> str digit limit a program may set
_STR_BITS = 2048


def decimal_digits(value):
    """The decimal digits of an int >= 0, as str() gives them.

    Unlike str(), this works past Python's 4,300-digit conversion limit,
    which length-lex indices of long words exceed: longer values are split
    in halves until str() can take each part.
    """
    if value.bit_length() <= _STR_BITS:
        return str(value)
    half = int(value.bit_length() * math.log10(2)) // 2  # about half the digits
    high, low = divmod(value, 10**half)
    return decimal_digits(high) + decimal_digits(low).zfill(half)


# log10(2), truncated after 39 decimal places
_LOG10_2 = 301029995663981195213738894724493026768
_LOG10_2_SCALE = 10**39


def decimal_length(value):
    """len(decimal_digits(value)) for an int >= 0, without converting it.

    A value of bit length b lies in [2^(b-1), 2^b), so it has as many
    digits as 2^(b-1), floor((b - 1) log10 2) + 1 =: d, or one more, and
    one comparison with 10^d decides which.
    """
    if value == 0:
        return 1
    d = (value.bit_length() - 1) * _LOG10_2 // _LOG10_2_SCALE + 1
    return d + (value >= 10**d)


def lenlex_count(alphabet_size, max_length):
    """Number of words of length <= max_length (0 when max_length < 0)."""
    if max_length < 0:
        return 0
    s = alphabet_size
    return (s ** (max_length + 1) - 1) // (s - 1)


def enumerate_words(ctx, index):
    """index -> generator word, in length-lex order (0 is the empty word)."""
    return lenlex_decode(ctx.generators, index)


def word_index(ctx, word):
    """generator word -> index; inverse of enumerate_words."""
    return lenlex_index(ctx.generators, word)


def word_problem_prefix(ctx, length):
    """The first `length` bits of the linearised word problem of ctx.

    Works one length level at a time: the words of length n, in
    length-lex order, are each word of length n - 1 followed by each
    generator in declared order, so every element is its parent's times
    one generator, and the last level is built only as far as needed.
    """
    gens = ctx.element_of.values()
    bits = []
    level = [ctx.identity()]
    while True:
        bits.extend("1" if ctx.is_identity_element(g) else "0" for g in level)
        need = length - len(bits)
        if need <= 0:
            return "".join(bits[:length])
        level = list(
            itertools.islice((ctx.multiply_raw(g, h) for g in level for h in gens), need)
        )


def parse_word(ctx, text):
    """Whitespace-separated generator symbols -> word (validated)."""
    word = tuple(text.split())
    for sym in word:
        ctx.generator_element(sym)  # raises UnknownGeneratorError
    return word


def format_element(ctx, elem):
    """Readable canonical form of an element, per group kind.

    A Grigorchuk element prints as its ball word, the word `ball_words`
    lists for it, which grows the BFS to the element's norm.
    """
    if ctx.kind == "Z":
        return str(elem)
    if ctx.kind == "S3":
        return "".join(str(v) for v in elem)
    if ctx.kind == "grigorchuk":
        return "".join(_word_at(ctx, ctx._index_of(elem))) or "e"
    if ctx.kind == "product":
        return (
            f"({format_element(ctx.left, elem[0])}, "
            f"{format_element(ctx.right, elem[1])})"
        )
    return repr(elem)


def format_word(word):
    return " ".join(word) if word else "e"


def inverse_word(ctx, word):
    try:
        return tuple(map(ctx.inverse_of.__getitem__, reversed(word)))
    except KeyError as exc:
        raise ctx._unknown(exc.args[0]) from None


def random_word(ctx, rng, max_length, min_length=0):
    length = rng.randint(min_length, max_length)
    return tuple(rng.choice(ctx.generators) for _ in range(length))
