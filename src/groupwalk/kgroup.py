"""The shift-and-multiply machine group over the distance subshift.

Generators come in two families: shifts ``S:g`` (one per generator g of
the walking group G) and conditional multipliers ``M:h:b`` (one per
generator h of the state group H and bit b).  A word acts on pairs
(pattern over G, element of H), rightmost letter first:

* ``S:g`` shifts the pattern by g and leaves the state alone;
* ``M:h:b`` left-multiplies the state by h exactly when the cell at the
  current origin holds the bit b, and does nothing otherwise (reads
  outside the pattern's domain never fire).

Whether a word is the identity depends on the constraint set A only
through finitely many distances: once the shift image is trivial and no
zero-or-one-1 window moves, the word is the identity iff every two-1
window it moves has its distance inside A.  A word is replayed once:
`word_footprint` returns its multiplier reads (independent of A), or
None when the shift image is nontrivial.  One window scan,
`moved_windows`, lists the windows over the read cells that the reads
move, zero window first, as `subshift.windows_with_ones` lists them;
`classify_reads` turns them into a verdict skeleton and `order_k` into
the multipliers whose orders it combines.  `sweep_power_identity`
replays a power over `subshift.legal_windows`, the same order over a
whole ball.
An embedding word `embed_element(ctx, n)` is not replayed: by
construction its one requirement is distance n, between the origin and
the probe element, the first of norm n, so under a prefix its verdict
is the prefix's bit n, named by `VERDICT`.  The walking group gives the
probe element's word (`GroupCtx.first_sphere_word`), under its
probe-word rule without growing its ball past radius D + 1, and
`embed_prefix` builds only a word's first letters.  `analyze_word`
classifies one word (the word problem, single reduction bits,
witnesses); `conj_reduction` decides every word up to a length in one
depth-first pass, by the same rule.  `conj_verdict` is the one scan of
a word's requirements under a prefix; `wp_verdict` decides under the
oracle through it and adds the witness.
The reduction carries every window's multiplier down its search, as
ball indices of H (`reduction_children`), decides only words whose shift
t is e and whose zero and single-1 multipliers are e, drops every
subtree that cannot reach both within its remaining letters, and
searches each distinct state's subtree once within a call.
`word_footprint` steps through the contexts' own symbol -> element
tables (`element_of`); nothing is cached between calls.  The literal
single-pattern interpreter `act` is kept separate so tests can replay
actions window by window.
"""

from __future__ import annotations

import math
from array import array
from typing import NamedTuple

from . import groups
from .errors import (
    CapExceededError,
    ContextError,
    OracleShortageError,
    PrefixTooShortError,
    ReductionWidthError,
    UnknownGeneratorError,
)
from .subshift import (
    OraclePrefix,
    Pattern,
    legal_windows,
    make_pattern,
    pair_legality,
    windows_with_ones,
)


class KGen(NamedTuple):
    """One generator: kind "S" with a G-symbol, or kind "M" with an H-symbol and a bit.

    A named tuple, so that hashing and comparing the letters of long
    words (length-lex indices) runs in C.
    """

    kind: str
    sym: str
    bit: int | None = None

    def token(self):
        if self.kind == "S":
            return f"S:{self.sym}"
        return f"M:{self.sym}:{self.bit}"


class KContext:
    """Walking group G, state group H, and an oracle prefix for A."""

    def __init__(self, g_ctx, h_ctx, oracle):
        self.G = g_ctx
        self.H = h_ctx
        self.oracle = oracle
        gens = [KGen("S", s) for s in g_ctx.generators]
        for s in h_ctx.generators:
            for b in (0, 1):
                gens.append(KGen("M", s, b))
        self.generators = tuple(gens)
        self.name = f"K({g_ctx.name}, {h_ctx.name})"

    def with_oracle(self, oracle):
        other = KContext(self.G, self.H, oracle)
        return other

    def __repr__(self):
        return f"<{self.name}, |oracle|={len(self.oracle)}>"


def make_kcontext(g_id="Z", h_id="S3", oracle_bits=""):
    return KContext(
        groups.group_context(g_id),
        groups.group_context(h_id),
        OraclePrefix(oracle_bits),
    )


def parse_kword(ctx, text):
    """Whitespace-separated S:g / M:h:b tokens -> word.

    The kind ends at the first ':' and a multiplier's bit follows the
    last one, so product-group symbols such as ``L:+1`` may hold ':'s.
    """
    word = []
    for tok in text.split():
        kind, _, sym = tok.partition(":")
        bit = None
        if kind == "M":
            sym, _, bit = sym.rpartition(":")
        if kind == "S" and sym:
            ctx.G.generator_element(sym)
            word.append(KGen("S", sym))
        elif kind == "M" and sym and bit in ("0", "1"):
            ctx.H.generator_element(sym)
            word.append(KGen("M", sym, int(bit)))
        else:
            raise UnknownGeneratorError(f"bad machine-group token {tok!r}")
    return tuple(word)


def format_kword(word):
    return " ".join(g.token() for g in word) if word else "e"


def gamma(word):
    """Erase multipliers: the word's image in the walking group, as a G-word."""
    return tuple(g.sym for g in word if g.kind == "S")


def section(g_word):
    """Lift a G-word letterwise to shifts, one shared KGen per symbol;
    gamma(section(v)) == v."""
    lift = {sym: KGen("S", sym) for sym in set(g_word)}
    return tuple(map(lift.__getitem__, g_word))


class ActResult(NamedTuple):
    """Outcome of acting on (pattern, state): the configuration shift * pattern
    paired with the new state.  `shift` is a G-element; the pattern object
    itself is never rewritten."""

    pattern: Pattern
    shift: object
    state: object

    def fixes(self, ctx, pattern, state):
        return (
            ctx.G.is_identity_element(self.shift)
            and self.pattern == pattern
            and self.state == state
        )


def act(ctx, word, pattern, state):
    """Apply a word to (pattern, state), rightmost generator first.

    Reads the pattern through the accumulated shift; reads that fall
    outside the pattern's domain leave the state untouched.  A read is
    located by its norm and ball index, so the ball grows only as far as
    the reads reach, not to the pattern's radius.
    """
    g = ctx.G
    t = g.identity()
    h = state
    for kg in reversed(word):
        if kg.kind == "S":
            t = g.multiply_raw(g.generator_element(kg.sym), t)
        else:
            x = g.inverse(t)
            if g.norm(x) <= pattern.radius and pattern.value_at(g._index_of(x)) == kg.bit:
                h = ctx.H.multiply_raw(ctx.H.generator_element(kg.sym), h)
    return ActResult(pattern, t, h)


# -- word footprint: the A-independent part of the word problem -----------


def read_multiplier(h_ctx, reads, ones):
    """H-element a list of (cell, bit, H-element) reads, folded in action
    order, applies to the state of a window with 1s at `ones`."""
    h = h_ctx.identity()
    for cell, bit, elem in reads:
        if (cell in ones) == bit:
            h = h_ctx.multiply_raw(elem, h)
    return h


class WordAnalysis(NamedTuple):
    """Verdict skeleton for one word, before consulting the oracle.

    kind "shift": the shift image is nontrivial (witness: the G-word).
    kind "moves_free": a window that is legal under every A moves
        (witness_ones: () for the zero window or a single ball index).
    kind "conjunctive": the word is the identity iff every distance in
        `requirements` belongs to A; entries are (distance, (i, j)) for
        the moved two-1 windows, in canonical window order.
    """

    kind: str
    radius: int
    gamma_word: tuple = ()
    witness_ones: tuple = ()
    requirements: tuple = ()

    def distances(self):
        return sorted({d for d, _ in self.requirements})


def word_footprint(ctx, word):
    """Replay the word once: its multiplier reads, or None when its shift
    image is nontrivial.

    The reads are (ball index, bit, H-element) in action order; the state
    multiplier for any window depends only on the window's values at the
    read cells.  Positions become ball indices through the context's own
    BFS index, and only once the shift is known to be trivial: the ball
    grows only as far as the reads reach, and a word whose shift drifts
    away never grows it.
    """
    g = ctx.G
    # the contexts' element tables are keyed by symbol, a str that caches
    # its hash (a KGen is hashed anew at each lookup): a letter costs one
    # lookup and, for a shift, one multiply_raw
    shift_of, state_of = g.element_of, ctx.H.element_of
    mul = g.multiply_raw
    t = g.identity()
    raw = []  # (shift before the read, bit, H-element)
    try:
        for kg in reversed(word):
            if kg.kind == "S":
                t = mul(shift_of[kg.sym], t)
            else:
                raw.append((t, kg.bit, state_of[kg.sym]))
    except KeyError:  # only the tables raise it
        raise UnknownGeneratorError(f"{kg.token()} is not a letter of {ctx.name}") from None
    if not g.is_identity_element(t):
        return None
    index, inverse = g._index_of, g.inverse
    return tuple((index(inverse(shift)), bit, elem) for shift, bit, elem in raw)


def moved_windows(h_ctx, reads):
    """(ones, h) for each window over the read cells whose multiplier h
    is not e, in the canonical order of `subshift.windows_with_ones` over
    the read cells.  Windows with 1s off the read cells act like the
    window of their 1s on them, so these are all there are."""
    e = h_ctx.identity()
    cells = sorted({cell for cell, _, _ in reads})
    for ones in windows_with_ones(cells):
        h = read_multiplier(h_ctx, reads, ones)
        if h != e:
            yield ones, h


def classify_reads(ctx, radius, reads):
    """Classify a shift-trivial word of length `radius` by its reads.

    Returns a "moves_free" or "conjunctive" WordAnalysis: the first moved
    window in canonical order is the witness, unless it has two 1s.
    """
    requirements = []
    for ones, _ in moved_windows(ctx.H, reads):
        if len(ones) < 2:
            return WordAnalysis("moves_free", radius, witness_ones=ones)
        requirements.append((groups.index_distance(ctx.G, *ones), ones))
    return WordAnalysis("conjunctive", radius, requirements=tuple(requirements))


def analyze_word(ctx, word):
    """Classify a word as shift-nontrivial, freely moving, or conjunctive."""
    reads = word_footprint(ctx, word)
    if reads is None:
        return WordAnalysis("shift", len(word), gamma_word=gamma(word))
    return classify_reads(ctx, len(word), reads)


# -- word problem ----------------------------------------------------------


class WpResult(NamedTuple):
    """Tagged word-problem verdict.

    kind "identity" | "non_identity" | "needs_oracle".  Non-identity
    verdicts carry either the nontrivial shift image (gamma_witness) or
    the first moved legal window in canonical order (pattern_witness).
    An oracle shortage reports the prefix length that would decide.
    """

    kind: str
    gamma_witness: tuple | None = None
    pattern_witness: Pattern | None = None
    needed_length: int | None = None


# the word-problem verdict a `conj_verdict` bit names
VERDICT = {1: "identity", 0: "non_identity", None: "needs_oracle"}


def wp_k(ctx, word):
    """Decide whether a word is the identity, given the context's oracle.

    The oracle is consulted only for the distances of two-1 windows the
    word actually moves, so short prefixes decide long words whenever the
    moved windows are few; an undecidable query yields a typed
    needs_oracle result, never an error.
    """
    return wp_verdict(ctx, analyze_word(ctx, word))


def wp_verdict(ctx, analysis):
    """The `wp_k` verdict of a word from its analysis: `conj_verdict`
    under the context's oracle decides it, and a non-identity verdict
    adds its witness, the shift image, the freely legal moved window, or
    the first moved two-1 window whose distance the oracle refutes."""
    if analysis.kind == "shift":
        return WpResult(VERDICT[0], gamma_witness=analysis.gamma_word)
    bit = conj_verdict(ctx.oracle, analysis)
    if bit == 1:
        return WpResult(VERDICT[bit])
    if bit is None:  # a prefix lacks only bits past its end, so the largest distance's
        return WpResult(VERDICT[bit], needed_length=analysis.distances()[-1] + 1)
    ones = analysis.witness_ones
    if analysis.kind == "conjunctive":
        ones = next(pair for d, pair in analysis.requirements if ctx.oracle.bit(d) == 0)
    return WpResult(VERDICT[bit], pattern_witness=make_pattern(ctx.G, analysis.radius, ones))


# -- embedding a set membership question into the word problem ------------


def noncommuting_pair(h_ctx):
    """First ordered pair (h, h') of generator symbols with h'h != hh'."""
    gens = h_ctx.element_of.items()
    for h, x in gens:
        for hp, y in gens:
            if h_ctx.multiply_raw(y, x) != h_ctx.multiply_raw(x, y):
                return h, hp
    raise ContextError(f"{h_ctx.name} is abelian; embedding needs a noncommuting pair")


def _probe_word(ctx, n):
    """The probe element's word, the first word of sphere(n) (n >= 1)."""
    if n < 1:
        raise ValueError("embedding is defined for n >= 1")
    return ctx.G.first_sphere_word(n)


def embed_element(ctx, n):
    """A word that is the identity iff n belongs to A (n >= 1).

    Commutator of a bit-1 multiplier with a shifted bit-1 multiplier: it
    can only fire on windows with 1s at both the origin and a cell at
    distance n, so its sole distance requirement is n itself.  Length is
    4n + 4.  The shift is the probe element's word, the first word of
    sphere(n) (`GroupCtx.first_sphere_word`).  With (h, h') =
    `noncommuting_pair(ctx.H)` and c the probe element's ball index,
    |ball(n - 1)|, its reads in action order are (c, 1, h^-1),
    (0, 1, h'^-1), (c, 1, h), (0, 1, h'), so only the window with 1s at
    0 and c moves, and the word is the identity under A iff n is in A:
    its verdict under a prefix is the prefix's bit n (`VERDICT`), read
    without the word.
    """
    return _embedding(ctx, _probe_word(ctx, n))


def embed_prefix(ctx, n, k):
    """The first k letters of `embed_element(ctx, n)`: a multiplier, then
    the probe word, so the word is built around that word's first k
    letters only."""
    return _embedding(ctx, _probe_word(ctx, n)[:k])[:k]


def _embedding(ctx, g_word):
    """The embedding word around a G-word: [M:h':1, g M:h:1 g^-1]."""
    h, hp = noncommuting_pair(ctx.H)
    shift = section(g_word)
    shift_inv = section(groups.inverse_word(ctx.G, g_word))
    m_h = (KGen("M", h, 1),)
    m_h_inv = (KGen("M", ctx.H.inverse_symbol(h), 1),)
    m_hp = (KGen("M", hp, 1),)
    m_hp_inv = (KGen("M", ctx.H.inverse_symbol(hp), 1),)
    conj = shift + m_h + shift_inv
    conj_inv = shift + m_h_inv + shift_inv
    return m_hp + conj + m_hp_inv + conj_inv


def kword_from_index(ctx, index):
    """The index-th machine-group word in length-lex order."""
    return groups.lenlex_decode(ctx.generators, index)


def kword_index(ctx, word):
    """Inverse of kword_from_index."""
    return groups.lenlex_index(ctx.generators, word)


def many_one_index(ctx, n):
    """Position of embed_element(n) in the length-lex word enumeration."""
    return kword_index(ctx, embed_element(ctx, n))


# -- conjunctive reduction --------------------------------------------------


def decidable_word_length(prefix_length):
    """Longest word length decidable from a prefix under the uniform bound
    |prefix| >= 2 |word| + 1 (distances inside ball(|word|) reach 2 |word|)."""
    return (prefix_length - 1) // 2


def reduction_width(ctx, prefix_length):
    """Output length of the uniform reduction: all words within the bound."""
    return groups.lenlex_count(
        len(ctx.generators), decidable_word_length(prefix_length)
    )


# Widest output `conj_reduction` builds.  Its bits take one byte each,
# twice over (a bytearray, then the str it becomes), so this is about
# 67 MB before a report copies them again.  K(Z, S3) has eight letters:
# a 17-bit prefix gives 19,173,961 bits and fits, a 19-bit one gives
# 153,391,689 and is refused.  K(grigorchuk, S3) has ten: a 15-bit prefix
# gives 11,111,111 bits and fits, a 17-bit one gives 111,111,111 and is
# refused.  The rest is small beside the output: the search's tables,
# one list per letter over the balls of radius at most 8 of G and of H
# (ball(8) of the Grigorchuk group has 271 elements); its memo, one
# entry per distinct search state (5,836 for 17 bits over K(Z, S3)),
# dropped before the output is allocated; and the pass that writes the
# 1s, which holds two word lengths at a time and 8 bytes per word of
# those lengths with a 1 at or below it (at most 176,530 words per
# length there).  So peak memory stays about two bytes per output bit.
MAX_REDUCTION_WIDTH = 1 << 25


def conj_bit(ctx, prefix, index):
    """Single output bit of the reduction, computed lazily.

    1 when the word is the identity under every A extending the prefix,
    0 when it is not the identity under any of them, None when the prefix
    does not decide.
    """
    return conj_verdict(prefix, analyze_word(ctx, kword_from_index(ctx, index)))


def conj_verdict(prefix, analysis):
    """1 / 0 / None (undecided) for a word's analysis under the prefix:
    the one scan of its requirements, which `wp_verdict` shares."""
    if analysis.kind != "conjunctive":
        return 0
    return _conjunction(prefix.bit(d) for d, _ in analysis.requirements)


def _conjunction(bits):
    """0 when one of the prefix bits is 0, else None when one is missing
    (None), else 1."""
    undecided = False
    for bit in bits:
        if bit == 0:
            return 0
        if bit is None:
            undecided = True
    return None if undecided else 1


def carried_pairs(k):
    """The pairs of a reduction state's first k read cells, as positions
    (a, b) in its cell tuple, in the order the state carries their
    two-1 window multipliers: a newly read cell b adds (0, b) ... (b - 1, b)
    after the pairs already carried."""
    return [(a, b) for b in range(k) for a in range(b)]


# the state of the empty word: see `reduction_children`
ROOT_STATE = (0, 0, (), (0,), (), 0)


def reduction_children(ctx, top):
    """The one-letter step of `conj_reduction`'s search over the words of
    at most `top` letters: a function from a word's state to the states
    of the children the search keeps, as (d, child state) pairs, where
    the child prepends ctx.generators[d].

    A state is (j, t, cells, mults, pairs, m): the word's length j; the
    G ball index of its shift t; its read cells, as G ball indices in the
    order first read; the H ball indices of its window multipliers, in
    `mults` the zero window's and then each read cell's single-1
    window's, in `pairs` each pair's two-1 window's in `carried_pairs`
    order; and m, the largest H-norm in `mults`.  `ROOT_STATE` is the
    empty word's.

    Words grow at their left end, the end the action reaches last, so a
    child extends its parent by one letter acting after all of the
    parent's: an S:g letter sets t <- g t, and an M:h:b letter reads the
    cell t^-1 and left-multiplies by h the multiplier of every window
    whose value there is b: the zero window's when b is 0, {c}'s exactly
    when (c == t^-1) == b and a pair's exactly when (t^-1 in pair) == b.
    A newly read cell's window starts from the zero window's multiplier,
    and its pair with an earlier cell c from {c}'s, since every earlier
    read sees a 0 there.  Each M:h:b letter has a left-multiplication
    list over H's ball(top - 1), so a letter fires through one `map` over
    the parent's indices.  A word of j letters carries multipliers in
    ball(j), so H's BFS grows to radius `top` and no further.  Index 0
    is e, so an unmoved window has index 0, and BFS indices are ordered
    by norm, so m is the norm at the largest index in `mults`.

    A child is dropped when |t| + m exceeds its remaining letters
    top - j.  A shift letter moves |t| by at most one step and leaves
    every multiplier alone; a multiplier letter leaves t alone and
    left-multiplies some multipliers by one generator, which moves each
    H-norm, and so m, by at most one (a new cell's multiplier copies one
    already counted).  Each letter therefore lowers |t| + m by at most
    one, so no completion of a dropped word within `top` letters reaches
    t = e and m = 0, which a word needs to be the identity under any A.
    With m = 0 this is the shift bound |t| <= top - j, which holds in
    any G; every kept shift lies in G's ball(top), which is indexed once.
    Pairs stay out of m: a moved two-1 window still allows bit 1.  A
    multiplier letter leaves the windows it does not fire on as they
    were, so when the bound needs m to fall, a letter whose read misses
    a window of too large a norm is dropped before any product is looked
    up.
    """
    g, h_ctx = ctx.G, ctx.H
    elems = groups.ball(g, top)
    size = len(elems)
    norms = [g.norm(x) for x in elems]
    index = g._index  # ball(top) is its first `size` entries
    inverse_cell = [index[g.inverse(x)] for x in elems]
    hnorms = [h_ctx.norm(x) for x in groups.ball(h_ctx, top)]
    h_inner = groups.ball(h_ctx, top - 1) if top else []
    # per letter: a left-multiplication table over G's ball(top) for a
    # shift (None past its edge), or for a multiplier its bit and
    # left-multiplication table from H's ball(top - 1) into ball(top)
    letters = []
    for kg in ctx.generators:
        if kg.kind == "S":
            s = g.generator_element(kg.sym)
            cells = (index.get(g.multiply_raw(s, x), size) for x in elems)
            letters.append((True, [i if i < size else None for i in cells]))
        else:
            h = h_ctx.generator_element(kg.sym)
            left = [h_ctx._index[h_ctx.multiply_raw(h, x)] for x in h_inner]
            letters.append((False, (kg.bit, left.__getitem__)))
    # holding[k][i]: the positions in `pairs` of the pairs among k read
    # cells that hold the cell at position i
    holding = [
        [[p for p, pair in enumerate(carried_pairs(k)) if i in pair] for i in range(k)]
        for k in range(top + 1)
    ]

    def children(state):
        j, t, cells, mults, pairs, m = state
        slack = top - j - 1  # letters a child may still gain
        if slack < 0:
            return []
        room = slack - m  # largest norm a shift child's t may have
        budget = slack - norms[t]  # largest m a multiplier child may have
        fits = (False, False)  # may a child with bit 0, with bit 1, meet it?
        if budget >= 0:
            cell = inverse_cell[t]
            if cell in cells:
                i = cells.index(cell)
                child_cells, base, pair_base = cells, mults, pairs
            else:  # an unread cell acts like a 0 in every window
                i = len(cells)
                child_cells = cells + (cell,)
                base, pair_base = mults + mults[:1], pairs + mults[1:]
            held = holding[len(child_cells)][i]
            i += 1  # the zero window comes first in `mults`
            fits = (True, True)
            if budget < m:  # only if its read fires on every multiplier past it
                high = [k for k, x in enumerate(base) if hnorms[x] > budget]
                fits = (i not in high, high == [i])
        kids = []
        for d, (is_shift, step) in enumerate(letters):
            if is_shift:
                child = step[t]
                if child is not None and norms[child] <= room:
                    kids.append((d, (j + 1, child, cells, mults, pairs, m)))
            elif fits[step[0]]:
                bit, left = step
                if bit:  # fires on {cell} and on the pairs holding it
                    fired = list(base)
                    fired[i] = left(base[i])
                    fired_pairs = list(pair_base)
                    for p in held:
                        fired_pairs[p] = left(pair_base[p])
                else:  # fires on every other window
                    fired = list(map(left, base))
                    fired[i] = base[i]
                    fired_pairs = list(map(left, pair_base))
                    for p in held:
                        fired_pairs[p] = pair_base[p]
                fired_m = hnorms[max(fired)]
                if fired_m <= budget:
                    kids.append((
                        d, (j + 1, t, child_cells, tuple(fired), tuple(fired_pairs), fired_m)
                    ))
        return kids

    return children


def conj_reduction(ctx, prefix):
    """Translate an A-prefix into a word-problem prefix of the machine group.

    Bit i concerns the i-th word in length-lex order: it is 1 iff the
    word's shift image is trivial, no zero-or-one-1 window moves, and
    every moved two-1 window has its distance flagged in the prefix.  The
    output covers exactly the words guaranteed decidable by the uniform
    length bound L = decidable_word_length(|prefix|), which makes the
    output length exponential in the input length.  The map is monotone:
    flagging more distances can only turn 0s into 1s.

    The words are searched depth first from the empty word, one letter
    at a time at their left end, by `reduction_children`, which carries
    each word's state: its length j, shift t, read cells and the
    multipliers of its zero, single-1 and two-1 windows, and prunes
    every subtree that cannot bring t and the zero and single-1
    multipliers back to e within L letters.  A word with t = e and no
    moved zero or single-1 window (m = 0) is decided by its moved pairs
    alone, as `conj_verdict` decides its requirements; every other word's
    bit is 0, since a moved zero or single-1 window is legal under every
    A.  The pairs stay out of m and of the pruning: a moved two-1 window
    is legal only when A holds its distance, so a word that moves one
    may still have bit 1.

    The state is all a word's subtree depends on: each child's state,
    each pruning test and each bit is computed from it and the letters
    added, never from the letters already there.  So subtrees are
    memoised by state, (j, t, cells, multipliers), and each is searched
    once, however many words reach it: as (own bit, ((d, child entry),
    ...)) over its children with a 1 somewhere below, or a shared empty
    entry.  A word of length j whose letters, counted from its right
    end, sit at positions d_i of ctx.generators has length-lex index
    lenlex_count(n, j - 1) + sum d_i n^i, so a subtree's bits lie at the
    same offsets below each word that reaches it, and one pass from the
    root entry writes every 1.  The memo lives for one call and is
    dropped before the output is allocated; the entries with a 1 below
    them stay until the pass ends.

    The output's width is checked against MAX_REDUCTION_WIDTH before
    anything is allocated; past it, ReductionWidthError is raised.
    """
    n = len(ctx.generators)
    top = decidable_word_length(len(prefix))
    if top < 0:
        return OraclePrefix("")
    width = reduction_width(ctx, len(prefix))
    if width > MAX_REDUCTION_WIDTH:
        raise ReductionWidthError(width, MAX_REDUCTION_WIDTH)
    children = reduction_children(ctx, top)
    layout = carried_pairs(top)

    def pair_bit(x, y):  # the prefix's bit at the distance of two cells
        return prefix.bit(groups.index_distance(ctx.G, min(x, y), max(x, y)))

    empty = (0, ())
    memo = {}

    def entry_of(state):
        j, t, cells, _, pairs, m = state
        own = 0
        if t == 0 and m == 0:
            own = _conjunction(
                pair_bit(cells[a], cells[b]) for (a, b), x in zip(layout, pairs) if x
            )
            if own is None:  # cannot happen inside the uniform bound
                raise PrefixTooShortError(2 * j + 1, len(prefix))
        kids = []
        for d, child in children(state):
            sub = memo.get(child) or entry_of(child)
            if sub is not empty:
                kids.append((d, sub))
        entry = memo[state] = (own, tuple(kids)) if own or kids else empty
        return entry

    root = entry_of(ROOT_STATE)
    memo.clear()
    out = bytearray(b"0") * width
    # one length j at a time: each entry met at that length, keyed by
    # identity, with the digit sums of every word that reaches it, held
    # in arrays of 8 bytes a word (a list of ints takes 36)
    level, start = {id(root): (root, array("q", [0]))}, 0
    for j in range(top + 1):
        place, below = n**j, {}
        for (own, kids), reached in level.values():
            if own:
                for digits in reached:
                    out[start + digits] = 49  # "1"
            for d, sub in kids:
                shift = d * place
                moved = array("q", [digits + shift for digits in reached])
                if id(sub) in below:
                    below[id(sub)][1].extend(moved)
                else:
                    below[id(sub)] = (sub, moved)
        level, start = below, start + place  # lenlex_count(n, j)
    return OraclePrefix(out.decode())


class ConjWitness(NamedTuple):
    """The conjunctive query behind one reduction bit.

    kind "always_zero": the bit is 0 under every A (shift image
    nontrivial, or a freely legal window moves).  kind "distances": the
    bit is 1 iff all listed distances belong to A.
    """

    kind: str
    distances: tuple = ()


def conj_witness(ctx, index, prefix_length):
    """The finitely many distances that must lie in A for bit `index` to be 1."""
    word = kword_from_index(ctx, index)
    if 2 * len(word) + 1 > prefix_length:
        raise PrefixTooShortError(2 * len(word) + 1, prefix_length)
    analysis = analyze_word(ctx, word)
    if analysis.kind != "conjunctive":
        return ConjWitness("always_zero")
    return ConjWitness("distances", tuple(analysis.distances()))


# -- orders and quotients ---------------------------------------------------


class OrderNeedsOracle(OracleShortageError):
    def __init__(self, needed):
        self.needed = needed
        super().__init__(f"order computation needs an oracle prefix of length {needed}")


def order_k(ctx, word, cap):
    """Exact order of a word (INFINITE when its shift image has infinite order).

    Factor through the shift image: with k its order, word^k multiplies
    the state by a window-determined element, so the order is k times the
    lcm of those multipliers' orders over legal windows of radius
    k * |word|.  The windows `moved_windows` lists over the read cells
    are exhaustive because unread cells cannot change the multiplier.  The
    state group must be torsion; the walking group may be anything whose
    element orders are decidable under the cap.  An order past the cap
    raises CapExceededError, as in `groups.element_order`.
    """
    if not ctx.H.is_torsion():
        raise ValueError("order_k needs a torsion state group")
    g_elem = groups.evaluate_word(ctx.G, gamma(word))
    k = groups.element_order(ctx.G, g_elem, cap)
    if k is groups.INFINITE:
        return groups.INFINITE
    multipliers = []
    for ones, h in moved_windows(ctx.H, word_footprint(ctx, word * k)):
        if len(ones) == 2:
            legality = pair_legality(ctx.G, ctx.oracle, *ones)
            if legality.kind == "unknown":
                raise OrderNeedsOracle(legality.distance + 1)
            if not legality:  # the window is not in the subshift
                continue
        multipliers.append(h)
    out = 1
    for h in multipliers:
        out = math.lcm(out, groups.element_order(ctx.H, h, cap))
    if k * out > cap:
        raise CapExceededError(cap)
    return k * out


def quotient_check(ctx_small, ctx_large, word):
    """Monotonicity probe: enlarging A never destroys identities.

    ctx_small's constraint set must be contained in ctx_large's
    (letterwise <= on equal-length prefixes) and both must decide the
    word.  Returns False only on a violation: identity under the smaller
    set but not under the larger.
    """
    if (ctx_small.G.name, ctx_small.H.name) != (ctx_large.G.name, ctx_large.H.name):
        raise ContextError("quotient probe needs matching group kinds")
    if not ctx_small.oracle.letterwise_le(ctx_large.oracle):
        raise ValueError("first oracle must be letterwise <= the second")
    small = wp_k(ctx_small, word)
    large = wp_k(ctx_large, word)
    if small.kind == "needs_oracle" or large.kind == "needs_oracle":
        raise PrefixTooShortError(2 * len(word) + 1, len(ctx_small.oracle))
    return not (small.kind == "identity" and large.kind == "non_identity")


class SweepReport(NamedTuple):
    """Outcome of replaying a word power over every legal window."""

    patterns_checked: int
    fixes_all: bool
    failure_ones: tuple | None = None


def sweep_power_identity(ctx, word, exponent, radius, max_patterns):
    """Check that word**exponent fixes (P, e) for every legal radius-`radius` window.

    Replays the full power's multiplier reads against every window of
    `subshift.legal_windows`, in canonical order; the oracle must cover
    distances up to 2 * radius.  Returns None when the window count would
    exceed max_patterns.
    """
    # grow the ball one radius at a time so oversized sweeps are skipped
    # before the full ball is materialised
    for r in range(radius + 1):
        size = ctx.G.ball_size(r)
        if 1 + size + size * (size - 1) // 2 > max_patterns:
            return None
    reads = word_footprint(ctx, word * exponent)
    if reads is None:
        return SweepReport(0, False, failure_ones=None)
    h = ctx.H
    for checked, ones in enumerate(legal_windows(ctx.G, ctx.oracle, radius), 1):
        if not h.is_identity_element(read_multiplier(h, reads, ones)):
            return SweepReport(checked, False, failure_ones=ones)
    return SweepReport(checked, True)
