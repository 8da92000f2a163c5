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
window it moves has its distance inside A.  `word_footprint` extracts
that data once per word (it is independent of A), and the word-problem,
conjunctive-reduction and order operations all reuse it.  The literal
single-pattern interpreter `act` is kept separate so tests can replay
actions window by window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import groups
from .errors import (
    ContextError,
    OracleShortageError,
    PrefixTooShortError,
    UnknownGeneratorError,
)
from .subshift import OraclePrefix, Pattern, make_pattern


@dataclass(frozen=True)
class KGen:
    """One generator: kind "S" with a G-symbol, or kind "M" with an H-symbol and a bit."""

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
        self._tokens = tuple(g.token() for g in self.generators)
        self.name = f"K({g_ctx.name}, {h_ctx.name})"

    def with_oracle(self, oracle):
        other = KContext(self.G, self.H, oracle)
        return other

    def inverse_gen(self, kg):
        if kg.kind == "S":
            return KGen("S", self.G.inverse_symbol(kg.sym))
        return KGen("M", self.H.inverse_symbol(kg.sym), kg.bit)

    def invert_word(self, word):
        return tuple(self.inverse_gen(g) for g in reversed(word))

    def __repr__(self):
        return f"<{self.name}, |oracle|={len(self.oracle)}>"


def make_kcontext(g_id="Z", h_id="S3", oracle_bits=""):
    return KContext(
        groups.group_context(g_id),
        groups.group_context(h_id),
        OraclePrefix(oracle_bits),
    )


def parse_kword(ctx, text):
    """Whitespace-separated S:g / M:h:b tokens -> word."""
    word = []
    for tok in text.split():
        parts = tok.split(":")
        if parts[0] == "S" and len(parts) == 2:
            ctx.G.generator_element(parts[1])
            word.append(KGen("S", parts[1]))
        elif parts[0] == "M" and len(parts) == 3 and parts[2] in ("0", "1"):
            ctx.H.generator_element(parts[1])
            word.append(KGen("M", parts[1], int(parts[2])))
        else:
            raise UnknownGeneratorError(f"bad machine-group token {tok!r}")
    return tuple(word)


def format_kword(word):
    return " ".join(g.token() for g in word) if word else "e"


def gamma(word):
    """Erase multipliers: the word's image in the walking group, as a G-word."""
    return tuple(g.sym for g in word if g.kind == "S")


def section(g_word):
    """Lift a G-word letterwise to shifts; gamma(section(v)) == v."""
    return tuple(KGen("S", s) for s in g_word)


@dataclass(frozen=True)
class ActResult:
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
            and ctx.H.key(self.state) == ctx.H.key(state)
        )


def act(ctx, word, pattern, state):
    """Apply a word to (pattern, state), rightmost generator first.

    Reads the pattern through the accumulated shift; reads that fall
    outside the pattern's domain leave the state untouched.
    """
    index = groups.ball_index_map(ctx.G, pattern.radius)
    t = ctx.G.identity()
    h = state
    for kg in reversed(word):
        if kg.kind == "S":
            t = ctx.G.multiply_raw(ctx.G.generator_element(kg.sym), t)
        else:
            cell = index.get(ctx.G.key(ctx.G.inverse(t)))
            if cell is not None and pattern.bits[cell] == kg.bit:
                h = ctx.H.multiply_raw(ctx.H.generator_element(kg.sym), h)
    return ActResult(pattern, t, h)


# -- word footprint: the A-independent part of the word problem -----------


@dataclass(frozen=True)
class WordFootprint:
    """What a word with trivial shift image can do to a window.

    `reads` replays the multiplier reads in action order as
    (ball index, bit, H-element); `visited` is the sorted set of read
    positions.  The state multiplier for any window depends only on the
    window's values at `visited`.  `radius` is the conventional pattern
    domain |word|; `visited_radius` is the largest norm actually read,
    which bounds the ball needed to resolve the indices.
    """

    radius: int
    visited_radius: int
    reads: tuple
    visited: tuple

    def multiplier(self, ctx, ones):
        """H-element applied to the state for a window with 1s at `ones`."""
        h = ctx.H.identity()
        for cell, bit, elem in self.reads:
            value = 1 if cell in ones else 0
            if value == bit:
                h = ctx.H.multiply_raw(elem, h)
        return h


@dataclass(frozen=True)
class WordAnalysis:
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


_footprint_cache = {}
_analysis_cache = {}
_CACHE_WORD_LIMIT = 64


def word_footprint(ctx, word):
    """Replay the word once and record its multiplier reads.

    Only valid for classifying words whose shift image is trivial, but
    computable for any word.  Reads land inside ball(|word|); the ball is
    grown only as far as the reads actually reach, so words that cycle
    through a small region stay cheap however long they are.
    """
    cache_key = (ctx.G.name, ctx.H.name, word) if len(word) <= _CACHE_WORD_LIMIT else None
    if cache_key is not None and cache_key in _footprint_cache:
        return _footprint_cache[cache_key]
    g = ctx.G
    t = g.identity()
    raw = []  # (position key, bit, H-element)
    visited_radius = 0
    for kg in reversed(word):
        if kg.kind == "S":
            t = g.multiply_raw(g.generator_element(kg.sym), t)
        else:
            pos = g.inverse(t)
            key = g.key(pos)
            visited_radius = max(visited_radius, g._norm_of_key(key))
            raw.append((key, kg.bit, ctx.H.generator_element(kg.sym)))
    index = groups.ball_index_map(g, visited_radius)
    reads = tuple((index[key], bit, elem) for key, bit, elem in raw)
    fp = WordFootprint(
        len(word),
        visited_radius,
        reads,
        tuple(sorted({r[0] for r in reads})),
    )
    if cache_key is not None:
        _footprint_cache[cache_key] = fp
    return fp


def analyze_word(ctx, word):
    """Classify a word as shift-nontrivial, freely moving, or conjunctive."""
    cache_key = (ctx.G.name, ctx.H.name, word) if len(word) <= _CACHE_WORD_LIMIT else None
    if cache_key is not None and cache_key in _analysis_cache:
        return _analysis_cache[cache_key]
    out = _analyze_uncached(ctx, word)
    if cache_key is not None:
        _analysis_cache[cache_key] = out
    return out


def _analyze_uncached(ctx, word):
    g_word = gamma(word)
    if not groups.is_identity(ctx.G, g_word):
        return WordAnalysis("shift", len(word), gamma_word=g_word)
    fp = word_footprint(ctx, word)
    e_h = ctx.H.key(ctx.H.identity())
    if ctx.H.key(fp.multiplier(ctx, frozenset())) != e_h:
        return WordAnalysis("moves_free", fp.radius, witness_ones=())
    for v in fp.visited:  # ascending ball index = canonical single order
        if ctx.H.key(fp.multiplier(ctx, frozenset((v,)))) != e_h:
            return WordAnalysis("moves_free", fp.radius, witness_ones=(v,))
    elems = groups.ball(ctx.G, fp.visited_radius)
    requirements = []
    for a in range(len(fp.visited)):
        for b in range(a + 1, len(fp.visited)):
            i, j = fp.visited[a], fp.visited[b]
            if ctx.H.key(fp.multiplier(ctx, frozenset((i, j)))) != e_h:
                d = groups.distance(ctx.G, elems[i], elems[j])
                requirements.append((d, (i, j)))
    requirements.sort(key=lambda item: item[1])  # canonical pair order
    return WordAnalysis("conjunctive", fp.radius, requirements=tuple(requirements))


# -- word problem ----------------------------------------------------------


@dataclass(frozen=True)
class WpResult:
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

    @property
    def is_identity(self):
        return self.kind == "identity"


def wp_k(ctx, word):
    """Decide whether a word is the identity, given the context's oracle.

    The oracle is consulted only for the distances of two-1 windows the
    word actually moves, so short prefixes decide long words whenever the
    moved windows are few; an undecidable query yields a typed
    needs_oracle result, never an error.
    """
    analysis = analyze_word(ctx, word)
    if analysis.kind == "shift":
        return WpResult("non_identity", gamma_witness=analysis.gamma_word)
    if analysis.kind == "moves_free":
        return WpResult(
            "non_identity",
            pattern_witness=make_pattern(ctx.G, analysis.radius, analysis.witness_ones),
        )
    unresolved = []
    for d, pair in analysis.requirements:
        bit = ctx.oracle.bit(d)
        if bit is None:
            unresolved.append(d)
        elif bit == 0:
            return WpResult(
                "non_identity",
                pattern_witness=make_pattern(ctx.G, analysis.radius, pair),
            )
    if unresolved:
        return WpResult("needs_oracle", needed_length=max(unresolved) + 1)
    return WpResult("identity")


# -- embedding a set membership question into the word problem ------------


def _noncommuting_pair(h_ctx):
    """First ordered pair (h, h') of generator symbols with h'h != hh'."""
    for h in h_ctx.generators:
        for hp in h_ctx.generators:
            a = h_ctx.multiply_raw(
                h_ctx.generator_element(hp), h_ctx.generator_element(h)
            )
            b = h_ctx.multiply_raw(
                h_ctx.generator_element(h), h_ctx.generator_element(hp)
            )
            if h_ctx.key(a) != h_ctx.key(b):
                return h, hp
    raise ContextError(f"{h_ctx.name} is abelian; embedding needs a noncommuting pair")


def probe_shift_word(ctx, n):
    """The canonical norm-n element used by the embedding, as a G-word."""
    words = groups.sphere_words(ctx.G, n)
    if not words:
        raise ValueError(f"no element of norm exactly {n} in {ctx.G.name}")
    return words[0]


def embed_element(ctx, n):
    """A word that is the identity iff n belongs to A (n >= 1).

    Commutator of a bit-1 multiplier with a shifted bit-1 multiplier: it
    can only fire on windows with 1s at both the origin and a cell at
    distance n, so its sole distance requirement is n itself.  Length is
    4n + 4.
    """
    if n < 1:
        raise ValueError("embedding is defined for n >= 1")
    h, hp = _noncommuting_pair(ctx.H)
    g_word = probe_shift_word(ctx, n)
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
    toks = groups.lenlex_decode(ctx._tokens, index)
    return parse_kword(ctx, " ".join(toks))


def kword_index(ctx, word):
    return groups.lenlex_index(ctx._tokens, tuple(g.token() for g in word))


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


def conj_bit(ctx, prefix, index):
    """Single output bit of the reduction, computed lazily.

    1 when the word is the identity under every A extending the prefix,
    0 when it is not the identity under any of them, None when the prefix
    does not decide.
    """
    return conj_word_bit(ctx, prefix, kword_from_index(ctx, index))


def conj_word_bit(ctx, prefix, word):
    """conj_bit for the word itself rather than its length-lex index."""
    analysis = analyze_word(ctx, word)
    if analysis.kind != "conjunctive":
        return 0
    undecided = False
    for d, _ in analysis.requirements:
        bit = prefix.bit(d)
        if bit == 0:
            return 0
        if bit is None:
            undecided = True
    return None if undecided else 1


def conj_reduction(ctx, prefix):
    """Translate an A-prefix into a word-problem prefix of the machine group.

    Bit i concerns the i-th word in length-lex order: it is 1 iff the
    word's shift image is trivial, no zero-or-one-1 window moves, and
    every moved two-1 window has its distance flagged in the prefix.  The
    output covers exactly the words guaranteed decidable by the uniform
    length bound, which makes the output length exponential in the input
    length.  The map is monotone: flagging more distances can only turn
    0s into 1s.
    """
    width = reduction_width(ctx, len(prefix))
    bits = []
    for i in range(width):
        word = kword_from_index(ctx, i)
        b = conj_word_bit(ctx, prefix, word)
        if b is None:  # cannot happen inside the uniform bound
            raise PrefixTooShortError(2 * len(word) + 1, len(prefix))
        bits.append("1" if b else "0")
    return OraclePrefix("".join(bits))


@dataclass(frozen=True)
class ConjWitness:
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
    k * |word|.  Restricting to windows supported on the visited cells is
    exhaustive because unread cells cannot change the multiplier.  The
    state group must be torsion; the walking group may be anything whose
    element orders are decidable under the cap.
    """
    if not ctx.H.is_torsion():
        raise ValueError("order_k needs a torsion state group")
    g_elem = groups.evaluate_word(ctx.G, gamma(word))
    k = groups.element_order(ctx.G, g_elem, cap)
    if k is groups.INFINITE:
        return groups.INFINITE
    fp = word_footprint(ctx, word * k)
    elems = groups.ball(ctx.G, fp.visited_radius)
    multipliers = [fp.multiplier(ctx, frozenset())]
    for v in fp.visited:
        multipliers.append(fp.multiplier(ctx, frozenset((v,))))
    for a in range(len(fp.visited)):
        for b in range(a + 1, len(fp.visited)):
            i, j = fp.visited[a], fp.visited[b]
            h = fp.multiplier(ctx, frozenset((i, j)))
            if ctx.H.key(h) == ctx.H.key(ctx.H.identity()):
                continue
            d = groups.distance(ctx.G, elems[i], elems[j])
            bit = ctx.oracle.bit(d)
            if bit is None:
                raise OrderNeedsOracle(d + 1)
            if bit == 0:  # the window exists in the subshift
                multipliers.append(h)
    out = 1
    for h in multipliers:
        out = math.lcm(out, groups.element_order(ctx.H, h, cap))
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


def left_multiplier(ctx, word, pattern):
    """The state multiplier of a shift-trivial word on a full window."""
    fp = word_footprint(ctx, word)
    if pattern.radius < fp.radius:
        raise ValueError("pattern radius too small for this word")
    return fp.multiplier(ctx, frozenset(pattern.ones))


@dataclass(frozen=True)
class SweepReport:
    """Outcome of replaying a word power over every legal window."""

    patterns_checked: int
    fixes_all: bool
    failure_ones: tuple | None = None


def sweep_power_identity(ctx, word, exponent, radius, max_patterns):
    """Check that word**exponent fixes (P, e) for every legal radius-`radius` window.

    Replays the full power's multiplier reads against the all-zero window,
    every single-1 window, and every legal two-1 window, in canonical
    order.  Zero-member oracles take the all-legal fast path (every pair
    window embeds in the subshift); otherwise legality is settled per
    pair through the oracle, which must cover distances up to 2 * radius.
    Returns None when the window count would exceed max_patterns.
    """
    # grow the ball one radius at a time so oversized sweeps are skipped
    # before the full ball is materialised
    for r in range(radius + 1):
        size = len(groups.ball(ctx.G, r))
        if 1 + size + size * (size - 1) // 2 > max_patterns:
            return None
    elems = groups.ball(ctx.G, radius)
    size = len(elems)
    total = 1 + size + size * (size - 1) // 2
    if total > max_patterns:
        return None
    g_word = gamma(word) * exponent
    if not groups.is_identity(ctx.G, g_word):
        return SweepReport(0, False, failure_ones=None)
    fp = word_footprint(ctx, word * exponent)
    h = ctx.H
    e_key = h.key(h.identity())
    reads = fp.reads
    all_legal = not ctx.oracle.members() and len(ctx.oracle) >= 2 * radius + 1
    if not all_legal and len(ctx.oracle) < 2 * radius + 1:
        raise PrefixTooShortError(2 * radius + 1, len(ctx.oracle))

    def moved(ones):
        acc = h.identity()
        for cell, bit, elem in reads:
            if (1 if cell in ones else 0) == bit:
                acc = h.multiply_raw(elem, acc)
        return h.key(acc) != e_key

    checked = 1
    if moved(()):
        return SweepReport(checked, False, failure_ones=())
    for i in range(size):
        checked += 1
        if moved((i,)):
            return SweepReport(checked, False, failure_ones=(i,))
    for i in range(size):
        for j in range(i + 1, size):
            if not all_legal:
                d = groups.distance(ctx.G, elems[i], elems[j])
                if ctx.oracle.bit(d) == 1:
                    continue
            checked += 1
            if moved((i, j)):
                return SweepReport(checked, False, failure_ones=(i, j))
    return SweepReport(checked, True)
