"""The distance-constrained subshift: patterns, legality, enumeration.

Configurations carry at most two 1s, and when there are exactly two, the
word-metric distance between their cells must avoid a set A of naturals.
A is always supplied as a finite 0/1 prefix of its characteristic
sequence, so legality of a window is decidable exactly when the prefix is
long enough to see the relevant distance.

A pattern is a window over a canonical ball of the group, stored as the
ball indices of its at most two 1s; every other cell holds 0.  A ball
index addresses the same cell in every pattern of the same radius, and
balls are prefixes of each other, so a window is checked and read
without building the ball past its largest index.

Windows have one canonical order: the zero window, single 1s by ball
index, then pairs lexicographically.  `windows_with_ones` is the one
lister of that order over a set of cells, the zero window included;
`legal_windows` runs it over a whole ball, keeping the pairs
`pair_legality` allows, whose distance comes from the two ball
indices.  The language and the machine group's window scans all read
these two.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from . import groups
from .errors import PrefixTooShortError


class OraclePrefix:
    """A finite prefix of the characteristic sequence of a set of naturals.

    Immutable and compared by value; its text is checked to be 0/1 on
    construction.
    """

    __slots__ = ("bits",)

    def __init__(self, bits):
        if bits.count("0") + bits.count("1") != len(bits):
            raise ValueError("oracle prefix must consist of 0/1 characters")
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self):
        return f"OraclePrefix(bits={self.bits!r})"

    def __eq__(self, other):
        if type(other) is not OraclePrefix:
            return NotImplemented
        return self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def __len__(self):
        return len(self.bits)

    def bit(self, i):
        """0/1 inside the prefix, None beyond it."""
        if 0 <= i < len(self.bits):
            return int(self.bits[i])
        return None

    def members(self):
        out = []
        i = self.bits.find("1")
        while i >= 0:
            out.append(i)
            i = self.bits.find("1", i + 1)
        return out

    def letterwise_le(self, other):
        """u <= v bitwise; both prefixes must have equal length."""
        if len(self.bits) != len(other.bits):
            raise ValueError("letterwise comparison needs equal lengths")
        return all(a <= b for a, b in zip(self.bits, other.bits))

    def extends(self, shorter):
        return self.bits.startswith(shorter.bits)

    @classmethod
    def zeros(cls, length):
        return cls("0" * length)

    @classmethod
    def from_members(cls, members, length):
        bits = ["0"] * length
        for m in members:
            if 0 <= m < length:
                bits[m] = "1"
        return cls("".join(bits))


class Pattern:
    """A 0/1 window over the canonical ball of a given radius.

    `ones` holds the sorted ball indices of the cells that carry a 1, at
    most two of them; every other cell of the ball carries a 0.
    Immutable and compared by value.
    """

    __slots__ = ("ctx_name", "radius", "ones")

    def __init__(self, ctx_name, radius, ones):
        if len(ones) > 2:
            raise ValueError("patterns carry at most two 1s")
        object.__setattr__(self, "ctx_name", ctx_name)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "ones", ones)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self):
        return f"Pattern(ctx_name={self.ctx_name!r}, radius={self.radius!r}, ones={self.ones!r})"

    def _key(self):
        return (self.ctx_name, self.radius, self.ones)

    def __eq__(self, other):
        if type(other) is not Pattern:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def bits(self):
        """The cells the window stores: its 1s, the same tuple as `ones`."""
        return self.ones

    def value_at(self, index):
        return 1 if index in self.ones else 0


def make_pattern(ctx, radius, ones=()):
    """Pattern over ball(ctx, radius) with 1s at the given ball indices.

    Each index is checked by `GroupCtx.index_radius`, which grows the
    ball only until it holds the index, so a window over a ball too large
    to build is still made from small indices.
    """
    ones = tuple(sorted(set(ones)))
    if any(ctx.index_radius(i, radius) is None for i in ones):
        raise ValueError("one-position outside the ball")
    return Pattern(ctx.name, radius, ones)


class Legality(NamedTuple):
    kind: str  # "legal" | "illegal" | "unknown"
    distance: int | None = None

    def __bool__(self):
        return self.kind == "legal"


LEGAL = Legality("legal")


def pair_legality(ctx, prefix, i, j):
    """Classify the two-1 window with 1s at ball indices i < j, both
    already reached by the BFS: its distance |g_i^-1 g_j| comes from the
    two indices alone."""
    d = groups.index_distance(ctx, i, j)
    b = prefix.bit(d)
    if b is None:
        return Legality("unknown", d)
    return Legality("illegal", d) if b == 1 else LEGAL


def pattern_legal(ctx, prefix, pattern):
    """Classify a pattern against an oracle prefix.

    Illegal iff it has two 1s whose distance is a known member; unknown
    when the needed distance lies beyond the prefix; legal otherwise.
    """
    ones = pattern.ones
    if len(ones) < 2:
        return LEGAL
    if ctx.index_radius(ones[1], pattern.radius) is None:
        raise ValueError("one-position outside the ball")
    return pair_legality(ctx, prefix, *ones)


def windows_with_ones(cells):
    """The windows with 1s on sorted cells, as their ones, in canonical
    order: the zero window, single 1s by ball index, then pairs
    lexicographically.
    """
    singles = ((i,) for i in cells)
    return itertools.chain([()], singles, itertools.combinations(cells, 2))


def legal_windows(ctx, prefix, n):
    """The ones of every legal window over ball(n), in canonical order:
    `windows_with_ones` over the ball's indices with the illegal pairs
    left out.  Requires the prefix to determine every pairwise distance
    in the ball, i.e. |prefix| >= 2n + 1.  A prefix with no member up to
    2n makes every pair legal, and no distance is computed.
    """
    if len(prefix) < 2 * n + 1:
        raise PrefixTooShortError(2 * n + 1, len(prefix))
    all_legal = "1" not in prefix.bits[: 2 * n + 1]
    for ones in windows_with_ones(range(ctx.ball_size(n))):
        if all_legal or len(ones) < 2 or pair_legality(ctx, prefix, *ones):
            yield ones


def enumerate_language(ctx, prefix, n):
    """All legal patterns over the radius-n ball, in canonical order."""
    return [Pattern(ctx.name, n, ones) for ones in legal_windows(ctx, prefix, n)]


def forbidden_pattern_stream(ctx, member_iter, max_radius=None):
    """Stream the forbidden two-1 windows induced by an enumeration of A.

    Dovetails ball growth against the enumerator: at round R it pulls one
    more member (while any remain) and emits, for every member seen so
    far, all two-1 patterns over ball(R) whose distance equals that member
    and which were not emitted at a smaller radius.  Every forbidden
    window over any ball is eventually produced; the stream is infinite
    unless max_radius is given (it stops after that round).
    """
    member_iter = iter(member_iter)
    known = []  # (member value, radius already swept)
    exhausted = False
    radius = 0
    while True:
        radius += 1
        if max_radius is not None and radius > max_radius:
            return
        if not exhausted:
            try:
                known.append([next(member_iter), 0])
            except StopIteration:
                exhausted = True
        if exhausted and not known:
            return
        size = ctx.ball_size(radius)
        if (
            exhausted
            and size == ctx.ball_size(radius - 1)
            and all(swept >= radius - 1 for _, swept in known)
        ):
            return  # finite group fully swept for every known member
        for entry in known:
            a, swept = entry
            # new pairs only: at least one endpoint entered at a radius
            # beyond this member's last sweep
            lo = ctx.ball_size(swept)
            for j in range(lo, size):
                for i in range(j):
                    if groups.index_distance(ctx, i, j) == a:
                        yield make_pattern(ctx, radius, (i, j))
            entry[1] = radius


def pattern_record(pattern):
    """Serialisable form: the ball indices of the 1s against a named ball."""
    return {"ctx": pattern.ctx_name, "radius": pattern.radius, "ones": list(pattern.ones)}
