"""Multi-head walking automata on configurations over G x Z.

A spec has k heads, each with a finite state set, a visibility radius r,
and an ordered rule table.  Heads sit on cells of G x Z; per step each
head observes the 0/1 symbols on the radius-r ball around it, its own
state, and the relative offsets and states of other heads within range,
then moves by one generator of G x Z (or stays) and switches state.  All
heads move simultaneously; the symbol layer is never written; heads are
never created or destroyed.

Another head at (g', z') is within range of a head at (g, z) when
|g^-1 g'| <= radius - |z' - z|, the G-norm of the relative offset
measured in the word metric.  The canonical backend answers this with
the context's `norm_at_most`: |n| in Z, the factors' norms in a
product, otherwise one lookup in the BFS index against the end of the
radius ball.  The oracle backend scans the ball words of that norm bound
in ball order, because the order of its word-problem queries decides
which index it asks first.
Rule entries are dispatched by (head, state): each spec indexes, on first
use, the entries that can fire for a head in a state, in table order, so
a step tests only those.

Initial and final head layouts are given as finite sets of arrangements
anchored at a cell: per head an (offset, state) slot, where offsets stay
within the radius.  Final arrangements may leave heads unconstrained
(a slot of null), since rejection only has to pin down the heads that
matter inside a finite window.

Runs on the periodic configurations (1s exactly on cells whose Z
coordinate is divisible by p) need only p starting phases; membership
testing sweeps them all.  The engine never looks inside a head position.
A backend supplies the start, moves by a generator or a word, equality,
the in-range test, `element` (the G-element at a position, for
finite-support reads and traces) and, when it declares `exact_relative`,
`relative` (g^-1 g', equal exactly when the group elements are).  The
canonical backend declares it, so a periodic run stops at the first
repeat of its head layout: head 0's z mod p and, per head, g0^-1 g,
z - z0 and the state.  That layout decides the rest of the run exactly,
because reads depend on z mod p alone, every test compares heads
relative to each other, and moves multiply on the right, so translating
all heads on the left by G x pZ changes nothing.  A repeat thus proves
"no rejection within the cap" without stepping to it.

For prediction-by-oracle, the oracle backend keeps head positions as
unevaluated words over G's generators and resolves every G-equality
through a prefix of the linearised word problem; queries beyond the
prefix surface as a typed result.  It declares no exact `relative`, so
its runs, like runs on finite-support configurations, step to the cap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import groups
from .errors import OracleExhausted, SpecificationError


@dataclass(frozen=True)
class Offset:
    """A cell displacement: a G-word and a Z step count."""

    g_word: tuple
    dz: int

    def norm_bound(self, ctx):
        return ctx.norm(groups.evaluate_word(ctx, self.g_word)) + abs(self.dz)


@dataclass(frozen=True)
class PatchCheck:
    offset: Offset
    bit: int


@dataclass(frozen=True)
class OtherCheck:
    """Constraint on some other head within range: any field may be None."""

    head: int | None
    offset: Offset | None
    state: str | None


@dataclass(frozen=True)
class RuleEntry:
    """One row of the table; None fields match anything.  First match wins."""

    head: int | None
    state: str | None
    patch: tuple | None  # PatchChecks, all must hold
    others: tuple | None  # OtherChecks, each must be met by some other head
    move: str  # "stay" | "z+1" | "z-1" | "g:<sym>"
    next_state: str


@dataclass(frozen=True)
class Slot:
    offset: Offset
    state: str


class AutomatonSpec:
    """Validated automaton: states, radius, rule table, initial/final layouts."""

    def __init__(self, g_ctx, heads, radius, states, rule, initial, final):
        self.G = g_ctx
        self.heads = heads
        self.radius = radius
        self.states = tuple(tuple(s) for s in states)
        self.rule = tuple(rule)
        self.initial = tuple(initial)
        self.final = tuple(final)
        self._validate()
        self._entries = {}  # (head, state) -> entries that can fire, table order

    def entries_for(self, head, state):
        """The rule entries whose head and state fields admit (head, state),
        in table order; built on first use, so undeclared states work too."""
        found = self._entries.get((head, state))
        if found is None:
            found = self._entries[head, state] = tuple(
                e for e in self.rule
                if e.head in (None, head) and e.state in (None, state)
            )
        return found

    def _validate(self):
        if self.heads < 1:
            raise ValueError("need at least one head")
        if len(self.states) != self.heads:
            raise ValueError("one state set per head required")
        for qs in self.states:
            if not qs:
                raise ValueError("empty state set")
        for entry in self.rule:
            if entry.head is not None and not 0 <= entry.head < self.heads:
                raise ValueError(f"rule entry for unknown head {entry.head}")
            if entry.move not in ("stay", "z+1", "z-1"):
                kind, _, sym = entry.move.partition(":")
                if kind != "g":
                    raise ValueError(f"bad move {entry.move!r}")
                self.G.generator_element(sym)
            for pc in entry.patch or ():
                if pc.offset.norm_bound(self.G) > self.radius:
                    raise ValueError("patch constraint outside the radius")
            for oc in entry.others or ():
                if oc.offset is not None and oc.offset.norm_bound(self.G) > self.radius:
                    raise ValueError("other-head constraint outside the radius")
        for arr in self.initial:
            if len(arr) != self.heads or any(slot is None for slot in arr):
                raise ValueError("initial arrangements must place every head")
            self._check_arrangement(arr)
        for arr in self.final:
            if len(arr) != self.heads:
                raise ValueError("final arrangements must list every head slot")
            if all(slot is None for slot in arr):
                raise ValueError("a final arrangement must constrain some head")
            self._check_arrangement(arr)

    def _check_arrangement(self, arr):
        for i, slot in enumerate(arr):
            if slot is None:
                continue
            if slot.offset.norm_bound(self.G) > self.radius:
                raise ValueError("arrangement offset outside the radius")
            if slot.state not in self.states[i]:
                raise ValueError(f"state {slot.state!r} not declared for head {i}")

    # -- serialisation ----------------------------------------------------

    @classmethod
    def from_json(cls, text):
        data = json.loads(text) if isinstance(text, str) else text
        # shape checks for what the build below would index blindly
        if not isinstance(data, dict) or not isinstance(data.get("group"), str):
            raise TypeError("a spec is a JSON object whose group is a string")
        if not data.get("initial"):
            raise ValueError("a spec needs at least one initial arrangement")
        g_ctx = groups.group_context(data["group"])

        def off(raw):
            if not (isinstance(raw, list) and len(raw) == 2 and isinstance(raw[0], str)):
                raise TypeError(f"expected an offset [word, dz], got {raw!r}")
            word = tuple(raw[0].split()) if raw[0] else ()
            return Offset(word, int(raw[1]))

        def obj(raw):  # a rule entry or an other-head check
            if not isinstance(raw, dict):
                raise TypeError(f"expected a JSON object, got {raw!r}")
            return raw

        rule = []
        for e in map(obj, data["rule"]):
            patch = None
            if e.get("patch") is not None:
                patch = tuple(PatchCheck(off(c[0]), int(c[1])) for c in e["patch"])
            others = None
            if e.get("others") is not None:
                others = tuple(
                    OtherCheck(
                        c.get("head"),
                        off(c["offset"]) if c.get("offset") is not None else None,
                        c.get("state"),
                    )
                    for c in map(obj, e["others"])
                )
            rule.append(RuleEntry(e.get("head"), e.get("state"), patch, others,
                                  e["move"], e["next"]))

        def arrangement(raw):
            return tuple(None if slot is None else Slot(off(slot["offset"]), slot["state"])
                         for slot in raw)

        return cls(
            g_ctx,
            int(data["heads"]),
            int(data["radius"]),
            [tuple(s) for s in data["states"]],
            rule,
            [arrangement(a) for a in data["initial"]],
            [arrangement(a) for a in data["final"]],
        )

    def to_json(self):
        def off(o):
            return [" ".join(o.g_word), o.dz]

        def arrangement(arr):
            return [None if s is None else {"offset": off(s.offset), "state": s.state}
                    for s in arr]

        data = {
            "group": self.G.name,
            "heads": self.heads,
            "radius": self.radius,
            "states": [list(s) for s in self.states],
            "rule": [
                {
                    "head": e.head,
                    "state": e.state,
                    "patch": None
                    if e.patch is None
                    else [[off(pc.offset), pc.bit] for pc in e.patch],
                    "others": None
                    if e.others is None
                    else [
                        {
                            "head": oc.head,
                            "offset": None if oc.offset is None else off(oc.offset),
                            "state": oc.state,
                        }
                        for oc in e.others
                    ],
                    "move": e.move,
                    "next": e.next_state,
                }
                for e in self.rule
            ],
            "initial": [arrangement(arr) for arr in self.initial],
            "final": [arrangement(arr) for arr in self.final],
        }
        return json.dumps(data, indent=2, sort_keys=True)


# -- configurations ----------------------------------------------------------


@dataclass(frozen=True)
class PeriodicConfig:
    """1 exactly on cells (g, n) with n divisible by the period."""

    period: int

    def value(self, z):
        return 1 if z % self.period == 0 else 0

    def read(self, backend, g_pos, word, z):
        """The bit at (g_pos word, z); it depends on z alone."""
        return self.value(z)


class FiniteSupportConfig:
    """1 exactly on an explicit finite set of (G-element, z) cells, read
    through `backend.element`, which the oracle backend refuses."""

    def __init__(self, cells):
        self.cells = frozenset(cells)

    def value_at(self, g_elem, z):
        return 1 if (g_elem, z) in self.cells else 0

    def read(self, backend, g_pos, word, z):
        """The bit at (g_pos word, z)."""
        return self.value_at(backend.element(backend.apply_word(g_pos, word)), z)


def make_xp(p):
    """The period-p test configuration (p >= 1)."""
    if p < 1:
        raise ValueError("period must be >= 1")
    return PeriodicConfig(p)


# -- position arithmetic backends --------------------------------------------


class CanonicalBackend:
    """Positions carry canonical G-elements; equality is group equality.

    A backend is all the engine knows of positions: `start`, `apply_gen`,
    `apply_word`, `equal`, `within`, `element` and, when `exact_relative`
    holds, `relative`, whose values are equal exactly when the group
    elements a^-1 b are, so `run` may cut on layouts built from it."""

    exact_relative = True

    def __init__(self, ctx):
        self.ctx = ctx

    def start(self):
        return self.ctx.identity()

    def apply_gen(self, pos, sym):
        return self.ctx.multiply_raw(pos, self.ctx.generator_element(sym))

    def apply_word(self, pos, word):
        return self.ctx.multiply_raw(pos, groups.evaluate_word(self.ctx, word))

    def relative(self, a, b):
        return self.ctx.multiply_raw(self.ctx.inverse(a), b)

    def equal(self, a, b):
        return a == b

    def within(self, a, b, budget):
        """Is |a^-1 b| <= budget?  The context's `norm_at_most`, no ball scan."""
        return self.ctx.norm_at_most(self.relative(a, b), budget)

    def element(self, pos):
        return pos


class OracleBackend:
    """Positions carry unevaluated G-words; equality goes through a prefix
    of the linearised word problem and raises OracleExhausted past it.
    Words name no canonical element, and cutting on them would change the
    queries, so it has no `relative` and refuses `element`."""

    exact_relative = False

    def __init__(self, ctx, prefix):
        self.ctx = ctx
        self.prefix = prefix
        self._ball_words = {}  # norm bound -> ball words, in ball order

    def start(self):
        return ()

    def apply_gen(self, pos, sym):
        return pos + (sym,)

    def apply_word(self, pos, word):
        return pos + tuple(word)

    def equal(self, a, b):
        query = groups.inverse_word(self.ctx, a) + b
        index = groups.word_index(self.ctx, query)
        bit = self.prefix.bit(index)
        if bit is None:
            raise OracleExhausted(index)
        return bit == 1

    def within(self, a, b, budget):
        """Is b = a w for some ball word w of norm <= budget?  Asks the
        oracle word by word in ball order and stops at the first yes."""
        words = self._ball_words.get(budget)
        if words is None:
            words = self._ball_words[budget] = groups.ball_words(self.ctx, budget)
        return any(self.equal(b, self.apply_word(a, w)) for w in words)

    def element(self, pos):
        raise ValueError("finite-support configurations need the canonical engine")


# -- run engine ---------------------------------------------------------------


@dataclass(frozen=True)
class Head:
    g: object  # backend position representation
    z: int
    state: str


@dataclass(frozen=True)
class RunState:
    heads: tuple
    step: int


def place(spec, arrangement, backend, anchor_z=0):
    """Instantiate an initial arrangement at the cell (e, anchor_z)."""
    anchor_g = backend.start()
    heads = []
    for slot in arrangement:
        heads.append(
            Head(
                backend.apply_word(anchor_g, slot.offset.g_word),
                anchor_z + slot.offset.dz,
                slot.state,
            )
        )
    return RunState(tuple(heads), 0)


def in_final(spec, rs, backend):
    """Does the current head layout realise some final arrangement?"""
    for arr in spec.final:
        pivot = next(i for i, slot in enumerate(arr) if slot is not None)
        slot = arr[pivot]
        head = rs.heads[pivot]
        if head.state != slot.state:
            continue
        # anchor = head position shifted back by the slot offset
        anchor_g = backend.apply_word(
            head.g, groups.inverse_word(spec.G, slot.offset.g_word)
        )
        anchor_z = head.z - slot.offset.dz
        ok = True
        for j, other in enumerate(arr):
            if not ok:
                break
            if other is None or j == pivot:
                continue
            target_g = backend.apply_word(anchor_g, other.offset.g_word)
            h = rs.heads[j]
            ok = (
                h.state == other.state
                and h.z == anchor_z + other.offset.dz
                and backend.equal(h.g, target_g)
            )
        if ok:
            return True
    return False


def _entry_matches(spec, entry, i, rs, config, backend):
    """Patch and other-head tests of an entry already picked for head i's state."""
    head = rs.heads[i]
    for pc in entry.patch or ():
        if config.read(backend, head.g, pc.offset.g_word, head.z + pc.offset.dz) != pc.bit:
            return False
    for oc in entry.others or ():
        if not _some_other_matches(spec, oc, i, rs, backend):
            return False
    return True


def _some_other_matches(spec, oc, i, rs, backend):
    head = rs.heads[i]
    for j, other in enumerate(rs.heads):
        if j == i:
            continue
        if oc.head is not None and oc.head != j:
            continue
        if oc.state is not None and oc.state != other.state:
            continue
        dz = other.z - head.z
        if abs(dz) > spec.radius:
            continue
        if oc.offset is not None:
            if dz != oc.offset.dz:
                continue
            target = backend.apply_word(head.g, oc.offset.g_word)
            if backend.equal(other.g, target):
                return True
        elif backend.within(head.g, other.g, spec.radius - abs(dz)):
            return True
    return False


def step(spec, config, rs, backend=None):
    """Advance every head one synchronous step (first matching rule entry)."""
    if backend is None:
        backend = CanonicalBackend(spec.G)
    decisions = []
    for i, head in enumerate(rs.heads):
        chosen = None
        for entry in spec.entries_for(i, head.state):
            if _entry_matches(spec, entry, i, rs, config, backend):
                chosen = entry
                break
        if chosen is None:
            raise SpecificationError(
                f"no rule entry for head {i} in state {head.state!r} at z={head.z}"
            )
        decisions.append(chosen)
    new_heads = []
    for head, entry in zip(rs.heads, decisions):
        g, z = head.g, head.z
        if entry.move == "z+1":
            z += 1
        elif entry.move == "z-1":
            z -= 1
        elif entry.move != "stay":
            g = backend.apply_gen(g, entry.move.partition(":")[2])
        new_heads.append(Head(g, z, entry.next_state))
    return RunState(tuple(new_heads), rs.step + 1)


@dataclass(frozen=True)
class RunResult:
    rejected: bool
    at_step: int | None = None
    arrangement: int | None = None

    @property
    def survived(self):
        return not self.rejected


def _layout(rs, period, backend):
    """The heads seen from head 0, up to translation by G x pZ: head 0's
    z mod p, then per head g0^-1 g, z - z0 and state."""
    g0, z0 = rs.heads[0].g, rs.heads[0].z
    return (z0 % period,) + tuple(
        (backend.relative(g0, h.g), h.z - z0, h.state) for h in rs.heads
    )


def run(spec, config, start_phase, steps, backend=None):
    """Run every initial arrangement from the cell (e, start_phase).

    Rejected at the earliest step at which any arrangement's heads
    realise a final arrangement (ties broken by arrangement order);
    Survived when none does within the step bound.

    On a periodic configuration, under a backend that declares
    `exact_relative`, an arrangement's run stops at its first repeated
    layout (`_layout`), found with Brent's power-of-two schedule as in
    `machines.run_program`.  The layout determines the rest of the run:
    a read depends on z mod p alone, rule tests and `in_final` see only
    relative offsets, relative z and states, and moves multiply on the
    right, which commutes with translating every head on the left.  So
    after a repeat every later step translates an earlier one that
    neither rejected nor lacked a rule, and the arrangement survives the
    bound without being stepped there.  Other backends and finite-support
    configurations (not translation-invariant) step to the bound.
    """
    if backend is None:
        backend = CanonicalBackend(spec.G)
    cut = backend.exact_relative and isinstance(config, PeriodicConfig)
    best = None
    for a_idx, arr in enumerate(spec.initial):
        rs = place(spec, arr, backend, start_phase)
        saved = None  # layout at the last power-of-two checkpoint
        power = lam = 1
        for n in range(steps + 1):
            if in_final(spec, rs, backend):
                if best is None or n < best[0]:
                    best = (n, a_idx)
                break
            if n == steps:
                break
            if cut:
                here = _layout(rs, config.period, backend)
                if here == saved:
                    break
                if lam == power:
                    saved = here
                    power *= 2
                    lam = 0
                lam += 1
            rs = step(spec, config, rs, backend)
    if best is None:
        return RunResult(False)
    return RunResult(True, at_step=best[0], arrangement=best[1])


@dataclass(frozen=True)
class MembershipResult:
    in_s: bool
    phase: int | None = None
    at_step: int | None = None


def membership_test(spec, p, step_cap, backend=None):
    """Sweep all p phases of the period-p configuration.

    A rejection witness means the configuration is outside the automaton's
    subshift; surviving every phase up to the cap is the semi-decision
    "not rejected within the cap".
    """
    config = make_xp(p)
    for phase in range(p):
        r = run(spec, config, phase, step_cap, backend)
        if r.rejected:
            return MembershipResult(False, phase=phase, at_step=r.at_step)
    return MembershipResult(True)


def trace_records(spec, config, start_phase, steps):
    """Trace from the first initial arrangement: (step, head, g-coord, z-coord, state, separation).

    Separation is the largest pairwise G-distance of the heads' elements
    (`backend.element`) at that step, repeated on each head's record.  The
    g-coordinate is `groups.format_element`: over Grigorchuk, the head's
    ball word, which grows that group's BFS to the head's norm.
    """
    backend = CanonicalBackend(spec.G)
    rs = place(spec, spec.initial[0], backend, start_phase)
    records = []
    for n in range(steps + 1):
        elems = [backend.element(head.g) for head in rs.heads]
        worst = max((groups.distance(spec.G, g, h)
                     for i, g in enumerate(elems) for h in elems[i + 1:]), default=0)
        for i, (head, g) in enumerate(zip(rs.heads, elems)):
            records.append(
                (n, i, groups.format_element(spec.G, g), head.z, head.state, worst)
            )
        if n < steps:
            rs = step(spec, config, rs, backend)
    return records


@dataclass(frozen=True)
class PredictorResult:
    kind: str  # "halted" | "running" | "oracle_exhausted"
    phase: int | None = None
    at_step: int | None = None
    query_index: int | None = None

    @property
    def halted(self):
        return self.kind == "halted"


def predictor(spec, p, oracle_prefix, step_cap):
    """Membership sweep with all G-arithmetic answered by a word-problem prefix.

    Takes a three-headed spec (the head count the prediction argument is
    about), simulates every phase of the period-p configuration, and halts
    iff some run rejects within the cap.  A query beyond the prefix stops
    the sweep with a typed result carrying the first out-of-range index.
    """
    if spec.heads != 3:
        raise ValueError("the predictor drives three-headed automata")
    backend = OracleBackend(spec.G, oracle_prefix)
    try:
        out = membership_test(spec, p, step_cap, backend)
    except OracleExhausted as exc:
        return PredictorResult("oracle_exhausted", query_index=exc.index)
    if out.in_s:
        return PredictorResult("running")
    return PredictorResult("halted", phase=out.phase, at_step=out.at_step)


def probe_word_is_identity(handle, p, g_ctx):
    """Is the probe map's target word for input p the identity of G?

    Decodes position handle.position_of(p) through the length-lex word
    enumeration and asks the group.  Periodic configurations with period p
    belong to the probed subshift exactly when this holds.
    """
    word = groups.enumerate_words(g_ctx, handle.position_of(p))
    return groups.is_identity(g_ctx, word)
