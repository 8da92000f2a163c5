"""Counter machines, their enumeration, and the guess-defeating construction.

The machine model is a counter machine with an oracle tap: INC r,
DECJZ r label (decrement, or jump when zero), ORACLE r (store the oracle
bit addressed by register 0 into r), HALT.  Register 0 holds the input.
Oracle reads past the supplied prefix return 0 and taint the run, which
matches the construction below: it always hands a machine a prefix padded
with 0s out to the rate bound.

The construction itself walks stages.  Entering stage t, membership of
positions below m is already settled.  The stage enumerates all 2^m
candidate prefixes w_0 .. w_{2^m - 1}, picks fresh inputs p_0 < .. with
rate(p_i) >= m, declares everything in [m, M] a non-member
(M = max rate(p_i)), and reserves positions M + 1 + i whose membership is
tied to "machine number t halts on (p_i, w_i padded to rate(p_i) bits)".
Whichever candidate prefix turns out to be the true one, the stage hands
machine t one input where its halting behaviour coincides with
membership at the probed position.  The skeleton (stages, inputs,
positions, padded prefixes) never depends on halting behaviour, only on
the rate and the machine enumeration, so it is replayable; membership is
then approximated by running the reserved rules under a step cap, which
is monotone in the cap.  The approximation is exact for every rule whose
machine halts within the cap or repeats a configuration (pc, registers)
before it: a deterministic run that repeats one never halts, at any cap.
Only a run that neither halts nor repeats within the cap is a guess.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .automata import RepeatRecord
from .errors import BudgetExceededError, RateError
from .subshift import OraclePrefix

MAX_DECODED_REGISTER = 64


class ToyProgram:
    """A counter machine: tuple of instruction tuples, entry at index 0.

    Immutable and compared by its instructions; `register_count` is
    counted once, on construction.
    """

    __slots__ = ("instructions", "register_count")

    def __init__(self, instructions):
        regs = [0]
        for ins in instructions:
            if ins[0] in ("INC", "DECJZ", "ORACLE"):
                regs.append(ins[1])
        object.__setattr__(self, "instructions", instructions)
        object.__setattr__(self, "register_count", max(regs) + 1)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self):
        return f"ToyProgram(instructions={self.instructions!r})"

    def __eq__(self, other):
        if type(other) is not ToyProgram:
            return NotImplemented
        return self.instructions == other.instructions

    def __hash__(self):
        return hash(self.instructions)

    def to_text(self):
        lines = []
        for ins in self.instructions:
            lines.append(" ".join(str(x) for x in ins))
        return "\n".join(lines)


def parse_program(text):
    """Line-oriented program text -> ToyProgram (labels validated)."""
    instructions = []
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    for ln in lines:
        parts = ln.split()
        op = parts[0].upper()
        if op == "HALT" and len(parts) == 1:
            instructions.append(("HALT",))
        elif op == "INC" and len(parts) == 2:
            instructions.append(("INC", int(parts[1])))
        elif op == "ORACLE" and len(parts) == 2:
            instructions.append(("ORACLE", int(parts[1])))
        elif op == "DECJZ" and len(parts) == 3:
            instructions.append(("DECJZ", int(parts[1]), int(parts[2])))
        else:
            raise ValueError(f"bad instruction {ln!r}")
    prog = ToyProgram(tuple(instructions))
    _validate(prog)
    return prog


def _validate(prog):
    n = len(prog.instructions)
    for ins in prog.instructions:
        if ins[0] == "DECJZ" and not (0 <= ins[2] < n):
            raise ValueError(f"jump target {ins[2]} out of range")
        if ins[0] in ("INC", "DECJZ", "ORACLE") and ins[1] < 0:
            raise ValueError("negative register")
    return prog


HALT_PROGRAM = parse_program("HALT")
LOOP_PROGRAM = parse_program("DECJZ 1 0")  # r1 stays 0: jumps to itself forever
ORACLE_ECHO_PROGRAM = parse_program(
    """
    ORACLE 1
    DECJZ 1 3
    HALT
    DECJZ 2 3
    """
)  # halts iff the oracle bit addressed by the input is 1

BUILTIN_PROGRAMS = {
    "halt": HALT_PROGRAM,
    "loop": LOOP_PROGRAM,
    "echo": ORACLE_ECHO_PROGRAM,
}


class RunOutcome(NamedTuple):
    halted: bool
    steps: int
    tainted: bool  # an ORACLE read fell outside the prefix
    off_end: bool = False  # halted by running off the end of the code


def run_program(prog, input_value, oracle, step_cap):
    """Deterministic step-capped execution with loop detection.

    Halts when HALT executes or control runs off the end; otherwise
    reports Running at the cap.  Running off the end is noticed where the
    next step would start, so that halt needs a cap above its step count
    (`off_end`), while a HALT executed at step s halts under cap s.  The
    configuration (pc, registers) determines the rest of the run, because
    ORACLE reads the fixed prefix at the address in register 0.  So a
    repeat, looked for with a `RepeatRecord` at taken DECJZ jumps (the pc
    only grows between them), proves that the run never halts: it is
    reported as Running at the cap without stepping there, and its taint
    is exact, since every read after the repeat repeats an earlier one.
    """
    bits = oracle.bits if isinstance(oracle, OraclePrefix) else str(oracle)
    regs = [0] * prog.register_count
    regs[0] = input_value
    code = prog.instructions
    pc = 0
    steps = 0
    tainted = False
    record = RepeatRecord()
    while steps < step_cap:
        if pc >= len(code):  # running off the end also halts
            return RunOutcome(True, steps, tainted, off_end=True)
        ins = code[pc]
        steps += 1
        op = ins[0]
        if op == "HALT":
            return RunOutcome(True, steps, tainted)
        if op == "INC":
            regs[ins[1]] += 1
            pc += 1
        elif op == "DECJZ":
            if regs[ins[1]] == 0:
                pc = ins[2]
                if record.repeated((pc, tuple(regs))):
                    break
            else:
                regs[ins[1]] -= 1
                pc += 1
        else:  # ORACLE
            addr = regs[0]
            if addr < len(bits):
                regs[ins[1]] = int(bits[addr])
            else:
                regs[ins[1]] = 0
                tainted = True
            pc += 1
    return RunOutcome(False, step_cap, tainted)


# -- machine enumeration ----------------------------------------------------


def cantor_unpair(n):
    # inverse of pi(i, j) = (i + j)(i + j + 1) / 2 + j
    w = (math.isqrt(8 * n + 1) - 1) // 2
    j = n - w * (w + 1) // 2
    return w - j, j


def cantor_pair(i, j):
    return (i + j) * (i + j + 1) // 2 + j


def _decode_instruction(v):
    if v == 0:
        return ("HALT",)
    v -= 1
    q, rem = divmod(v, 3)
    if rem == 0:
        return ("INC", q)
    if rem == 1:
        return ("ORACLE", q)
    r, label = cantor_unpair(q)
    return ("DECJZ", r, label)


def _encode_instruction(ins):
    if ins[0] == "HALT":
        return 0
    if ins[0] == "INC":
        return 3 * ins[1] + 1
    if ins[0] == "ORACLE":
        return 3 * ins[1] + 2
    return 3 * cantor_pair(ins[1], ins[2]) + 3


def decode_program(i):
    """Integer -> program; ill-formed codes collapse to the canonical diverger.

    The empty program, out-of-range jump labels, and register indices
    beyond MAX_DECODED_REGISTER all count as ill-formed.  Every
    well-formed program is hit by exactly one code, and program_code
    inverts this map.
    """
    values = []
    n = i
    while n:
        h, n = cantor_unpair(n - 1)
        values.append(h)
    if not values:
        return LOOP_PROGRAM
    instructions = tuple(_decode_instruction(v) for v in values)
    prog = ToyProgram(instructions)
    try:
        _validate(prog)
    except ValueError:
        return LOOP_PROGRAM
    if prog.register_count > MAX_DECODED_REGISTER + 1:
        return LOOP_PROGRAM
    return prog


def program_code(prog):
    code = 0
    for ins in reversed(prog.instructions):
        code = cantor_pair(_encode_instruction(ins), code) + 1
    return code


class MachineEnumeration:
    """Index -> machine, each machine appearing infinitely often.

    Splits the index into a pair and decodes the program from the first
    component, so every program recurs at infinitely many indices.
    """

    label = "standard"

    def program_at(self, n):
        i, _ = cantor_unpair(n)
        return decode_program(i)


class ListEnumeration(MachineEnumeration):
    """Cycle through a fixed list of programs (used to steer tests)."""

    def __init__(self, programs, label="list"):
        self.programs = list(programs)
        self.label = label

    def program_at(self, n):
        return self.programs[n % len(self.programs)]


STANDARD_ENUMERATION = MachineEnumeration()


# -- rate functions ----------------------------------------------------------


class RateFunction(NamedTuple):
    """A named total nondecreasing function on the naturals."""

    name: str
    fn: object

    def __call__(self, n):
        v = self.fn(n)
        if v < 0:
            raise RateError(f"rate {self.name} negative at {n}")
        return v


def _tower(height, n):
    v = n
    for _ in range(height):
        v = 2**v
    return v


RATE_PRESETS = {
    "identity": RateFunction("identity", lambda n: n),
    "linear": RateFunction("linear", lambda n: 2 * n),
    "square": RateFunction("square", lambda n: n * n),
    "exp": RateFunction("exp", lambda n: 2**n),
    "tower5": RateFunction("tower5", lambda n: _tower(5, n)),
}


def rate_function(spec):
    """Look up a preset by name, or wrap an explicit finite table."""
    if isinstance(spec, RateFunction):
        return spec
    if isinstance(spec, str):
        try:
            return RATE_PRESETS[spec]
        except KeyError:
            raise RateError(f"unknown rate {spec!r}") from None
    table = dict(spec)
    if not table or sorted(table) != list(range(len(table))):
        raise RateError("rate table must cover 0..max contiguously")
    if any(table[i] > table[i + 1] for i in range(len(table) - 1)):
        raise RateError("rate table must be nondecreasing")

    def fn(n):
        if n not in table:
            raise RateError(f"rate table has no value at {n}")
        return table[n]

    return RateFunction("table", fn)


def compose_rates(outer, inner):
    return RateFunction(
        f"{outer.name} o {inner.name}", lambda n: outer(inner(n))
    )


# -- construction skeleton ---------------------------------------------------


def _ranges(values):
    """Compact display of an increasing int tuple: 2,3,4,5,9 -> "2..5,9"."""
    out = []
    values = list(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[j + 1] == values[j] + 1:
            j += 1
        out.append(str(values[i]) if i == j else f"{values[i]}..{values[j]}")
        i = j + 1
    return ",".join(out)


class StageRule(NamedTuple):
    """Membership rule for one reserved position."""

    position: int
    input_value: int
    prefix: str  # candidate prefix padded with 0s to rate(input)
    program: ToyProgram
    program_label: str


class Stage(NamedTuple):
    index: int
    m: int  # determined length on entry
    inputs: tuple  # p_0 < p_1 < ... one per candidate prefix
    big_m: int  # max rate over the inputs
    rules: tuple  # StageRule per candidate, in candidate order
    m_prime: int  # all positions <= m_prime are determined after the stage


class _HaltTable:
    """Reserved position -> least step cap under which its rule halts, for
    every rule that halts within `ran_to`, the largest cap run so far."""

    __slots__ = ("caps", "ran_to")

    def __init__(self):
        self.caps = {}
        self.ran_to = 0


class Skeleton:
    """Replayable construction data: stages, probe map, rules.

    Immutable, and equal only to itself: it owns its rendered rule table
    and three records of the counter-machine runs made for it.
    - `_halts`, a `_HaltTable` of its reserved rules (`members`);
    - `_last`, the last (cap, prefix) pair `members` returned;
    - `_runs`, the witness-scan run table (`witness_report`): program ->
      {(input, oracle cut): entry}, where an entry above 0 is the least
      cap under which that run halts, and one below 0 is minus the
      largest cap under which it ran without halting.
    A run off the end of the code after s steps halts under cap s + 1,
    as `run_program` notices it where step s + 1 would start.

    Reading a cap from a record is exact.  A run is deterministic, and a
    halting run never repeats a configuration, so no repeat stops it
    early: under every cap it takes the same steps as far as the cap
    reaches.  So a run that halts under cap h halts under every cap from h
    on and under none below, and one that did not halt under cap c halts
    under no cap up to c.
    """

    __slots__ = (
        "rate", "enumeration_label", "stages", "length", "probe",
        "_halts", "_last", "_runs", "_text",
    )

    def __init__(self, rate, enumeration_label, stages, length, probe):
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "enumeration_label", enumeration_label)
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "length", length)  # positions 0 .. length-1 are determined
        object.__setattr__(self, "probe", probe)  # input p -> reserved position
        object.__setattr__(self, "_halts", _HaltTable())
        object.__setattr__(self, "_last", (None, None))
        object.__setattr__(self, "_runs", {})
        object.__setattr__(self, "_text", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self):
        return (
            f"Skeleton(rate={self.rate!r}, enumeration_label={self.enumeration_label!r}, "
            f"stages={self.stages!r}, length={self.length!r})"
        )

    def probe_position(self, p):
        """Reserved position for input p; unprobed inputs map to position 0,
        which every skeleton determines to be a non-member."""
        return self.probe.get(p, 0)

    def probe_map(self):
        return ProbeMap(self.rate, self.probe_position, f"construction[{self.rate.name}]")

    def rules(self):
        for stage in self.stages:
            yield from stage.rules

    def members(self, step_cap):
        """Step-capped approximation of the constructed set, as a 0/1 prefix.

        Bit q is 1 iff q is a reserved position whose rule's machine halts
        within the cap on its recorded input and padded prefix.  Letterwise
        nondecreasing in both the cap and the stage count.

        Each rule is run once per skeleton at the largest cap asked for so
        far; a cap at or below that one reads the recorded halting steps.
        The cap asked for last returns the same prefix again.
        """
        last_cap, prefix = self._last
        if step_cap == last_cap:
            return prefix
        halts = self._halts
        if step_cap > halts.ran_to:
            for rule in self.rules():
                if rule.position in halts.caps:
                    continue
                out = run_program(rule.program, rule.input_value, rule.prefix, step_cap)
                if out.halted:
                    halts.caps[rule.position] = out.steps + out.off_end
            halts.ran_to = step_cap
        bits = ["0"] * self.length
        for position, cap in halts.caps.items():
            if cap <= step_cap:
                bits[position] = "1"
        prefix = OraclePrefix("".join(bits))
        object.__setattr__(self, "_last", (step_cap, prefix))
        return prefix

    def witness_report(self, roster, step_cap, p_max):
        """For each roster machine, the inputs p <= p_max where its halting
        on (p, members(step_cap) cut to rate(p)) coincides with membership
        at the probed position.  Inputs whose rate bound exceeds the
        approximated prefix are out of the desk-scale range and skipped.
        """
        witnesses = probe_witnesses(
            self.members(step_cap), self.probe_map(), roster, step_cap, p_max, self._runs
        )
        return WitnessReport(self.rate.name, len(self.stages), step_cap, p_max, witnesses)

    def to_text(self):
        """The rule table as text, rendered once per skeleton."""
        if self._text is None:
            object.__setattr__(self, "_text", self._render())
        return self._text

    def _render(self):
        lines = [f"rate={self.rate.name} enumeration={self.enumeration_label}"]
        for st in self.stages:
            lines.append(
                f"stage {st.index}: m={st.m} inputs={_ranges(st.inputs)} "
                f"M={st.big_m} mprime={st.m_prime}"
            )
            for rule in st.rules:
                w, pad = rule.prefix[: st.m], len(rule.prefix) - st.m
                shown = (w or "e") + (f"+0*{pad}" if pad else "")
                lines.append(
                    f"  pos={rule.position} input={rule.input_value} "
                    f"prefix={shown} prog={rule.program_label}"
                )
        return "\n".join(lines)


def build_skeleton(rate, stages, enumeration=STANDARD_ENUMERATION, budget=4096):
    """Deterministic replay of the construction's bookkeeping.

    Candidate prefixes are enumerated in binary counting order (candidate
    index written in m bits, position 0 leftmost).  Inputs are the least
    fresh naturals whose rate reaches m.  Stage t's machine comes from
    the enumeration at index t.

    A process builds each (rate, stages, enumeration, budget) once and
    keeps the 8 most recently used skeletons, with the runs their
    `members` and `witness_report` calls recorded.  A preset rate is one object, so it hits; a rate
    table is wrapped anew on each call, so it is rebuilt.  An exceeded
    budget is raised on every call.
    """
    return _build_skeleton(rate_function(rate), stages, enumeration, budget)


@functools.lru_cache(maxsize=8)
def _build_skeleton(rate, stages, enumeration, budget):
    out_stages = []
    probe = {}
    used_inputs = set()
    determined = 0  # positions < determined are settled
    for t in range(stages):
        m = determined
        if 2**m > budget:
            raise BudgetExceededError(t, 2**m, budget)
        program = enumeration.program_at(t)
        label = f"enum[{t}]"
        candidates = [format(i, f"0{m}b") if m else "" for i in range(2**m)]
        inputs = []
        p = 0
        while len(inputs) < 2**m:
            if p not in used_inputs and rate(p) >= m:
                inputs.append(p)
                used_inputs.add(p)
            p += 1
        big_m = max(rate(p) for p in inputs)
        rules = []
        for i, (w, p_i) in enumerate(zip(candidates, inputs)):
            position = big_m + 1 + i
            probe[p_i] = position
            rules.append(
                StageRule(
                    position=position,
                    input_value=p_i,
                    prefix=w + "0" * (rate(p_i) - m),
                    program=program,
                    program_label=label,
                )
            )
        m_prime = big_m + 2**m
        out_stages.append(
            Stage(t, m, tuple(inputs), big_m, tuple(rules), m_prime)
        )
        determined = m_prime + 1
    return Skeleton(
        rate=rate,
        enumeration_label=enumeration.label,
        stages=tuple(out_stages),
        length=determined,
        probe=probe,
    )


def approx_members(rate, stages, step_cap, enumeration=STANDARD_ENUMERATION, budget=4096):
    """The constructed set approximated under a step cap (Skeleton.members)."""
    return build_skeleton(rate, stages, enumeration, budget).members(step_cap)


# -- scanning for guess coincidences -----------------------------------------


class Witness(NamedTuple):
    p: int
    position: int
    member: bool  # membership bit at the probed position
    halted: bool  # the roster machine's behaviour on (p, prefix)


class WitnessReport(NamedTuple):
    """Per-machine inputs where halting matches probed membership."""

    rate_name: str
    stages: int
    step_cap: int
    p_max: int
    witnesses: dict  # label -> tuple of Witness

    def to_text(self):
        lines = [
            f"rate={self.rate_name} stages={self.stages} "
            f"cap={self.step_cap} p<={self.p_max}"
        ]
        for label in sorted(self.witnesses):
            ws = self.witnesses[label]
            lines.append(f"{label}: {len(ws)} witnesses")
            for w in ws:
                lines.append(
                    f"  p={w.p} position={w.position} member={int(w.member)} "
                    f"halted={int(w.halted)}"
                )
        return "\n".join(lines)


def probe_witnesses(prefix, handle, roster, step_cap, p_max, runs=None):
    """Witness scan against an arbitrary membership prefix and probe map.

    Same coincidence condition as Skeleton.witness_report, but decoupled
    from the construction: membership comes from `prefix`, probe positions
    and the oracle cut length from `handle`.  This is the harness used to
    re-verify a probe map after its rate has been restricted.

    Each input's column (probe position, member bit, oracle cut) is read
    once per scan.  A machine's halting on a column is read from `runs`,
    a skeleton's run table (see `Skeleton`), when that table covers the
    cap, and is otherwise run once and recorded there; without a table
    the scan records into a fresh one.
    """
    columns = []
    for p in range(p_max + 1):
        bound = handle.rate(p)
        if bound > len(prefix):
            break  # a rate is nondecreasing, so every later bound is too
        position = handle.position_of(p)
        if position < len(prefix):
            columns.append((p, position, prefix.bit(position) == 1, prefix.bits[:bound]))
    if runs is None:
        runs = {}
    out = {}
    for label, program in roster:
        known = runs.setdefault(program, {})
        found = []
        for p, position, member, cut in columns:
            entry = known.get((p, cut))
            if entry is None or 0 < -entry < step_cap:  # not recorded, or not this far
                outcome = run_program(program, p, cut, step_cap)
                entry = outcome.steps + outcome.off_end if outcome.halted else -step_cap
                known[(p, cut)] = entry
            halted = 0 < entry <= step_cap
            if member == halted:
                found.append(Witness(p, position, member, halted))
        out[label] = tuple(found)
    return out


# -- probe-map handles and reduction transport -------------------------------


class ProbeMap(NamedTuple):
    """A total probe map together with the rate it certifies."""

    rate: RateFunction
    position_of: object  # Callable[[int], int]
    label: str


def restrict_rate(handle, smaller, check_range=range(64)):
    """Reuse a probe map at a pointwise smaller rate (identity combinator).

    Valid because shortening the oracle only weakens the guessers; the
    pointwise bound is checked on the given range.  The handle's rate is
    nondecreasing, so in ascending order a value of `smaller` that stays
    within the last handle rate computed needs no new one: a handle whose
    rate outgrows every machine, like tower5's, is evaluated only where
    `smaller` catches up with it.
    """
    smaller = rate_function(smaller)
    bound = None  # the handle's rate at the last n it was computed for
    for n in sorted(check_range):
        value = smaller(n)
        if bound is not None and value <= bound:
            continue
        bound = handle.rate(n)
        if value > bound:
            raise RateError(
                f"rate {smaller.name}({n}) = {value} exceeds "
                f"{handle.rate.name}({n}) = {bound}"
            )
    return ProbeMap(smaller, handle.position_of, handle.label)


def transport_probe_map(position_map, translator, beta, handle, check_prefixes=()):
    """Push a probe map through a pair of reductions.

    `position_map` carries membership questions to the target set
    (n a member iff position_map(n) is); `translator` turns source
    prefixes into target prefixes at rate `beta` (output length at least
    beta of input length; checked on the supplied prefixes).  The result
    probes the target set at rate beta o rate.  Beta must grow on 0..31,
    and it is evaluated in ascending order only until it does.
    """
    beta = rate_function(beta)
    start = beta(0)
    if next((v for v in map(beta, range(1, 32)) if v != start), start) <= start:
        raise RateError(f"rate {beta.name} must be nondecreasing and grow on the range")
    for w in check_prefixes:
        out = translator(w)
        if len(out) < beta(len(w)):
            raise RateError(
                f"translator output length {len(out)} below {beta.name}({len(w)}) "
                f"= {beta(len(w))}"
            )
    return ProbeMap(
        compose_rates(beta, handle.rate),
        lambda p: position_map(handle.position_of(p)),
        f"{handle.label} -> transported",
    )
