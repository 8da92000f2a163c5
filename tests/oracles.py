"""Independent brute-force oracles used only by the tests.

The production code decides Grigorchuk identities by level-one splitting;
here we instead act on all binary strings of a fixed depth.  The machine
group's word problem is likewise re-decided by literally folding `act`
over every legal window.  Keeping these separate from the shipped
algorithms is the point: agreement is evidence, not tautology.
"""

import functools
import itertools

from groupwalk import automata, groups, kgroup
from groupwalk.errors import SpecificationError
from groupwalk.subshift import enumerate_language

_SECTIONS = {"b": ("a", "d"), "c": ("a", "b"), "d": ("", "c")}


def act_letter(letter, s):
    if not s:
        return s
    head, rest = s[0], s[1:]
    if letter == "a":
        return ("1" if head == "0" else "0") + rest
    left, right = _SECTIONS[letter]
    if head == "0":
        return "0" + act_word(tuple(left), rest)
    return "1" + act_word(tuple(right), rest)


def act_word(word, s):
    # rightmost letter acts first
    for letter in reversed(word):
        s = act_letter(letter, s)
    return s


def tree_trivial(word, depth):
    """Does the word fix every binary string of the given depth?"""
    for bits in itertools.product("01", repeat=depth):
        s = "".join(bits)
        if act_word(word, s) != s:
            return False
    return True


def tree_signature(word, depth):
    """The word's full action table at the given depth (hashable)."""
    return tuple(
        act_word(word, "".join(bits)) for bits in itertools.product("01", repeat=depth)
    )


def signature_ball(n, depth):
    """BFS ball of the Grigorchuk group deduplicated by tree signatures.

    Entirely independent of the shipped portrait keys; returns the list
    of canonical words in discovery order.
    """
    start = tree_signature((), depth)
    seen = {start}
    words = [()]
    layers = [[()]]
    for _ in range(n):
        layer = []
        for w in layers[-1]:
            for sym in "abcd":
                cand = w + (sym,)
                sig = tree_signature(cand, depth)
                if sig not in seen:
                    seen.add(sig)
                    layer.append(cand)
                    words.append(cand)
        layers.append(layer)
    return words


def bfs_words(ctx, n):
    """Ball words up to radius n by a BFS that stores each element's whole
    word and evaluates every candidate from scratch: the first word found
    for each element, layer by layer, generators in declared order."""
    seen = {ctx.identity()}
    words = [()]
    layer = [()]
    for _ in range(n):
        nxt = []
        for w in layer:
            for sym in ctx.generators:
                k = groups.evaluate_word(ctx, w + (sym,))
                if k not in seen:
                    seen.add(k)
                    nxt.append(w + (sym,))
        words.extend(nxt)
        layer = nxt
    return words


def brute_wp(ctx, word):
    """Word-problem verdict by folding `act` over every legal window.

    Returns ("non_identity", witness) with the first moved legal window in
    enumeration order, or ("identity", None).  Needs an oracle prefix of
    length >= 2 |word| + 1.
    """
    g_word = kgroup.gamma(word)
    if not groups.is_identity(ctx.G, g_word):
        return "non_identity", ("gamma", g_word)
    e_h = ctx.H.identity()
    for pattern in enumerate_language(ctx.G, ctx.oracle, len(word)):
        res = kgroup.act(ctx, word, pattern, e_h)
        if not res.fixes(ctx, pattern, e_h):
            return "non_identity", ("pattern", pattern)
    return "identity", None


def brute_order(ctx, word, cap):
    """Order by iterating literal actions over every legal window.

    Multiplies the word's action on each legal window of radius
    cap * |word| until all windows and states return simultaneously.
    """
    for k in range(1, cap + 1):
        power = word * k
        if not groups.is_identity(ctx.G, kgroup.gamma(power)):
            continue
        radius = len(power)
        ok = True
        for pattern in enumerate_language(ctx.G, ctx.oracle, radius):
            for h_sym in ctx.H.generators:
                h = ctx.H.generator_element(h_sym)
                res = kgroup.act(ctx, power, pattern, h)
                if not res.fixes(ctx, pattern, h):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return k
    raise AssertionError(f"order above {cap}")


def assignments_with_at_most_two_ones(size):
    yield ()
    for i in range(size):
        yield (i,)
    for i in range(size):
        for j in range(i + 1, size):
            yield (i, j)


def capped_run(prog, input_value, bits, step_cap):
    """Counter-machine run stepped one instruction at a time up to the cap.

    No loop detection and no memo: the slow path that `run_program` must
    agree with.  Returns (halted, steps, tainted).
    """
    regs = [0] * prog.register_count
    regs[0] = input_value
    code = prog.instructions
    pc = 0
    steps = 0
    tainted = False
    while steps < step_cap:
        if pc >= len(code):
            return True, steps, tainted
        ins = code[pc]
        steps += 1
        if ins[0] == "HALT":
            return True, steps, tainted
        if ins[0] == "INC":
            regs[ins[1]] += 1
            pc += 1
        elif ins[0] == "DECJZ":
            if regs[ins[1]] == 0:
                pc = ins[2]
            else:
                regs[ins[1]] -= 1
                pc += 1
        else:  # ORACLE
            if regs[0] < len(bits):
                regs[ins[1]] = int(bits[regs[0]])
            else:
                regs[ins[1]] = 0
                tainted = True
            pc += 1
    return False, step_cap, tainted


@functools.lru_cache(maxsize=64)
def ball_offsets(spec):
    """All (ball word, dz) displacements of total norm <= radius, in ball
    order and then by dz."""
    out = []
    for w in groups.ball_words(spec.G, spec.radius):
        n = groups.word_norm(spec.G, groups.evaluate_word(spec.G, w))
        for dz in range(-(spec.radius - n), spec.radius - n + 1):
            out.append((w, dz))
    return out


def in_range_by_scan(spec, backend, head, other):
    """Is `other` within range of `head`?  Tries every ball offset in order:
    other.g must equal head.g times a ball word whose offset has other's dz."""
    dz = other.z - head.z
    return any(
        odz == dz and backend.equal(other.g, backend.apply_word(head.g, w))
        for w, odz in ball_offsets(spec)
    )


def _reference_entry_matches(spec, entry, i, rs, config, backend):
    head = rs.heads[i]
    if entry.head is not None and entry.head != i:
        return False
    if entry.state is not None and entry.state != head.state:
        return False
    for pc in entry.patch or ():
        cell = backend.apply_word(head.g, pc.offset.g_word)
        z = head.z + pc.offset.dz
        if isinstance(config, automata.PeriodicConfig):
            bit = config.value(z)
        else:
            bit = config.value_at(cell, z)
        if bit != pc.bit:
            return False
    for oc in entry.others or ():
        met = False
        for j, other in enumerate(rs.heads):
            if j == i or (oc.head is not None and oc.head != j):
                continue
            if oc.state is not None and oc.state != other.state:
                continue
            dz = other.z - head.z
            if abs(dz) > spec.radius:
                continue
            if oc.offset is not None:
                met = dz == oc.offset.dz and backend.equal(
                    other.g, backend.apply_word(head.g, oc.offset.g_word)
                )
            else:
                met = in_range_by_scan(spec, backend, head, other)
            if met:
                break
        if not met:
            return False
    return True


def reference_step(spec, config, rs, backend=None):
    """One synchronous step by scanning the whole rule table for every head
    and answering in-range checks with `in_range_by_scan`: the slow path
    that `automata.step` must agree with, oracle queries in the same order."""
    if backend is None:
        backend = automata.CanonicalBackend(spec.G)
    new_heads = []
    for i, head in enumerate(rs.heads):
        for entry in spec.rule:
            if _reference_entry_matches(spec, entry, i, rs, config, backend):
                break
        else:
            raise SpecificationError(
                f"no rule entry for head {i} in state {head.state!r} at z={head.z}"
            )
        g, z = head.g, head.z
        if entry.move == "z+1":
            z += 1
        elif entry.move == "z-1":
            z -= 1
        elif entry.move != "stay":
            g = backend.apply_gen(g, entry.move.partition(":")[2])
        new_heads.append(automata.Head(g, z, entry.next_state))
    return automata.RunState(tuple(new_heads), rs.step + 1)


def reference_run(spec, config, start_phase, steps, backend=None):
    """`automata.run` without its repeated-layout cut: every arrangement is
    stepped until it realises a final arrangement or reaches the bound."""
    if backend is None:
        backend = automata.CanonicalBackend(spec.G)
    best = None
    for a_idx, arr in enumerate(spec.initial):
        rs = automata.place(spec, arr, backend, start_phase)
        for n in range(steps + 1):
            if automata.in_final(spec, rs, backend):
                if best is None or n < best[0]:
                    best = (n, a_idx)
                break
            if n < steps:
                rs = automata.step(spec, config, rs, backend)
    if best is None:
        return automata.RunResult(False)
    return automata.RunResult(True, at_step=best[0], arrangement=best[1])
