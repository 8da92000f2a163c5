"""Batch command-line front door.

Subcommands: group (norms, balls, orders, torsion tables), kgroup
(word-problem and reduction queries over the machine group), impred (the
staged construction and its witness scans), simulate (automaton runs on
periodic configurations), pipeline (build a constructed set, embed it
into the machine group, and verify the transported witnesses).

Each subcommand returns its report lines and exit code, and `main` writes
every report, after the subcommand has raised any error, so a failed run
writes none.  Reports are plain text, embed the resolved manifest and the
package version, and contain nothing time- or host-dependent, so identical
manifests produce byte-identical reports.

Exit codes: 0 success, 1 other error or pipeline mismatch, 2 usage,
3 oracle shortage, 4 capacity/budget or a `kgroup --conj` output wider
than `kgroup.MAX_REDUCTION_WIDTH`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__, automata, groups, kgroup, machines
from .errors import (
    BudgetExceededError,
    CapacityError,
    CapExceededError,
    ContextError,
    GroupwalkError,
    OracleShortageError,
    ReductionWidthError,
    UnknownGeneratorError,
    UsageError,
)
from .subshift import OraclePrefix, pattern_record


def _emit(args, lines):
    manifest = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    out = [
        f"# groupwalk {args.command} report",
        f"version: {__version__}",
        "manifest: " + json.dumps(manifest, sort_keys=True),
    ]
    out.extend(lines)
    text = "\n".join(out) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"--out: cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _read_file(path, option):
    """Text of a file named by an option; an unreadable one is a usage error."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"{option}: cannot read {path}: {exc.strerror}") from None


def _load_oracle(args):
    bits = args.oracle or ""
    if args.oracle_file:
        bits = _read_file(args.oracle_file, "--oracle-file").strip()
    try:
        return OraclePrefix(bits)
    except ValueError as exc:
        raise UsageError(exc) from None


def _group(spec_id, **options):
    try:
        return groups.group_context(spec_id, **options)
    except ValueError as exc:
        raise UsageError(exc) from None


# -- group ---------------------------------------------------------------


def _at_least(value, low, option):
    """A count below its least allowed value is a usage error; None is unset."""
    if value is not None and value < low:
        raise UsageError(f"{option} must be >= {low}")


def _cmd_group(args):
    _at_least(args.element_cap, 1, "--element-cap")
    ctx = _group(args.ctx, element_cap=args.element_cap)
    if args.order is not None or args.torsion is not None:
        _at_least(args.cap, 1, "--cap")
    _at_least(args.enumerate, 0, "--enumerate K")
    _at_least(args.torsion, 0, "--torsion N")
    if args.torsion is not None and not ctx.is_torsion():
        raise UsageError(f"--torsion needs a torsion group; {ctx.name} is not one")
    _at_least(args.ball, 0, "--ball radius")
    lines = []
    if args.ball is not None:
        elems = groups.ball(ctx, args.ball)
        words = groups.ball_words(ctx, args.ball)
        lines.append(f"ball radius {args.ball}: {len(elems)} elements")
        for i, w in enumerate(words):
            lines.append(f"  [{i}] {groups.format_word(w)}")
    if args.norm is not None:
        w = groups.parse_word(ctx, args.norm)
        lines.append(f"norm {groups.format_word(w)} = {groups.word_norm(ctx, groups.evaluate_word(ctx, w))}")
    if args.distance is not None:
        wa = groups.parse_word(ctx, args.distance[0])
        wb = groups.parse_word(ctx, args.distance[1])
        d = groups.distance(
            ctx, groups.evaluate_word(ctx, wa), groups.evaluate_word(ctx, wb)
        )
        lines.append(f"distance = {d}")
    if args.identity is not None:
        w = groups.parse_word(ctx, args.identity)
        lines.append(f"is_identity {groups.format_word(w)} = {groups.is_identity(ctx, w)}")
    if args.order is not None:
        w = groups.parse_word(ctx, args.order)
        k = groups.element_order(ctx, groups.evaluate_word(ctx, w), args.cap)
        lines.append(f"order {groups.format_word(w)} = {k}")
    if args.torsion is not None:
        for n, best in enumerate(groups.torsion_table(ctx, args.torsion, args.cap)):
            lines.append(f"torsion({n}) = {best}")
    if args.enumerate is not None:
        for i in range(args.enumerate):
            lines.append(f"word[{i}] = {groups.format_word(groups.enumerate_words(ctx, i))}")
    if args.index is not None:
        w = groups.parse_word(ctx, args.index)
        lines.append(f"index {groups.format_word(w)} = {groups.word_index(ctx, w)}")
    return lines or ["nothing requested"], 0


# -- kgroup ---------------------------------------------------------------


def _embeddable(ctx, n, option):
    """Embedding n (n >= 1) walks to an element of norm n, which a finite
    walking group lacks past its largest norm, and needs two noncommuting
    state generators, which an abelian state group lacks: a usage error."""
    if not n:
        return
    if not groups.has_norm(ctx.G, n):
        raise UsageError(f"{option}: embedding {n} needs an element of norm {n}; {ctx.G.name} has none")
    try:
        kgroup.noncommuting_pair(ctx.H)
    except ContextError as exc:
        raise UsageError(f"{option}: {exc}") from None


def _cmd_kgroup(args):
    oracle = _load_oracle(args)
    ctx = kgroup.KContext(_group(args.g), _group(args.h), oracle)
    if args.order is not None:
        _at_least(args.cap, 1, "--cap")
        if not ctx.H.is_torsion():
            raise UsageError(f"--order needs a torsion state group; {ctx.H.name} is not one")
    _at_least(args.embed, 1, "--embed N")
    _at_least(args.embed_table, 0, "--embed-table N")
    _embeddable(ctx, args.embed, "--embed N")
    _embeddable(ctx, args.embed_table, "--embed-table N")
    _at_least(args.witness, 0, "--witness I")
    lines = [f"context: {ctx.name}, oracle length {len(oracle)}"]
    shortage = False
    if args.wp is not None:
        word = kgroup.parse_kword(ctx, args.wp)
        res = kgroup.wp_k(ctx, word)
        lines += [f"word: {kgroup.format_kword(word)}", f"verdict: {res.kind}"]
        if res.gamma_witness is not None:
            lines.append(f"witness: shift image {groups.format_word(res.gamma_witness)}")
        if res.pattern_witness is not None:
            lines.append("witness: pattern " + json.dumps(pattern_record(res.pattern_witness)))
        if res.needed_length is not None:
            lines.append(f"needed oracle length: {res.needed_length}")
        shortage = shortage or res.kind == "needs_oracle"
    if args.embed is not None:
        word = kgroup.embed_element(ctx, args.embed)
        lines.append(f"embed({args.embed}) = {kgroup.format_kword(word)}")
        lines.append(f"index = {groups.decimal_digits(kgroup.many_one_index(ctx, args.embed))}")
    if args.embed_table is not None:
        for n in range(1, args.embed_table + 1):
            word = kgroup.embed_element(ctx, n)
            res = kgroup.wp_k(ctx, word)
            member = oracle.bit(n)
            lines.append(
                f"n={n} len={len(word)} verdict={res.kind} oracle_bit={member}"
            )
            shortage = shortage or res.kind == "needs_oracle"
    if args.conj:
        reduced = kgroup.conj_reduction(ctx, oracle)
        lines.append(f"reduction of {oracle.bits or 'e'}: width {len(reduced)}")
        lines.append(f"bits: {reduced.bits}")
    if args.witness is not None:
        cw = kgroup.conj_witness(ctx, args.witness, len(oracle))
        lines.append(f"bit {args.witness}: {cw.kind} {list(cw.distances)}")
    if args.order is not None:
        word = kgroup.parse_kword(ctx, args.order)
        lines.append(f"order = {kgroup.order_k(ctx, word, args.cap)}")
    return lines, 3 if shortage else 0


# -- impred ----------------------------------------------------------------


def _roster(names):
    out = []
    for name in names.split(","):
        name = name.strip()
        if name not in machines.BUILTIN_PROGRAMS:
            raise UsageError(f"unknown roster machine {name!r}")
        out.append((name, machines.BUILTIN_PROGRAMS[name]))
    return out


def _construction(args):
    """The staged construction of `impred` and `pipeline`: its skeleton,
    the members(--cap) prefix, the roster (None when --roster names
    nothing) and the roster's witness report (None likewise)."""
    _at_least(args.stages, 0, "--stages")
    _at_least(args.cap, 1, "--cap")
    _at_least(args.budget, 1, "--budget")
    roster = report = None
    if args.roster:
        _at_least(args.p_max, 0, "--p-max")
        roster = _roster(args.roster)
    skeleton = machines.build_skeleton(args.phi, args.stages, budget=args.budget)
    if roster:
        report = skeleton.witness_report(roster, args.cap, args.p_max)
    return skeleton, skeleton.members(args.cap), roster, report


def _cmd_impred(args):
    _at_least(args.psi, 0, "--psi P")
    skeleton, prefix, _, report = _construction(args)
    lines = [skeleton.to_text()] if args.table else []
    lines.append(f"prefix length: {len(prefix)}")
    lines.append(f"members: {prefix.members()}")
    if args.psi is not None:
        for p in range(args.psi + 1):
            lines.append(f"probe({p}) = {skeleton.probe_position(p)}")
    if report is not None:
        lines.append(report.to_text())
    return lines, 0


# -- simulate ----------------------------------------------------------------


def _cmd_simulate(args):
    _at_least(args.p, 1, "--p")
    _at_least(args.trace, 0, "--trace STEPS")
    if args.membership or args.predict:
        _at_least(args.cap, 1, "--cap")
    try:
        spec = automata.AutomatonSpec.from_json(_read_file(args.spec, "--spec"))
    except (ValueError, KeyError, TypeError, UnknownGeneratorError) as exc:
        raise UsageError(f"--spec: malformed spec {args.spec}: {type(exc).__name__}: {exc}") from None
    if args.predict and spec.heads != 3:
        raise UsageError(f"--predict needs a three-headed spec; this one has {spec.heads}")
    prefix = _load_oracle(args)  # checked before any run, --predict or not
    lines = [f"spec: {args.spec} heads={spec.heads} radius={spec.radius}"]
    shortage = False
    if args.membership:
        res = automata.membership_test(spec, args.p, args.cap)
        if res.in_s:
            lines.append(f"p={args.p}: InS (no rejection within {args.cap} steps)")
        else:
            lines.append(f"p={args.p}: RejectedWitness phase={res.phase} step={res.at_step}")
    if args.trace is not None:
        records = automata.trace_records(spec, automata.make_xp(args.p), 0, args.trace)
        for n, head, g, z, state, sep in records:
            lines.append(
                f"step {n}: head {head} g={g} z={z} state={state} separation {sep}"
            )
    if args.predict:
        res = automata.predictor(spec, args.p, prefix, args.cap)
        lines.append(f"predictor: {res.kind}"
                     + (f" phase={res.phase} step={res.at_step}" if res.kind == "halted" else "")
                     + (f" query_index={res.query_index}" if res.kind == "oracle_exhausted" else ""))
        shortage = shortage or res.kind == "oracle_exhausted"
    return lines, 3 if shortage else 0


# -- pipeline ----------------------------------------------------------------


def _transport(ctx, prefix, n):
    """The column of probe position n: its word's reduced bit under the
    prefix and its length-lex index as report text.  Position 0 holds the
    unprobed inputs, the fixed non-member, carried to a fixed non-identity
    word."""
    word = kgroup.embed_element(ctx, n) if n >= 1 else (kgroup.KGen("S", ctx.G.generators[0]),)
    idx = kgroup.kword_index(ctx, word)
    digits = groups.decimal_length(idx)
    idx_repr = groups.decimal_digits(idx) if digits <= 12 else f"~10^{digits - 1}"
    return kgroup.conj_word_bit(ctx, prefix, word), idx_repr


def _cmd_pipeline(args):
    """Transport each witness's probe position into K(G, S3) and check that
    the reduced bit of its word agrees with membership.  Witnesses share
    positions, so each distinct position is embedded, reduced and indexed
    once, and every witness line at it reads that column."""
    if not args.roster:
        raise UsageError("--roster: pipeline needs at least one machine")
    _, prefix, roster, report = _construction(args)
    lines = [f"constructed prefix length: {len(prefix)}"]
    ctx = kgroup.KContext(_group(args.g), groups.group_context("S3"), prefix)
    positions = [w.position for ws in report.witnesses.values() for w in ws]
    _embeddable(ctx, max(positions, default=0), "--g")
    columns = {n: _transport(ctx, prefix, n) for n in dict.fromkeys(positions)}
    matches = []
    for label, _prog in roster:
        ws = report.witnesses[label]
        lines.append(f"{label}: {len(ws)} witnesses")
        for w in ws:
            bit, idx_repr = columns[w.position]
            matches.append(bit is not None and (bit == 1) == w.member)
            lines.append(
                f"  p={w.p} probe={w.position} member={int(w.member)} halted={int(w.halted)} "
                f"word_index={idx_repr} reduced_bit={bit} match={matches[-1]}"
            )
    mismatches = matches.count(False)
    lines.append(f"transported witnesses: {len(matches)}, mismatches: {mismatches}")
    return lines, 0 if mismatches == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="groupwalk",
        description="workbench for word problems, machine groups, and walking automata",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    out, oracle, construction = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    out.add_argument("--out")
    oracle.add_argument("--oracle", help="0/1 prefix of the constraint set")
    oracle.add_argument("--oracle-file")
    construction.add_argument("--phi", default="identity", choices=sorted(machines.RATE_PRESETS))
    construction.add_argument("--stages", type=int, default=3)
    construction.add_argument("--cap", type=int, default=10_000)
    construction.add_argument("--budget", type=int, default=4096)
    construction.add_argument("--p-max", type=int, default=40)

    p = sub.add_parser("group", parents=[out], help="group arithmetic, balls, orders, torsion")
    p.add_argument("--ctx", required=True, help='group id, e.g. "Z", "S3", "grigorchuk", "Z x grigorchuk"')
    p.add_argument("--element-cap", type=int, default=200_000)
    p.add_argument("--ball", type=int)
    p.add_argument("--norm", metavar="WORD")
    p.add_argument("--distance", nargs=2, metavar=("W1", "W2"))
    p.add_argument("--identity", metavar="WORD")
    p.add_argument("--order", metavar="WORD")
    p.add_argument("--torsion", type=int, metavar="N")
    p.add_argument("--cap", type=int, default=64)
    p.add_argument("--enumerate", type=int, metavar="K")
    p.add_argument("--index", metavar="WORD")
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("kgroup", parents=[out, oracle], help="machine-group word problem and reductions")
    p.add_argument("--g", default="Z")
    p.add_argument("--h", default="S3")
    p.add_argument("--wp", metavar="TOKENS", help='word, e.g. "S:+1 M:(12):1 S:-1"')
    p.add_argument("--embed", type=int, metavar="N")
    p.add_argument("--embed-table", type=int, metavar="N")
    p.add_argument("--conj", action="store_true")
    p.add_argument("--witness", type=int, metavar="I")
    p.add_argument("--order", metavar="TOKENS")
    p.add_argument("--cap", type=int, default=64)
    p.set_defaults(func=_cmd_kgroup)

    p = sub.add_parser("impred", parents=[out, construction], help="staged construction and witness scans")
    p.add_argument("--table", action="store_true")
    p.add_argument("--psi", type=int, metavar="P")
    p.add_argument("--roster", help="comma list from: halt, loop, echo")
    p.set_defaults(func=_cmd_impred)

    p = sub.add_parser("simulate", parents=[out, oracle], help="walking-automaton runs")
    p.add_argument("--spec", required=True)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--cap", type=int, default=100)
    p.add_argument("--membership", action="store_true")
    p.add_argument("--trace", type=int, metavar="STEPS")
    p.add_argument("--predict", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("pipeline", parents=[out, construction],
                       help="construction -> machine group transport")
    p.add_argument("--g", default="Z")
    p.add_argument("--roster", default="halt,loop,echo")
    p.set_defaults(func=_cmd_pipeline)

    return parser


@functools.cache
def _parser():
    """The parser of `main`, built on first use and reused by later calls."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        lines, code = args.func(args)
        _emit(args, lines)
        return code
    except (UsageError, UnknownGeneratorError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OracleShortageError as exc:
        sys.stderr.write(f"oracle shortage: {exc}\n")
        return 3
    except (CapacityError, CapExceededError, BudgetExceededError) as exc:
        sys.stderr.write(f"capacity: {exc}\n")
        return 4
    except ReductionWidthError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except GroupwalkError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
