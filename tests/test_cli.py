import hashlib
import json
import random
import re
import shlex
import tracemalloc
import types
from pathlib import Path

import pytest

from groupwalk import cli, errors, groups, kgroup, machines
from groupwalk.cli import main
from groupwalk.subshift import OraclePrefix

DETECTOR = {
    "group": "Z",
    "heads": 1,
    "radius": 1,
    "states": [["scan", "hit"]],
    "rule": [
        {"head": 0, "state": "scan", "patch": [[["", 0], 1], [["", 1], 1]],
         "move": "stay", "next": "hit"},
        {"head": 0, "state": "scan", "patch": None, "move": "z+1", "next": "scan"},
        {"head": 0, "state": "hit", "patch": None, "move": "stay", "next": "hit"},
    ],
    "initial": [[{"offset": ["", 0], "state": "scan"}]],
    "final": [[{"offset": ["", 0], "state": "hit"}]],
}
# the detector reaches `hit`, which no rule covers, and no final
# arrangement ends the run first: a rule gap, exit 1
RULE_GAP = dict(DETECTOR, rule=DETECTOR["rule"][:2], final=[])


GOLDEN = Path(__file__).parent / "golden"
PATROL = "tests/golden/patrol_grigorchuk_r2.json"  # a report names it as given


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_group_report(capsys):
    code, out = run_cli(
        capsys, "group", "--ctx", "grigorchuk", "--ball", "2", "--torsion", "1"
    )
    assert code == 0
    assert "ball radius 2: 11 elements" in out
    assert "torsion(1) = 2" in out


def test_group_norm_and_order(capsys):
    code, out = run_cli(
        capsys, "group", "--ctx", "Z", "--norm", "+1 +1 +1 +1 +1", "--order", "+1"
    )
    assert code == 0
    assert "= 5" in out and "Infinite" in out


def test_reports_are_byte_identical(capsys):
    args = ("kgroup", "--g", "Z", "--oracle", "00100", "--embed-table", "2")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_kgroup_wp_and_exit_codes(capsys):
    code, out = run_cli(
        capsys, "kgroup", "--oracle", "01000000000", "--wp", "S:+1 S:-1"
    )
    assert code == 0 and "verdict: identity" in out
    # a needs-oracle verdict surfaces as exit code 3
    code, out = run_cli(capsys, "kgroup", "--oracle", "0", "--embed-table", "2")
    assert code == 3 and "needs_oracle" in out


def test_kgroup_conj_dump(capsys):
    code, out = run_cli(capsys, "kgroup", "--oracle", "010", "--conj")
    assert code == 0
    assert "width 9" in out


def test_capacity_exit_code(capsys):
    code, _ = run_cli(
        capsys, "group", "--ctx", "grigorchuk", "--element-cap", "20", "--ball", "6"
    )
    assert code == 4


def test_element_cap_bounds_the_product_ball_not_a_finite_factor(capsys):
    """Under a cap of 4, Z x S3 builds S3's six elements for its norms and
    still prints ball(0); ball(1) holds five, so the cap names radius 0."""
    code, out = run_cli(capsys, "group", "--ctx", "Z x S3", "--element-cap", "4", "--ball", "0")
    assert code == 0
    assert out.endswith("ball radius 0: 1 elements\n  [0] e\n")
    code = main(["group", "--ctx", "Z x S3", "--element-cap", "4", "--ball", "1"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == "capacity: element cap 4 reached; largest complete radius is 0\n"


def test_usage_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["group"])  # missing required --ctx
    assert info.value.code == 2


def test_impred_report(capsys):
    code, out = run_cli(
        capsys, "impred", "--stages", "2", "--cap", "200", "--table",
        "--roster", "halt,loop", "--psi", "5",
    )
    assert code == 0
    assert "stage 0:" in out and "stage 1:" in out
    assert "halt:" in out and "loop:" in out


def test_simulate_membership_and_trace(tmp_path, capsys):
    spec_path = tmp_path / "detector.json"
    spec_path.write_text(json.dumps(DETECTOR))
    code, out = run_cli(
        capsys, "simulate", "--spec", str(spec_path), "--p", "1", "--membership"
    )
    assert code == 0 and "RejectedWitness" in out
    code, out = run_cli(
        capsys, "simulate", "--spec", str(spec_path), "--p", "2",
        "--membership", "--trace", "4",
    )
    assert code == 0 and "InS" in out
    assert "step 4: head 0" in out and "separation 0" in out


def test_simulate_patrol_membership_at_a_huge_cap(capsys):
    """The committed grigorchuk patrol ends each phase at its first repeated
    head layout, so a cap of 10^8 steps per phase costs a few hundred."""
    code, out = run_cli(
        capsys, "simulate", "--spec", str(GOLDEN / "patrol_grigorchuk_r2.json"),
        "--p", "3", "--cap", "100000000", "--membership",
    )
    assert code == 0
    assert "p=3: InS (no rejection within 100000000 steps)" in out


def _sequence_rules(head, moves):
    """Rules that make the head take the moves in order, then stay."""
    rules = [{"head": head, "state": str(i), "patch": None, "move": f"g:{x}",
              "next": str(i + 1)} for i, x in enumerate(moves)]
    end = str(len(moves))
    return rules + [{"head": head, "state": end, "patch": None, "move": "stay", "next": end}]


def test_trace_prints_grigorchuk_cells_as_ball_words(tmp_path, capsys):
    """Paths d a d a and a d a d end on one cell, which both heads print
    as its ball word."""
    states = [str(i) for i in range(5)]
    origin = {"offset": ["", 0], "state": "0"}
    spec = {
        "group": "grigorchuk", "heads": 2, "radius": 1, "states": [states, states],
        "rule": _sequence_rules(0, "dada") + _sequence_rules(1, "adad"),
        "initial": [[origin, origin]], "final": [],
    }
    spec_path = tmp_path / "paths.json"
    spec_path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, "simulate", "--spec", str(spec_path), "--trace", "4")
    assert code == 0
    assert "step 2: head 0 g=da z=0 state=2 separation 4" in out
    assert "step 4: head 0 g=adad z=0 state=4 separation 0" in out
    assert "step 4: head 1 g=adad z=0 state=4 separation 0" in out


def test_product_norm_far_along_the_integer_factor(capsys):
    """The norm of (20, abac) is 20 + 4, read off the factors' own balls."""
    word = "L:+1 " * 20 + "R:a R:b R:a R:c"
    code, out = run_cli(capsys, "group", "--ctx", "Z x grigorchuk", "--norm", word)
    assert code == 0
    assert out.rstrip().endswith("= 24")


@pytest.mark.parametrize(
    "ctx, letter, last, norm", [("Z", "+1", "", 2000), ("Z x S3", "L:+1", "R:(12)", 2001)]
)
def test_integer_norm_does_not_depend_on_the_element_cap(capsys, ctx, letter, last, norm):
    """|n| along Z is closed form, so a norm of 2,000 answers under an
    element cap of 1,000 instead of exiting 4."""
    word = " ".join([letter] * 2000 + ([last] if last else []))
    code, out = run_cli(capsys, "group", "--ctx", ctx, "--element-cap", "1000", "--norm", word)
    assert code == 0
    assert out.rstrip().endswith(f"= {norm}")


def test_simulate_predictor_exit(tmp_path, capsys):
    wrapped = dict(DETECTOR)
    wrapped["heads"] = 3
    wrapped["states"] = [["scan", "hit"], ["idle"], ["idle"]]
    wrapped["rule"] = DETECTOR["rule"] + [
        {"head": None, "state": "idle", "patch": None, "move": "stay", "next": "idle"}
    ]
    wrapped["initial"] = [[
        {"offset": ["", 0], "state": "scan"},
        {"offset": ["", 0], "state": "idle"},
        {"offset": ["", 0], "state": "idle"},
    ]]
    wrapped["final"] = [[{"offset": ["", 0], "state": "hit"}, None, None]]
    spec_path = tmp_path / "wrapped.json"
    spec_path.write_text(json.dumps(wrapped))
    code, out = run_cli(
        capsys, "simulate", "--spec", str(spec_path), "--p", "1",
        "--predict", "--oracle", "1000000",
    )
    assert code == 0 and "predictor: halted" in out


def test_pipeline_small(capsys):
    code, out = run_cli(
        capsys, "pipeline", "--stages", "2", "--cap", "500", "--p-max", "8"
    )
    assert code == 0
    assert "mismatches: 0" in out


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    code, _ = run_cli(
        capsys, "group", "--ctx", "S3", "--ball", "2", "--out", str(out_path)
    )
    assert code == 0
    assert "ball radius 2" in out_path.read_text()


def report_body(report):
    """Every line after the manifest line."""
    return report.split("\nmanifest: ", 1)[1].split("\n", 1)[1]


README_PIPELINE = ("pipeline", "--phi", "identity", "--stages", "3", "--cap", "10000", "--p-max", "40")
# reports that finish because the probe-word rule gives each probe word
# without the ball it lies in: each is checked against a replay on a grown
# ball (`test_probe_rule_reports_agree_with_the_bfs_replay`)
PROBE_RULE_GOLDENS = [
    ("pipeline_readme_identity_stages3_cap10000_pmax40_Z_x_Z.txt", (*README_PIPELINE, "--g", "Z x Z")),
    (
        "pipeline_readme_identity_stages3_cap10000_pmax40_Z_x_grigorchuk.txt",
        (*README_PIPELINE, "--g", "Z x grigorchuk"),
    ),
    (
        "pipeline_tower5_stages1_pmax5_Z_x_grigorchuk.txt",
        ("pipeline", "--phi", "tower5", "--stages", "1", "--p-max", "5", "--g", "Z x grigorchuk"),
    ),
    (
        "pipeline_Z_x_grigorchuk_cap1000_pmax12.txt",
        ("pipeline", "--cap", "1000", "--p-max", "12", "--g", "Z x grigorchuk"),
    ),
    (
        "kgroup_embed_table40_Z_x_grigorchuk_zeros41.txt",
        ("kgroup", "--g", "Z x grigorchuk", "--oracle", "0" * 41, "--embed-table", "40"),
    ),
]


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("pipeline_cap1000_pmax12.txt", ("pipeline", "--cap", "1000", "--p-max", "12")),
        (
            "impred_table_psi12_cap1000.txt",
            ("impred", "--table", "--psi", "12", "--roster", "halt,loop,echo",
             "--cap", "1000"),
        ),
        (
            "kgroup_conj_Z_0110100110.txt",
            ("kgroup", "--g", "Z", "--h", "S3", "--oracle", "0110100110", "--conj"),
        ),
        (
            "kgroup_conj_grigorchuk_011010011.txt",
            ("kgroup", "--g", "grigorchuk", "--h", "S3", "--oracle", "011010011",
             "--conj"),
        ),
        (
            "group_grigorchuk_ball12_torsion9.txt",
            ("group", "--ctx", "grigorchuk", "--ball", "12", "--torsion", "9"),
        ),
        (
            "kgroup_wp_grigorchuk_embed4_nonmember.txt",
            ("kgroup", "--g", "grigorchuk", "--h", "S3", "--oracle", "0110000000000",
             "--wp", "M:(23):1 S:a S:b S:a S:b M:(12):1 S:b S:a S:b S:a "
             "M:(23):1 S:a S:b S:a S:b M:(12):1 S:b S:a S:b S:a"),
        ),
        (
            "pipeline_readme_identity_stages3_cap10000_pmax40.txt",
            ("pipeline", "--phi", "identity", "--stages", "3", "--cap", "10000",
             "--g", "Z", "--p-max", "40"),
        ),
        (
            "simulate_patrol_grigorchuk_r2_p3_cap1000_trace40.txt",
            ("simulate", "--spec", PATROL, "--p", "3", "--cap", "1000", "--membership",
             "--trace", "40"),
        ),
        (
            # the first 64 bits of grigorchuk's word problem run out at query 118
            "simulate_patrol_grigorchuk_r2_p3_cap1000_predict_wp64.txt",
            ("simulate", "--spec", PATROL, "--p", "3", "--cap", "1000", "--predict",
             "--oracle", "1000010000100001000010000000000000000000000000001001000000001000"),
        ),
        (
            "group_grigorchuk_distance_identity_enumerate6_index.txt",
            ("group", "--ctx", "grigorchuk", "--distance", "a b", "b a",
             "--identity", "a b a b a b a b", "--enumerate", "6", "--index", "a b"),
        ),
        ("group_Z_nothing_requested.txt", ("group", "--ctx", "Z")),
        ("kgroup_wp_Z_shift_image.txt", ("kgroup", "--oracle", "0", "--wp", "S:+1")),
        (
            # embed_element(K(Z, S3), 2): bit 2 lies past the 2-bit oracle
            "kgroup_wp_Z_embed2_oracle00_shortage.txt",
            ("kgroup", "--oracle", "00", "--wp",
             "M:(23):1 S:+1 S:+1 M:(12):1 S:-1 S:-1 M:(23):1 S:+1 S:+1 M:(12):1 S:-1 S:-1"),
        ),
        ("kgroup_witness0_oracle0000000.txt", ("kgroup", "--oracle", "0000000", "--witness", "0")),
        (
            "kgroup_witness100_oracle0000000.txt",
            ("kgroup", "--oracle", "0000000", "--witness", "100"),
        ),
        ("group_grigorchuk_torsion16.txt", ("group", "--ctx", "grigorchuk", "--torsion", "16")),
        (
            "group_S3_x_grigorchuk_torsion9_order.txt",
            ("group", "--ctx", "S3 x grigorchuk", "--torsion", "9",
             "--order", "L:(12) L:(23) R:a R:c"),
        ),
        (
            "kgroup_embed_table10_grigorchuk_0110000000000000000000.txt",
            ("kgroup", "--g", "grigorchuk", "--oracle", "0110000000000000000000",
             "--embed-table", "10"),
        ),
        (
            "kgroup_conj_Z_x_S3_0110100110.txt",
            ("kgroup", "--g", "Z x S3", "--h", "S3", "--oracle", "0110100110", "--conj"),
        ),
        (
            # the probe elements of Z x S3 sit at other ball indices than Z's
            "pipeline_Z_x_S3_cap1000_pmax12.txt",
            ("pipeline", "--cap", "1000", "--p-max", "12", "--g", "Z x S3"),
        ),
        (
            # a single-1 window moves: legal under every A, so no oracle bit is read
            "kgroup_wp_Z_moves_free_oracle00100.txt",
            ("kgroup", "--g", "Z", "--h", "S3", "--oracle", "00100",
             "--wp", "S:+1 M:(12):1 S:-1"),
        ),
        (
            # embed_element(K(Z, S3), 2) under an oracle holding 2
            "kgroup_wp_Z_embed2_oracle011_identity.txt",
            ("kgroup", "--oracle", "011", "--wp",
             "M:(23):1 S:+1 S:+1 M:(12):1 S:-1 S:-1 M:(23):1 S:+1 S:+1 M:(12):1 S:-1 S:-1"),
        ),
        ("kgroup_embed3_oracle00000.txt", ("kgroup", "--oracle", "00000", "--embed", "3")),
        (
            # probe 65,537 over Z times a finite group: closed forms past
            # the ball of radius D + 1
            "pipeline_tower5_stages1_pmax5_Z_x_S3.txt",
            ("pipeline", "--phi", "tower5", "--stages", "1", "--p-max", "5", "--g", "Z x S3"),
        ),
        (
            "pipeline_tower5_stages1_pmax5_S3_x_Z.txt",
            ("pipeline", "--phi", "tower5", "--stages", "1", "--p-max", "5", "--g", "S3 x Z"),
        ),
        (
            "pipeline_tower5_stages1_pmax5_Z.txt",
            ("pipeline", "--phi", "tower5", "--stages", "1", "--p-max", "5", "--g", "Z"),
        ),
        # a product group's ball listing: 404 elements in BFS order
        ("group_Z_x_grigorchuk_ball6.txt", ("group", "--ctx", "Z x grigorchuk", "--ball", "6")),
        *PROBE_RULE_GOLDENS,
        (
            "impred_readme_identity_stages3_cap10000_pmax40_table.txt",
            ("impred", "--phi", "identity", "--stages", "3", "--cap", "10000", "--table",
             "--roster", "halt,loop,echo", "--p-max", "40"),
        ),
    ],
)
def test_report_body_matches_golden(capsys, monkeypatch, golden, argv):
    monkeypatch.chdir(GOLDEN.parents[1])
    code, out = run_cli(capsys, *argv)
    assert code == (3 if "--predict" in argv or golden.endswith("_shortage.txt") else 0)
    assert report_body(out) == (GOLDEN / golden).read_text()


def test_pipeline_goldens_in_both_cap_orders_in_one_process(capsys):
    # both runs share one memoised skeleton, so the second reads halting
    # steps recorded by the first, at a larger or a smaller cap
    readme = (
        "pipeline_readme_identity_stages3_cap10000_pmax40.txt",
        ("pipeline", "--phi", "identity", "--stages", "3", "--cap", "10000",
         "--g", "Z", "--p-max", "40"),
    )
    small = ("pipeline_cap1000_pmax12.txt", ("pipeline", "--cap", "1000", "--p-max", "12"))
    for order in ((readme, small), (small, readme)):
        machines._build_skeleton.cache_clear()
        for golden, argv in order:
            code, out = run_cli(capsys, *argv)
            assert code == 0
            assert report_body(out) == (GOLDEN / golden).read_text(), golden


def test_impred_after_the_readme_pipeline_runs_no_machine(capsys, monkeypatch):
    """The README pipeline runs every reserved rule and every witness-scan
    run at cap 10,000, so `impred` jobs on the same skeleton at caps up to
    that one and p-max up to 40 read all their runs from its tables."""
    calls = []
    run_program = machines.run_program

    def counted(*args):
        calls.append(args)
        return run_program(*args)

    monkeypatch.setattr(machines, "run_program", counted)
    machines._build_skeleton.cache_clear()
    construction = ("--phi", "identity", "--stages", "3", "--roster", "echo,loop,halt")
    code, _ = run_cli(capsys, "pipeline", *construction, "--cap", "10000", "--g", "Z",
                      "--p-max", "40")
    assert code == 0 and calls
    calls.clear()
    for i in range(30):
        cap, p_max = (1000, 3000, 10000)[i % 3], 31 + i % 10
        table = ("--table",) if i % 2 == 0 else ()
        code, _ = run_cli(capsys, "impred", *construction, "--cap", str(cap),
                          "--p-max", str(p_max), *table)
        assert code == 0
    assert calls == []


@pytest.mark.parametrize(
    "argv, embedded",
    [
        (("--phi", "identity", "--stages", "3", "--cap", "10000", "--g", "Z", "--p-max", "40"), 36),
        (("--cap", "1000", "--p-max", "12"), 8),
    ],
)
def test_pipeline_transports_each_probe_position_once(capsys, monkeypatch, argv, embedded):
    """Every witness line equals one rebuilt per witness (embedding word,
    reduced bit and length-lex index each computed afresh), while the
    report reads the first letters of each distinct nonzero probe
    position's word once, and builds the embedding word only of a position
    whose index it prints."""
    calls, built = [], []
    embed_element, embed_prefix = kgroup.embed_element, kgroup.embed_prefix

    def counted(ctx, n, k):
        calls.append(n)
        return embed_prefix(ctx, n, k)

    def counted_word(ctx, n):
        built.append(n)
        return embed_element(ctx, n)

    monkeypatch.setattr(kgroup, "embed_prefix", counted)
    monkeypatch.setattr(kgroup, "embed_element", counted_word)
    code, out = run_cli(capsys, "pipeline", *argv)
    assert code == 0
    _, prefix, report = cli._construction(cli._parser().parse_args(["pipeline", *argv]))
    ctx = kgroup.KContext(groups.group_context("Z"), groups.group_context("S3"), prefix)
    expected, short = [], set()
    for ws in report.witnesses.values():
        for w in ws:
            n = w.position
            word = embed_element(ctx, n) if n >= 1 else (kgroup.KGen("S", "+1"),)
            bit = kgroup.conj_verdict(prefix, kgroup.analyze_word(ctx, word))
            idx = kgroup.kword_index(ctx, word)
            digits = groups.decimal_length(idx)
            if n and digits <= 12:
                short.add(n)
            idx_repr = groups.decimal_digits(idx) if digits <= 12 else f"~10^{digits - 1}"
            match = bit is not None and (bit == 1) == w.member
            expected.append(
                f"  p={w.p} probe={n} member={int(w.member)} halted={int(w.halted)} "
                f"word_index={idx_repr} reduced_bit={bit} match={match}"
            )
    assert [line for line in out.splitlines() if line.startswith("  p=")] == expected
    nonzero = [w.position for ws in report.witnesses.values() for w in ws if w.position]
    assert sorted(calls) == sorted(set(nonzero))
    assert len(calls) == embedded < len(nonzero)
    assert sorted(built) == sorted(short)


def test_tower5_pipeline_over_z_grows_no_ball(capsys):
    """Probe 65,537 is answered in closed form over Z: no ball of 131,075
    elements and no embedding word of 262,152 letters is built."""
    tracemalloc.start()
    try:
        code, out = run_cli(capsys, "pipeline", "--phi", "tower5", "--stages", "1", "--p-max", "5")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "probe=65537 member=0 halted=0 word_index=~10^236746" in out
    assert out.endswith("transported witnesses: 2, mismatches: 0\n")
    assert peak < 2 * 1024 * 1024


def test_pipeline_over_grigorchuk_times_z_stays_on_the_bfs(capsys):
    """An infinite factor declared before Z leaves no probe-word rule: the
    BFS reaches the element cap, and the run writes no partial report."""
    code = main(["pipeline", "--cap", "1000", "--p-max", "12", "--g", "grigorchuk x Z"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == "capacity: element cap 200000 reached; largest complete radius is 20\n"


def test_probe_rule_reports_agree_with_the_bfs_replay():
    """At every probe position of norm at most 20, each golden report the
    probe-word rule lets finish prints the verdict, length and index of
    the embedding word built from the BFS's first sphere word, with the
    rule switched off, and replayed by `wp_k` on that grown ball."""
    grown, checked = {}, []
    bit_of = {kind: str(bit) for bit, kind in kgroup.VERDICT.items()}
    for golden, argv in PROBE_RULE_GOLDENS:
        out = (GOLDEN / golden).read_text()
        g_name = argv[argv.index("--g") + 1]
        if g_name not in grown:
            grown[g_name] = groups.group_context(g_name)
            grown[g_name]._line_radius = None  # every probe word read up the BFS parents
        if argv[0] == "kgroup":
            prefix = OraclePrefix(argv[argv.index("--oracle") + 1])
            rows = re.findall(r"^n=(\d+) len=(\d+) verdict=(\w+) ", out, re.M)
            columns = [(int(n), (int(length), verdict)) for n, length, verdict in rows]
        else:
            _, prefix, _ = cli._construction(cli._parser().parse_args(argv))
            lines = re.findall(r" probe=(\d+) .* word_index=(\S+) reduced_bit=(\w+) ", out)
            columns = [(int(n), (index, bit)) for n, index, bit in lines]
        ctx = kgroup.KContext(grown[g_name], groups.group_context("S3"), prefix)
        for n, column in columns:
            if not 1 <= n <= 20:
                continue
            word = kgroup.embed_element(ctx, n)
            res = kgroup.wp_k(ctx, word)
            if argv[0] == "kgroup":
                assert column == (len(word), res.kind), (golden, n)
            else:
                digits = groups.decimal_digits(kgroup.kword_index(ctx, word))
                index = digits if len(digits) <= 12 else f"~10^{len(digits) - 1}"
                assert column == (index, bit_of[res.kind]), (golden, n)
            checked.append(golden)
    assert len(set(checked)) == len(PROBE_RULE_GOLDENS) - 1  # tower5 probes only 65,537
    assert len(grown["Z x grigorchuk"]._layer_end) - 1 == 20


@pytest.mark.parametrize(
    "g_name, r",
    [("Z", 1), ("Z x S3", 1), ("Z x Z", 1), ("Z x grigorchuk", 1), ("grigorchuk", 0)],
)
def test_embed_table_past_the_element_cap_stays_within_ball_r(capsys, monkeypatch, g_name, r):
    """Every `--embed-table` row is decided by its oracle bit, and no
    witness window is built: with G's element cap just above |ball(R)|,
    R = D + 1 under the probe-word rule and 0 where no rule applies, the
    rows run far past the cap and G's BFS never grows past R."""
    cap = len(groups.ball(groups.group_context(g_name), r)) + 1
    made = {}

    def group(spec_id, **options):
        if spec_id == g_name:
            options["element_cap"] = cap
        made[spec_id] = groups.group_context(spec_id, **options)
        return made[spec_id]

    monkeypatch.setattr(cli, "_group", group)
    n = 500
    code, out = run_cli(
        capsys, "kgroup", "--g", g_name, "--oracle", "0" * (n + 1), "--embed-table", str(n)
    )
    assert code == 0
    rows = re.findall(r"^n=(\d+) len=(\d+) verdict=(\w+) oracle_bit=(\d)$", out, re.M)
    assert rows == [(str(k), str(4 * k + 4), "non_identity", "0") for k in range(1, n + 1)]
    assert len(made[g_name]._layer_end) - 1 <= r


def test_pipeline_replays_only_position_zero_and_indexes_only_short_words(capsys, monkeypatch):
    """An embedding word's reads come from its probe element and its
    index's digit count from its first letters: only the position-0 word
    is replayed, and only indices of at most 12 digits are built."""
    replayed, indexed = [], []
    word_footprint, kword_index = kgroup.word_footprint, kgroup.kword_index

    def footprint(ctx, word):
        replayed.append(word)
        return word_footprint(ctx, word)

    def index(ctx, word):
        indexed.append(kword_index(ctx, word))
        return indexed[-1]

    monkeypatch.setattr(kgroup, "word_footprint", footprint)
    monkeypatch.setattr(kgroup, "kword_index", index)
    golden = "pipeline_readme_identity_stages3_cap10000_pmax40.txt"
    code, out = run_cli(
        capsys, "pipeline", "--phi", "identity", "--stages", "3", "--cap", "10000",
        "--g", "Z", "--p-max", "40",
    )
    assert code == 0
    assert report_body(out) == (GOLDEN / golden).read_text()
    assert replayed == [(kgroup.KGen("S", "+1"),)]
    assert sorted(indexed) == [1, 12987490]


def test_other_errors_exit_one(tmp_path, capsys):
    gap = tmp_path / "gap.json"
    gap.write_text(json.dumps(RULE_GAP))
    code = main(["simulate", "--spec", str(gap), "--membership"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")


def test_product_group_tokens(capsys):
    code, out = run_cli(capsys, "kgroup", "--g", "Z x S3", "--wp", "S:L:+1 S:L:-1")
    assert code == 0 and "verdict: identity" in out
    code, out = run_cli(
        capsys, "kgroup", "--g", "Z x S3", "--h", "S3", "--oracle", "0110100110",
        "--conj",
    )
    assert code == 0 and "width 16105" in out


# spec files by name: SPEC is a valid spec, the other names malformed specs
SPEC_TEXTS = {
    "SPEC": json.dumps(DETECTOR),
    "BAD_GROUP": json.dumps(dict(DETECTOR, group="nonsense")),
    "NOT_JSON": "{not json",
    "NO_RULE": json.dumps({k: v for k, v in DETECTOR.items() if k != "rule"}),
    "NULL_FINAL": json.dumps(dict(DETECTOR, final=[[None]])),
    "RULE_NOT_LIST": json.dumps(dict(DETECTOR, rule=5)),
    "BAD_MOVE": json.dumps(
        dict(DETECTOR, rule=[dict(e, move="g:q") for e in DETECTOR["rule"]])
    ),
    "BAD_OFFSET": json.dumps(
        dict(DETECTOR, initial=[[{"offset": ["q", 0], "state": "scan"}]])
    ),
    "RULE_ITEM_NOT_OBJECT": json.dumps(dict(DETECTOR, rule=[5])),
    "OTHERS_ITEM_NOT_OBJECT": json.dumps(
        dict(DETECTOR, rule=[dict(e, others=[["x"]]) for e in DETECTOR["rule"]])
    ),
    "OFFSET_STRING": json.dumps(
        dict(DETECTOR, initial=[[{"offset": "x", "state": "scan"}]])
    ),
    "OFFSET_ONE_ITEM": json.dumps(
        dict(DETECTOR, initial=[[{"offset": [""], "state": "scan"}]])
    ),
    "NULL_GROUP": json.dumps(dict(DETECTOR, group=None)),
    "NO_INITIAL": json.dumps(dict(DETECTOR, initial=[])),
}


@pytest.mark.parametrize(
    "argv",
    [
        ("group", "--ctx", "nonsense"),
        ("kgroup", "--oracle", "012", "--conj"),
        ("group", "--ctx", "Z", "--ball", "-1"),
        ("group", "--ctx", "grigorchuk", "--order", "a", "--cap", "0"),
        ("group", "--ctx", "grigorchuk", "--torsion", "3", "--cap", "0"),
        ("group", "--ctx", "grigorchuk", "--torsion", "-1"),
        ("group", "--ctx", "Z", "--torsion", "2"),
        ("kgroup", "--order", "M:(12):1", "--cap", "0"),
        ("kgroup", "--embed", "0"),
        ("kgroup", "--oracle", "000", "--witness", "-1"),
        ("kgroup", "--embed-table", "-1"),
        ("group", "--ctx", "Z", "--enumerate", "-1"),
        ("simulate", "--spec", "MISSING"),
        ("kgroup", "--oracle-file", "MISSING", "--conj"),
        ("simulate", "--spec", "SPEC", "--p", "0", "--membership"),
        ("simulate", "--spec", "SPEC", "--cap", "-1", "--membership"),
        ("simulate", "--spec", "SPEC", "--trace", "-1"),
        ("simulate", "--spec", "SPEC", "--predict", "--oracle", "01"),
        ("impred", "--stages", "-1"),
        ("impred", "--psi", "-1"),
        ("impred", "--roster", "halt", "--p-max", "-1"),
        ("pipeline", "--p-max", "-1", "--cap", "100"),
        ("pipeline", "--stages", "-1"),
        ("impred", "--cap", "-1"),
        ("impred", "--cap", "0"),
        ("pipeline", "--cap", "-1", "--p-max", "2"),
        ("pipeline", "--cap", "0", "--p-max", "2"),
        ("group", "--ctx", "Z", "--element-cap", "-5", "--ball", "1"),
        ("group", "--ctx", "Z", "--element-cap", "0", "--ball", "1"),
        ("impred", "--budget", "-1"),
        ("impred", "--budget", "0"),
        ("pipeline", "--budget", "-1", "--p-max", "2"),
        ("pipeline", "--budget", "0", "--p-max", "2"),
        ("simulate", "--spec", "BAD_GROUP", "--membership"),
        ("simulate", "--spec", "NOT_JSON", "--membership"),
        ("simulate", "--spec", "NO_RULE", "--membership"),
        ("simulate", "--spec", "NULL_FINAL", "--membership"),
        ("simulate", "--spec", "RULE_NOT_LIST", "--membership"),
        # the finite S3 has no element of norm 3 or more to embed with
        ("kgroup", "--g", "S3", "--embed", "4"),
        ("kgroup", "--g", "S3", "--embed-table", "6"),
        ("pipeline", "--g", "S3", "--cap", "1000", "--p-max", "12"),
        ("simulate", "--spec", "BAD_MOVE", "--membership"),
        ("simulate", "--spec", "BAD_OFFSET", "--membership"),
        ("group", "--ctx", "Z", "--ball", "1", "--out", "UNWRITABLE"),
        ("kgroup", "--h", "Z", "--order", "M:+1:1"),
        ("simulate", "--spec", "RULE_ITEM_NOT_OBJECT", "--membership"),
        ("simulate", "--spec", "OTHERS_ITEM_NOT_OBJECT", "--membership"),
        ("impred", "--roster", "foo"),
        ("pipeline", "--roster", "halt,foo"),
        ("impred", "--roster", ","),
        # a machine named twice
        ("impred", "--roster", "halt,halt", "--cap", "1000", "--p-max", "3"),
        ("pipeline", "--roster", "halt,halt", "--cap", "1000", "--p-max", "3"),
        # an abelian state group has no noncommuting pair to embed with
        ("kgroup", "--h", "Z", "--embed", "2"),
        ("kgroup", "--h", "Z", "--embed-table", "2"),
        # the oracle options are checked without --predict too
        ("simulate", "--spec", "SPEC", "--membership", "--oracle", "012"),
        ("simulate", "--spec", "SPEC", "--membership", "--oracle-file", "MISSING"),
        # spec shapes the build would otherwise index blindly
        ("simulate", "--spec", "OFFSET_STRING", "--membership"),
        ("simulate", "--spec", "OFFSET_ONE_ITEM", "--membership"),
        ("simulate", "--spec", "NULL_GROUP", "--membership"),
        ("simulate", "--spec", "NO_INITIAL", "--trace", "3"),
        # an unknown generator or malformed token in a word option
        ("group", "--ctx", "S3", "--norm", "q"),
        ("group", "--ctx", "S3", "--distance", "q", ""),
        ("group", "--ctx", "S3", "--identity", "q"),
        ("group", "--ctx", "S3", "--order", "q"),
        ("group", "--ctx", "S3", "--index", "q"),
        ("kgroup", "--wp", "S:q"),
        ("kgroup", "--wp", "M:(12)"),
        ("kgroup", "--order", "e"),
    ],
)
def test_bad_input_exits_two(tmp_path, capsys, argv):
    """MISSING names a file that does not exist, UNWRITABLE a path inside
    a missing directory, SPEC a valid spec, and the other capitals
    malformed specs."""
    paths = {
        "MISSING": str(tmp_path / "missing"),
        "UNWRITABLE": str(tmp_path / "missing" / "report.txt"),
    }
    for name, text in SPEC_TEXTS.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(text)
    code = main([paths.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.out == ""
    if set(argv) & (SPEC_TEXTS.keys() - {"SPEC"}):
        assert captured.err.startswith("error: --spec: malformed spec")


def test_reduction_past_its_width_limit_exits_four(capsys):
    """A 21-bit --conj over K(Z, S3) would be 1,227,133,513 bits wide; it
    is refused from the width alone, before anything of that size is
    allocated."""
    bits = "0" * 21
    assert kgroup.reduction_width(kgroup.make_kcontext("Z", "S3"), 21) == 1_227_133_513
    tracemalloc.start()
    try:
        code = main(["kgroup", "--g", "Z", "--h", "S3", "--oracle", bits, "--conj"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert str(kgroup.MAX_REDUCTION_WIDTH) in captured.err
    assert peak < 1 << 20


def test_order_oracle_shortage_exits_three(capsys):
    ctx = kgroup.make_kcontext("Z", "S3", "")
    tokens = kgroup.format_kword(kgroup.embed_element(ctx, 2))
    code = main(["kgroup", "--oracle", "00", "--order", tokens])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("oracle shortage:")


# one instance of every error type, with the exit code the README documents
# for it and the label of its stderr line
ERROR_TABLE = [
    (errors.GroupwalkError("plain"), 1, "error"),
    (errors.UsageError("--cap must be >= 1"), 2, "error"),
    (errors.ContextError("element of another context"), 1, "error"),
    (errors.UnknownGeneratorError("q is not a letter of S3"), 2, "error"),
    (errors.CapacityError(3, 100), 4, "capacity"),
    (errors.ReductionWidthError(1_227_133_513, kgroup.MAX_REDUCTION_WIDTH), 4, "error"),
    (errors.CapExceededError(5), 4, "capacity"),
    (errors.OracleShortageError("oracle too short"), 3, "oracle shortage"),
    (errors.PrefixTooShortError(9, 4), 3, "oracle shortage"),
    (errors.OracleExhausted(7), 3, "oracle shortage"),
    (errors.BudgetExceededError(2, 2**20, 4096), 4, "capacity"),
    (errors.RateError("rate decreases"), 1, "error"),
    (errors.SpecificationError("no rule entry"), 1, "error"),
    (kgroup.OrderNeedsOracle(5), 3, "oracle shortage"),
]


def _error_types(cls=errors.GroupwalkError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_types(sub)


def test_error_table_covers_every_error_type():
    assert sorted(type(exc).__name__ for exc, _, _ in ERROR_TABLE) == sorted(
        cls.__name__ for cls in _error_types()
    )


@pytest.mark.parametrize(
    "exc, code, label", ERROR_TABLE, ids=[type(exc).__name__ for exc, _, _ in ERROR_TABLE]
)
def test_each_error_type_exits_with_its_documented_code(capsys, monkeypatch, exc, code, label):
    """The type carries its exit code and label, and `main` returns the code
    after one stderr line `<label>: <message>` and no report."""
    assert (type(exc).exit_code, type(exc).label) == (code, label)

    def raise_it(args):
        raise exc

    def parse_args(argv):
        args = cli.build_parser().parse_args(argv)
        args.func = raise_it
        return args

    monkeypatch.setattr(cli, "_parser", lambda: types.SimpleNamespace(parse_args=parse_args))
    assert main(["group", "--ctx", "Z"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{label}: {exc}\n"


def test_embed_table_decides_long_grigorchuk_embeddings(capsys):
    """Witness windows over balls far past the element cap need no ball."""
    oracle = "0110000000000000000000"
    code, out = run_cli(
        capsys, "kgroup", "--g", "grigorchuk", "--oracle", oracle, "--embed-table", "10"
    )
    assert code == 0
    rows = re.findall(r"^n=(\d+) len=\d+ verdict=(\w+) oracle_bit=(\d)$", out, re.M)
    assert [int(n) for n, _, _ in rows] == list(range(1, 11))
    for n, verdict, bit in rows:
        assert bit == oracle[int(n)]
        assert verdict == ("identity" if bit == "1" else "non_identity")


def test_embed_index_past_str_digit_limit(capsys):
    """A length-lex index longer than str()'s 4,300-digit limit prints in full."""
    code, out = run_cli(capsys, "kgroup", "--g", "Z x S3", "--embed", "1100")
    assert code == 0
    digits = re.search(r"^index = (\d+)$", out, re.M).group(1)
    assert len(digits) > 4300 and digits[0] != "0"
    ctx = kgroup.make_kcontext("Z x S3", "S3")
    assert digits == groups.decimal_digits(kgroup.many_one_index(ctx, 1100))
    # pinned apart from the digit conversions, as the CI step checks it
    body = "".join(out.splitlines(keepends=True)[3:]).encode()
    want = (GOLDEN / "kgroup_embed1100_Z_x_S3.sha256").read_text().split()[0]
    assert hashlib.sha256(body).hexdigest() == want


@pytest.mark.parametrize("bits", ["011010011010110", "01101001101011010"])
def test_wide_conj_report_matches_its_sha256(capsys, bits):
    """The 15- and 17-bit K(Z, S3) reductions, 2,396,745 and 19,173,961
    bits: from 17 bits on, Z words move two-1 windows, so the carried
    pair multipliers and the prefix's bits at their distances decide
    some of the 1s.  Pinned apart from the report head, as the CI steps
    check them."""
    code, out = run_cli(capsys, "kgroup", "--g", "Z", "--h", "S3", "--oracle", bits, "--conj")
    assert code == 0
    body = "".join(out.splitlines(keepends=True)[3:]).encode()
    want = (GOLDEN / f"kgroup_conj_Z_{bits}.sha256").read_text().split()[0]
    assert hashlib.sha256(body).hexdigest() == want


def test_wide_grigorchuk_reduction_is_refused(capsys):
    """K(grigorchuk, S3) has ten letters, so a 17-bit prefix asks for
    111,111,111 bits, past the width limit: one error line, exit 4."""
    ctx = kgroup.make_kcontext("grigorchuk", "S3")
    assert len(ctx.generators) == 10 and kgroup.reduction_width(ctx, 17) == 111_111_111
    code = main(["kgroup", "--g", "grigorchuk", "--h", "S3", "--oracle", "0" * 17, "--conj"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "111111111" in captured.err


def test_parser_is_built_once_and_calls_stay_independent(capsys, monkeypatch):
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    _, first = run_cli(capsys, "group", "--ctx", "Z", "--ball", "1")
    _, second = run_cli(capsys, "group", "--ctx", "Z", "--norm", "+1")
    assert len(built) <= 1  # none when an earlier test already made it
    # no option of the first call leaks into the second's manifest or body
    assert '"ball": 1' in first and '"ball"' not in second
    assert "ball radius" not in second and "norm +1 = 1" in second
    assert main(["group", "--ctx", "Z", "--ball", "-1"]) == 2
    assert run_cli(capsys, "group", "--ctx", "Z", "--ball", "1")[1] == first


def test_readme_spec_block_runs(tmp_path, capsys, monkeypatch):
    """README's json blocks, saved under the names its command list uses,
    run that list's `simulate` lines."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert len(blocks) == 2
    for name, block in zip(("detector.json", "wrapped.json"), blocks):
        (tmp_path / name).write_text(block)
    monkeypatch.chdir(tmp_path)
    expected = {1: "p=1: RejectedWitness phase=0 step=1", 2: "p=2: InS"}
    for p, line in expected.items():
        code, out = run_cli(
            capsys, "simulate", "--spec", "detector.json", "--p", str(p), "--membership"
        )
        assert code == 0 and line in out
    lines = re.findall(r"^groupwalk (simulate .*)$", readme, re.M)
    assert [line.split()[2] for line in lines] == ["detector.json", "wrapped.json"]
    for line, want in zip(lines, ("p=2: InS", "predictor: halted")):
        code, out = run_cli(capsys, *shlex.split(line))
        assert code == 0 and want in out


# -- seeded argv fuzz ----------------------------------------------------------

FUZZ_SPECS = dict(
    SPEC_TEXTS,
    # three heads, so --predict runs; head 0 asks the oracle about +1 and -1
    THREE=json.dumps({
        "group": "Z", "heads": 3, "radius": 1,
        "states": [["a", "b"], ["idle"], ["idle"]],
        "rule": [
            {"head": 0, "state": "a", "patch": None, "move": "g:+1", "next": "b"},
            {"head": 0, "state": "b", "patch": None, "move": "g:-1", "next": "a"},
            {"head": None, "state": "idle", "patch": None, "move": "stay", "next": "idle"},
        ],
        "initial": [[{"offset": ["", 0], "state": "a"},
                     {"offset": ["", 0], "state": "idle"},
                     {"offset": ["", 0], "state": "idle"}]],
        "final": [[{"offset": ["+1", 0], "state": "b"},
                   {"offset": ["", 0], "state": "idle"}, None]],
    }),
    GAP=json.dumps(RULE_GAP),  # the one exit 1 without a report
    NO_STATES=json.dumps({k: v for k, v in DETECTOR.items() if k != "states"}),
    HEADS_STRING=json.dumps(dict(DETECTOR, heads="1")),
    NOT_OBJECT="[]",
)
FUZZ_GROUPS = ("Z", "S3", "grigorchuk", "Z x S3", "S3 x grigorchuk", "nonsense", "", "Z x")
FUZZ_WORDS = ("", "q", "a b", "+1 -1", "a c a", "L:+1 R:a", "L:", "(12) (23)", "e")
FUZZ_KWORDS = ("S:+1", "S:q", "M:(12)", "M:(12):1", "S:+1 M:(23):1 S:-1", "", "e", "X:1",
               "S:L:+1 S:R:a")
FUZZ_ORACLES = ("", "0", "01", "0110", "012", "ab", "0110100110", "01101001101")  # <= 11 bits
FUZZ_ORACLE_FILES = ("MISSING", "BITS", "BAD_BITS")
FUZZ_RATES = ("identity", "linear", "square", "exp", "tower5", "warp")
# --stages <= 3 and --p-max <= 12 keep a construction cheap.  A Grigorchuk
# walking group is left out of pipeline's --g: probes past norm 25 grow its
# BFS to the element cap, about a second a run, and exit 4 (README).
FUZZ_CONSTRUCTION = {
    "--phi": FUZZ_RATES,
    "--stages": ("-1", "0", "1", "2", "3", "x"),
    "--cap": ("-1", "0", "1", "100", "1000", "x"),
    "--budget": ("-1", "0", "1", "16", "4096", "x"),
    "--p-max": ("-1", "0", "5", "12", "x"),
}
FUZZ_OPTIONS = {  # option -> pool of values; None marks a flag
    "group": {
        "--ctx": FUZZ_GROUPS, "--element-cap": ("-1", "0", "1", "5", "1000", "x"),
        "--ball": ("-1", "0", "1", "3", "x"), "--norm": FUZZ_WORDS, "--distance": FUZZ_WORDS,
        "--identity": FUZZ_WORDS, "--order": FUZZ_WORDS, "--torsion": ("-1", "0", "1", "3", "x"),
        "--cap": ("-1", "0", "1", "8", "x"), "--enumerate": ("-1", "0", "5", "1.5"),
        "--index": FUZZ_WORDS,
    },
    "kgroup": {
        "--g": FUZZ_GROUPS, "--h": FUZZ_GROUPS, "--oracle": FUZZ_ORACLES,
        "--oracle-file": FUZZ_ORACLE_FILES, "--wp": FUZZ_KWORDS,
        "--embed": ("-1", "0", "1", "3", "x"), "--embed-table": ("-1", "0", "2", "5", "12", "x"),
        "--conj": None, "--witness": ("-1", "0", "2", "100", "x"), "--order": FUZZ_KWORDS,
        "--cap": ("-1", "0", "1", "8", "x"),
    },
    "impred": dict(
        FUZZ_CONSTRUCTION, **{"--table": None, "--psi": ("-1", "0", "5", "x"),
                              "--roster": ("halt", "halt,loop,echo", "foo", ",", "", "loop")}
    ),
    "simulate": {
        "--spec": tuple(FUZZ_SPECS) + ("PATROL", "MISSING"),
        "--p": ("-1", "0", "1", "2", "3", "x"), "--cap": ("-1", "0", "1", "10", "100", "x"),
        "--membership": None, "--trace": ("-1", "0", "3", "x"), "--predict": None,
        "--oracle": FUZZ_ORACLES, "--oracle-file": FUZZ_ORACLE_FILES,
    },
    "pipeline": dict(
        FUZZ_CONSTRUCTION, **{"--g": ("Z", "S3", "Z x S3", "nonsense", ""),
                              "--roster": ("halt", "halt,loop,echo", "foo", ",", "", "echo")}
    ),
}
FUZZ_REQUIRED = {  # drawn when left out: required, or a default past the caps
    "group": ("--ctx", FUZZ_GROUPS),
    "simulate": ("--spec", tuple(FUZZ_SPECS)),
    "impred": ("--p-max", ("0", "5", "12")),
    "pipeline": ("--p-max", ("0", "5", "12")),
}
FUZZ_SHORTAGE_VERDICTS = ("verdict: needs_oracle", "verdict=needs_oracle",
                          "predictor: oracle_exhausted")


def fuzz_argv(rng, paths):
    """One argv: a subcommand, each of its options with chance 1/4, and
    --out with chance 1/10.  A capital value names a file in `paths`."""
    command = rng.choice(sorted(FUZZ_OPTIONS))
    argv = [command]
    for option, pool in FUZZ_OPTIONS[command].items():
        if rng.random() < 0.25:
            count = 0 if pool is None else 2 if option == "--distance" else 1
            argv += [option] + [rng.choice(pool) for _ in range(count)]
    if command in FUZZ_REQUIRED and FUZZ_REQUIRED[command][0] not in argv:
        argv += [FUZZ_REQUIRED[command][0], rng.choice(FUZZ_REQUIRED[command][1])]
    if rng.random() < 0.1:
        argv += ["--out", rng.choice(("OUT", "UNWRITABLE"))]
    return [paths.get(a, a) for a in argv]


def test_seeded_argv_fuzz_ends_in_documented_exit_codes(tmp_path, capsys):
    """2,000 argv drawn from small pools of edge values over all five
    subcommands.  Nothing but argparse's own exit 2 escapes `main`; a
    report comes only with exit 0, a shortage verdict (exit 3) or a
    pipeline mismatch (exit 1); every other exit writes one stderr line
    and no stdout, and exit 1 without a report is a rule gap."""
    paths = {
        "MISSING": str(tmp_path / "missing"),
        "UNWRITABLE": str(tmp_path / "missing" / "report.txt"),
        "OUT": str(tmp_path / "report.txt"),
        "PATROL": PATROL,
        "BITS": str(tmp_path / "bits.txt"),
        "BAD_BITS": str(tmp_path / "bad_bits.txt"),
    }
    (tmp_path / "bits.txt").write_text("0110\n")
    (tmp_path / "bad_bits.txt").write_text("01x\n")
    for name, text in FUZZ_SPECS.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(text)
    out_path = tmp_path / "report.txt"
    rng = random.Random(2024)
    codes = set()
    for _ in range(2000):
        argv = fuzz_argv(rng, paths)
        out_path.unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            assert exc.code == 2, argv
            assert capsys.readouterr().out == "", argv
            continue
        captured = capsys.readouterr()
        errors = captured.err.splitlines()
        codes.add(code)
        assert code in range(5), argv
        report = captured.out or (out_path.exists() and out_path.read_text())
        if report:
            assert errors == [], argv
            assert (
                code == 0
                or code == 3 and any(v in report for v in FUZZ_SHORTAGE_VERDICTS)
                or code == 1 and argv[0] == "pipeline"
                and not report.endswith("mismatches: 0\n")
            ), argv
            continue
        assert code != 0 and captured.out == "", argv
        assert len(errors) == 1, argv
        assert errors[0].startswith(("error:", "oracle shortage:", "capacity:")), argv
        if code == 1:
            assert paths["GAP"] in argv and errors[0].startswith("error: no rule entry"), argv
    assert codes == {0, 1, 2, 3, 4}
