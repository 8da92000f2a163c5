"""The four seeded workloads: job lists, work units and output checks.

Each workload turns a seeded `random.Random` into a fixed-shape job list.
The seed draws the content of the inputs (A-prefix bits, job order,
roster order, walker paths, words); the sizes that set the amount
of work are fixed multisets, so that a run costs about the same under
every seed and run-to-run spread measures the program, not the draw.

A job is a `groupwalk.cli.main(argv)` call whose report goes to a file,
or a direct library call where the CLI has no matching operation.
Checks read the reports after the timed region; a wrong answer fails the
run, it is never counted as a job failure.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field

ROSTER = ("halt", "loop", "echo")


@dataclass
class Job:
    label: str
    argv: list | None = None  # CLI argv without --out
    call: object = None  # zero-argument library call
    info: dict = field(default_factory=dict)  # what the checks and work units need


def _shuffled(rng, values):
    values = list(values)
    rng.shuffle(values)
    return values


def _bits(rng, length):
    return "".join(rng.choice("01") for _ in range(length))


# -- construct ------------------------------------------------------------------


def plan_construct(rng, gw, tmp, small):
    def roster():
        return ",".join(_shuffled(rng, ROSTER))

    base_cap, base_pmax = (1000, 10) if small else (10000, 40)
    # the README baseline comes first, so it pays the counter-machine steps
    # that later jobs at the same or smaller caps reuse
    jobs = [Job(
        "pipeline baseline",
        ["pipeline", "--phi", "identity", "--stages", "3", "--cap", str(base_cap),
         "--g", "Z", "--p-max", str(base_pmax), "--roster", roster()],
        info={"kind": "pipeline"},
    )]
    n_pipe, n_impred = (1, 2) if small else (3, 30)
    caps = (1000, 3000, 10000)
    rest = []
    for cap, pmax in list(zip(caps, (12, 10, 8)))[:n_pipe]:
        rest.append(Job(
            "pipeline",
            ["pipeline", "--phi", "identity", "--stages", "3", "--cap", str(cap),
             "--g", "Z", "--p-max", str(pmax), "--roster", roster()],
            info={"kind": "pipeline"},
        ))
    # (cap, p-max, table) triples are fixed; the seed orders the jobs and rosters
    for i in range(n_impred):
        cap, pmax, table = caps[i % 3], 31 + i % 10, i % 2 == 0
        argv = ["impred", "--phi", "identity", "--stages", "3", "--cap", str(cap),
                "--roster", roster(), "--p-max", str(pmax)]
        if table:
            argv.append("--table")
        rest.append(Job("impred", argv, info={"kind": "impred"}))
    return jobs + _shuffled(rng, rest)


_TRANSPORT = re.compile(r"^transported witnesses: (\d+), mismatches: (\d+)$", re.M)


def units_construct(job, report):
    m = _TRANSPORT.search(report) if job.info["kind"] == "pipeline" else None
    return int(m.group(1)) if m else 0


def check_construct(job, report, checker):
    if job.info["kind"] != "pipeline":
        return []
    m = _TRANSPORT.search(report)
    if m is None or m.group(2) != "0":
        return [f"{job.label}: report does not say mismatches: 0"]
    return []


# -- reduce ---------------------------------------------------------------------


def plan_reduce(rng, gw, tmp, small):
    def conj(g, length):
        bits = _bits(rng, length)
        return Job(
            f"conj K({g}, S3) {length} bits",
            ["kgroup", "--g", g, "--h", "S3", "--oracle", bits, "--conj"],
            info={"g": g, "prefix": bits},
        )

    # product generators are written S:L:+1, which parse_kword cannot read
    # back; the job stays as a known failure
    jobs = [conj("Z x S3", rng.choice((9, 10)))]
    n_z, n_grig = (1, 1) if small else (24, 8)
    if not small:
        jobs.append(conj("Z", rng.choice((11, 12))))  # 37,449 output bits
    jobs += [conj("Z", rng.choice((9, 10))) for _ in range(n_z)]  # 4,681 bits each
    jobs += [conj("grigorchuk", rng.choice((9, 10))) for _ in range(n_grig)]  # 11,111
    return _shuffled(rng, jobs)


_BITS = re.compile(r"^bits: ([01]*)$", re.M)


def units_reduce(job, report):
    m = _BITS.search(report)
    return len(m.group(1)) if m else 0


def check_reduce(job, report, checker):
    """A seeded sample of output bits, two 1s and two 0s where present,
    re-decided by the brute-force window fold of tests/oracles.py."""
    m = _BITS.search(report)
    if m is None:
        return [f"{job.label}: no bits line"]
    bits = m.group(1)
    ones = [i for i, b in enumerate(bits) if b == "1"]
    zeros = [i for i, b in enumerate(bits) if b == "0"]
    rng = checker.rng
    sample = rng.sample(ones, min(2, len(ones))) + rng.sample(zeros, min(2, len(zeros)))
    ctx = checker.gw.kgroup.make_kcontext(job.info["g"], "S3", job.info["prefix"])
    problems = []
    for i in sample:
        word = checker.gw.kgroup.kword_from_index(ctx, i)
        verdict, _ = checker.oracles.brute_wp(ctx, word)
        if (verdict == "identity") != (bits[i] == "1"):
            problems.append(f"{job.label}: bit {i} is {bits[i]}, brute force says {verdict}")
    return problems


# -- tree -----------------------------------------------------------------------

CHECK_RADIUS = 5  # ball sizes up to here are compared with tree signatures
CHECK_DEPTH = 8  # also decides the identity queries (words of at most 12 letters)
RELATORS = (("a", "a"), ("b", "c", "d"), tuple("ad" * 4), tuple("ab" * 8))


def plan_tree(rng, gw, tmp, small):
    kgroup, groups = gw.kgroup, gw.groups
    jobs = []
    # these four cost about what the n = 3 non-member query costs, so the
    # latency tail is a plateau and job_p90_s does not hinge on one job
    balls = ((4, 3),) if small else ((15, 7), (14, 8), (12, 9), (11, 9))
    for radius, torsion in balls:
        jobs.append(Job(
            f"ball {radius} torsion {torsion}",
            ["group", "--ctx", "grigorchuk", "--ball", str(radius), "--torsion", str(torsion)],
            info={"kind": "ball", "radius": radius, "answers": 2},
        ))
    for radius in ((2,) if small else (6, 7, 8)):
        jobs.append(Job(
            f"Z x grigorchuk ball {radius}",
            ["group", "--ctx", "Z x grigorchuk", "--ball", str(radius)],
            info={"kind": "product ball", "radius": radius, "answers": 1},
        ))
    ctx = kgroup.make_kcontext("grigorchuk", "S3")
    # every n is asked once as a member of A; n <= 4 also as a non-member,
    # whose witness window is a dense pattern over ball(4n + 4)
    queries = [(n, 1) for n in range(1, 7)] + [(n, 0) for n in range(1, 5)]
    if small:
        queries = [(1, 1), (1, 0)]
    for n, member in queries:
        prefix = list(_bits(rng, 13))
        prefix[n] = str(member)
        prefix = "".join(prefix)
        jobs.append(Job(
            f"wp embed({n}) {'member' if member else 'non-member'}",
            ["kgroup", "--g", "grigorchuk", "--h", "S3", "--oracle", prefix,
             "--wp", kgroup.format_kword(kgroup.embed_element(ctx, n))],
            info={"kind": "wp", "member": member, "answers": 1},
        ))
    # The CLI builds kgroup contexts at the default cap of 200,000 elements,
    # where this query runs for about half a minute before it exits 4.  The
    # library call with a smaller cap reaches the same CapacityError sooner.
    cap = 2000 if small else 10_000
    prefix = list(_bits(rng, 13))
    prefix[6] = "0"
    prefix = "".join(prefix)

    def probe():
        probe_ctx = kgroup.KContext(
            groups.group_context("grigorchuk", element_cap=cap),
            groups.group_context("S3"),
            gw.subshift.OraclePrefix(prefix),
        )
        return kgroup.wp_k(probe_ctx, kgroup.embed_element(probe_ctx, 6))

    jobs.append(Job(f"wp embed(6) non-member, element cap {cap}", call=probe,
                    info={"kind": "probe", "answers": 1}))
    # Cheap word queries bring the pooled job count of three runs past 100.
    # Half are conjugates of relators, so both verdicts occur.
    g = groups.group_context("grigorchuk")
    for i in range(2 if small else 18):
        if i % 2:
            u = groups.random_word(g, rng, 4, 3)
            word = u + rng.choice(RELATORS) + groups.inverse_word(g, u)
        else:
            word = groups.random_word(g, rng, 12, 12)
        jobs.append(Job(
            "group --identity",
            ["group", "--ctx", "grigorchuk", "--identity", " ".join(word)],
            info={"kind": "identity", "word": word, "answers": 1},
        ))
    return _shuffled(rng, jobs)


def units_tree(job, report):
    if job.info["kind"] == "wp":
        return 1 if re.search(r"^verdict: (identity|non_identity)$", report, re.M) else 0
    return job.info["answers"] if report else 0


def check_tree(job, report, checker):
    kind = job.info["kind"]
    if kind == "wp":
        want = "identity" if job.info["member"] else "non_identity"
        if f"\nverdict: {want}\n" not in report:
            return [f"{job.label}: verdict is not {want}"]
    elif kind in ("ball", "product ball"):
        words = re.findall(r"^  \[\d+\] (.*)$", report, re.M)
        r = min(CHECK_RADIUS, job.info["radius"])
        got = sum(1 for w in words if len(w.split()) <= r)
        if "ball" not in checker.cache:
            checker.cache["ball"] = checker.oracles.signature_ball(CHECK_RADIUS, CHECK_DEPTH)
        lengths = [len(w) for w in checker.cache["ball"] if len(w) <= r]
        # in Z x grigorchuk, |(z, g)| = |z| + |g|: each g of length k pairs
        # with the 2(r - k) + 1 integers of size at most r - k
        want = (len(lengths) if kind == "ball"
                else sum(2 * (r - k) + 1 for k in lengths))
        if got != want:
            return [f"{job.label}: ball({r}) has {got} elements, tree signatures give {want}"]
    elif kind == "identity":
        m = re.search(r"^is_identity .* = (True|False)$", report, re.M)
        want = checker.oracles.tree_trivial(job.info["word"], CHECK_DEPTH)
        if m is None or (m.group(1) == "True") != want:
            return [f"{job.label} {' '.join(job.info['word'])}: tree action says {want}"]
    return []


# -- walk -----------------------------------------------------------------------

# (group, radius, period p, step cap, walker kind).  A patrol walks
# geodesics out and back inside the watched ball, so it is never rejected
# and runs p * cap steps; an escape walks a geodesic one step past the
# radius, so the watcher is lost and the run is rejected at step r + 2.
WALK_CASES = (
    ("Z", 1, 1, 1000, "patrol"),
    ("Z", 2, 2, 1000, "patrol"),
    ("Z", 3, 3, 1000, "patrol"),
    ("Z", 4, 1, 1000, "patrol"),
    ("Z", 2, 1, 500, "escape"),
    ("Z", 3, 3, 500, "escape"),
    ("Z", 4, 2, 500, "escape"),
    # the six Grigorchuk patrols cost about the same, so the latency tail
    # is a plateau and job_p90_s does not hinge on one or two jobs
    ("grigorchuk", 1, 3, 2300, "patrol"),
    ("grigorchuk", 2, 2, 1070, "patrol"),
    ("grigorchuk", 3, 1, 840, "patrol"),
    ("grigorchuk", 3, 3, 300, "patrol"),
    ("grigorchuk", 4, 1, 400, "patrol"),
    ("grigorchuk", 4, 2, 200, "patrol"),
    ("grigorchuk", 1, 1, 500, "escape"),
    ("grigorchuk", 2, 2, 500, "escape"),
    ("grigorchuk", 3, 1, 500, "escape"),
    ("grigorchuk", 4, 3, 500, "escape"),
)
WALK_CASES_SMALL = (("Z", 1, 1, 20, "patrol"), ("grigorchuk", 1, 1, 20, "escape"))
ORACLE_LENGTH = {"Z": 4096, "grigorchuk": 16384}


def _geodesic_moves(rng, groups, g, length):
    return [f"g:{s}" for s in rng.choice(groups.sphere_words(g, length))]


def _path_rules(head, prefix, moves, cyclic, patch):
    """One state per move; a non-cyclic path ends in state <prefix>end."""
    n = len(moves)
    rules = []
    for i, mv in enumerate(moves):
        nxt = f"{prefix}{(i + 1) % n}" if cyclic or i + 1 < n else f"{prefix}end"
        if patch:
            rules.append({"head": head, "state": f"{prefix}{i}", "patch": [[["", 0], 1]],
                          "move": mv, "next": nxt})
        rules.append({"head": head, "state": f"{prefix}{i}", "patch": None,
                      "move": mv, "next": nxt})
    rules.append({"head": head, "state": f"{prefix}end", "patch": None,
                  "move": "stay", "next": f"{prefix}end"})
    return [f"{prefix}{i}" for i in range(n)] + [f"{prefix}end"], rules


def spec_data(rng, groups, g, radius, kind):
    """Three heads: head 0 patrols or escapes, head 1 watches from the origin,
    head 2 wanders just out of range at z = 0 while reading its cell.

    Head 1 first asks whether head 2 is in range, which scans every offset
    of the ball on each step once head 2 has left, then whether head 0 is;
    when head 0 is not, head 1 is lost, which is the final arrangement.
    """
    if kind == "patrol":
        # out and back along every geodesic of the sphere, in seeded order,
        # so the scan cost per step does not depend on the seed
        walker, cyclic = [], True
        for word in _shuffled(rng, groups.sphere_words(g, radius)):
            walker += [f"g:{s}" for s in word + groups.inverse_word(g, word)]
    else:
        walker, cyclic = _geodesic_moves(rng, groups, g, radius + 1), False
    states0, rules0 = _path_rules(0, "s", walker, cyclic, patch=False)
    states2, rules2 = _path_rules(2, "w", _geodesic_moves(rng, groups, g, radius + 1),
                                  False, patch=True)
    watch = [
        {"head": 1, "state": "watch", "patch": None,
         "others": [{"head": j, "offset": None, "state": None}],
         "move": "stay", "next": "watch"}
        for j in (2, 0)
    ]
    watch += [
        {"head": 1, "state": "watch", "patch": None, "move": "stay", "next": "lost"},
        {"head": 1, "state": "lost", "patch": None, "move": "stay", "next": "lost"},
    ]
    origin = ["", 0]
    return {
        "group": g.name, "heads": 3, "radius": radius,
        "states": [states0, ["watch", "lost"], states2],
        "rule": rules0 + watch + rules2,
        "initial": [[{"offset": origin, "state": "s0"}, {"offset": origin, "state": "watch"},
                     {"offset": origin, "state": "w0"}]],
        "final": [[None, {"offset": origin, "state": "lost"}, None]],
    }


def plan_walk(rng, gw, tmp, small):
    groups = gw.groups
    oracle_files = {}
    for name, length in ORACLE_LENGTH.items():
        path = os.path.join(tmp, f"wp-{name}.txt")
        with open(path, "w") as fh:
            fh.write(groups.word_problem_prefix(groups.group_context(name), length))
        oracle_files[name] = path
    jobs = []
    for i, (name, radius, p, cap, kind) in enumerate(WALK_CASES_SMALL if small else WALK_CASES):
        spec = os.path.join(tmp, f"spec-{i}.json")
        with open(spec, "w") as fh:
            json.dump(spec_data(rng, groups, groups.group_context(name), radius, kind), fh)
        common = ["simulate", "--spec", spec, "--p", str(p), "--cap", str(cap)]
        info = {"case": i, "p": p, "cap": cap}
        jobs.append(Job(f"membership {name} r={radius} {kind}", common + ["--membership"],
                        info=dict(info, kind="membership")))
        jobs.append(Job(f"predict {name} r={radius} {kind}",
                        common + ["--predict", "--oracle-file", oracle_files[name]],
                        info=dict(info, kind="predict")))
    return _shuffled(rng, jobs)


_IN_S = re.compile(r"^p=\d+: InS ", re.M)
_REJECTED = re.compile(r"^p=\d+: RejectedWitness phase=(\d+) step=(\d+)$", re.M)
_PREDICTED = re.compile(r"^predictor: (\w+)(?: phase=(\d+) step=(\d+))?", re.M)


def walk_outcome(job, report):
    """('rejected', phase, step) | ('in_s',) | ('exhausted',) | None."""
    if job.info["kind"] == "membership":
        m = _REJECTED.search(report)
        if m:
            return ("rejected", int(m.group(1)), int(m.group(2)))
        return ("in_s",) if _IN_S.search(report) else None
    m = _PREDICTED.search(report)
    if m is None:
        return None
    if m.group(1) == "halted":
        return ("rejected", int(m.group(2)), int(m.group(3)))
    return {"running": ("in_s",), "oracle_exhausted": ("exhausted",)}.get(m.group(1))


def units_walk(job, report):
    """Steps simulated, as far as the report determines them (one initial
    arrangement: every phase before the rejecting one ran the full cap)."""
    out = walk_outcome(job, report)
    if out is None or out[0] == "exhausted":
        return 0
    if out[0] == "in_s":
        return job.info["p"] * job.info["cap"]
    return out[1] * job.info["cap"] + out[2]


def check_walk(job, report, checker):
    out = walk_outcome(job, report)
    if out is None:
        return [f"{job.label}: no verdict in the report"]
    seen = checker.cache.setdefault("walk", {})
    seen[job.info["case"], job.info["kind"]] = (job.label, out)
    pair = [seen.get((job.info["case"], k)) for k in ("membership", "predict")]
    if None in pair:
        return []
    (_, want), (label, got) = pair
    if got[0] != "exhausted" and got != want:
        return [f"{label}: predictor says {got}, membership says {want}"]
    return []


# -- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stresses: str
    bypasses: str
    work_unit: str
    plan: object
    units: object
    check: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "construct",
            "the only workload where machines does real work: counter-machine "
            "steps in the staged construction, plus kgroup encoding of very long "
            "embedding words for transported witnesses",
            "machines (run_program, build_skeleton, approx_members), kgroup "
            "(many_one_index, kword_from_index, conj_bit on long words)",
            "automata, subshift windows, groups ball growth beyond Z",
            "transported witnesses",
            plan_construct, units_construct, check_construct,
        ),
        Workload(
            "reduce",
            "kgroup handles many short words once each; cold and warm reductions "
            "over one group share a process, so a cache change that helps one and "
            "costs the other shows",
            "kgroup (conj_reduction, conj_bit, analyze_word, word_footprint), "
            "groups.is_identity on short words",
            "machines, automata, ball growth at large radius",
            "reduction bits",
            plan_reduce, units_reduce, check_reduce,
        ),
        Workload(
            "tree",
            "breadth-first ball growth, Grigorchuk portrait keys and dense witness "
            "windows in subshift dominate",
            "groups (ball, element_order), grigorchuk.portrait, subshift.make_pattern, "
            "kgroup.wp_k, cli report size",
            "machines, automata, conjunctive reduction",
            "decided queries",
            plan_tree, units_tree, check_tree,
        ),
        Workload(
            "walk",
            "the only workload that runs automata; groups is used for one key per "
            "position rather than for ball growth",
            "automata (step, run, membership_test, predictor, backend equality), "
            "groups.word_problem_prefix at set-up",
            "machines, kgroup, subshift",
            "simulated steps",
            plan_walk, units_walk, check_walk,
        ),
    )
}
