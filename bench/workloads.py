"""The benchmark's workloads.

Each workload is a closed loop with one caller: the next op starts when
the previous one has ended.  Ops come in rounds; the inputs of round r
are derived from the workload seed alone, so the same seed gives the
same ops in the same order, and the program only sees generated inputs.

A workload object does its set-up in the constructor and then exposes
  round(r)        the ops of round r,
  run(op)         the timed part of one op,
  check(op, raw)  the untimed output check, returning an Outcome whose
                  digest covers everything the op produced.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stabswitch import analysis, catalog, fixtures, gadgets, rewiring, tableau

BENCH_DIR = Path(__file__).resolve().parent
CODES_DIR = BENCH_DIR / "codes"
MIN_DISTANCE = 3
SEARCH_BUDGET = 5000  # generous: the accepted searches below need 1-30 draws on average


def derive(*parts) -> int:
    """A 32-bit seed for one input, from the workload seed and the input's position."""
    text = "/".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def path_bytes(path) -> bytes:
    """The bytes `stabswitch convert --out` writes for a path."""
    return (json.dumps(path.to_json(), indent=2) + "\n").encode()


def digest_of(doc) -> str:
    return sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())


def resolve(name: str):
    """A catalog code, or one of the benchmark's own code files."""
    file = CODES_DIR / f"{name}.txt"
    return catalog.resolve(str(file) if file.is_file() else name)


@dataclass(frozen=True)
class Op:
    kind: str
    params: dict


@dataclass
class Outcome:
    digest: str
    draws: int = 0
    problems: list[str] = field(default_factory=list)


class Workload:
    name = ""
    ops_per_round = 1
    # seconds one round took at the seed commit (2-core Xeon, Python 3.11,
    # numpy 2.4); --seconds is turned into a round count with it, so every
    # commit runs the same ops and the percentiles sit at the same ranks
    nominal_round_s = 1.0
    searches = False

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.stats: Counter = Counter()

    @property
    def min_rounds(self) -> int:
        """At least 21 ops, so the tail percentile has ten samples beyond it
        and sits above the median."""
        return -(-21 // self.ops_per_round)

    def rounds_for(self, seconds: float) -> int:
        return max(self.min_rounds, round(seconds / self.nominal_round_s))

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class RejectLoop(Workload):
    """steane7 -> perm(steane7,(34)) at distance 3 with m = 0 and 1 ancillas.

    No path exists at m <= 1, so every search spends its whole budget and
    ends in SearchExhaustedError: the rejected-draw loop that dominates the
    test suite.  An m=1 draw costs about 1.5 m=0 draws, so the m=0 budget
    is 1.5 times larger and both searches take about the same time.
    """

    name = "reject_loop"
    ROUND = ((0, 90), (1, 60))  # (m, retry budget)
    ops_per_round = len(ROUND)
    nominal_round_s = 0.8
    searches = True

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.source = resolve("steane7")
        self.target = resolve("perm(steane7,(34))")

    def round(self, r):
        return [
            Op(f"m={m}", {"m": m, "budget": budget, "seed": derive(self.name, self.seed, r, i)})
            for i, (m, budget) in enumerate(self.ROUND)
        ]

    def run(self, op):
        p = op.params
        config = rewiring.RewiringConfig(
            m=p["m"], seed=p["seed"], max_retries=p["budget"], min_distance=MIN_DISTANCE
        )
        rejects: list = []
        try:
            result = rewiring.search(self.source, self.target, config, on_reject=rejects.append)
        except rewiring.SearchExhaustedError as exc:
            return exc, rejects
        return result, rejects

    def check(self, op, raw, first_round):
        exc, rejects = raw
        budget = op.params["budget"]
        problems = []
        if isinstance(exc, rewiring.SearchResult):
            problems.append(f"search found a path at retry {exc.retries_used}; none exists")
            return Outcome(digest_of(["accepted", exc.retries_used]), exc.retries_used, problems)
        if exc.retries != budget or len(rejects) != budget:
            problems.append(f"exhausted after {exc.retries} retries ({len(rejects)} rejects), budget {budget}")
        if [r.retry for r in rejects] != list(range(len(rejects))):
            problems.append("rejections out of retry order")
        self.stats.update(f"rewiring.search.rejects_by_index.{r.failing_index}" for r in rejects)
        doc = [exc.retries, exc.best_distance_floor, [[r.retry, r.failing_index, r.witness.to_string()] for r in rejects]]
        return Outcome(digest_of(doc), budget, problems)


class PathChecks(Workload):
    """Replays the verification side on fixed paths, with no search in the ops.

    A round replays the three reference fixtures and four ladder paths:
    surf9 -> perfect5 at m=3 (n=12, ~3 draws) and three steane7 -> rm15
    paths at m=2 (n=17, ~2 draws each).  Set-up produces the ladder paths
    of round 0; those of every later round are produced before the round,
    outside the timed region, because the cost of checking an n=17 path
    varies by ~40% between paths and one path per run made the figures
    depend on the seed.  The mix fixes where the percentiles fall: over
    six rounds the median is the middle surf9 op and the tail (the 11th
    largest op) is near the median rm15 op.  With one rm15 path a round
    the tail was the second-fastest of twelve rm15 ops, an order statistic
    at the edge of its class that spread ~25% between runs.  At m=5 about one surf9 path in four has a step whose dressed
    distance is 4; step_subsystem_distance then enumerates weight-4 errors
    at n=14 with ~28 MB of int64 temporaries, so peak RSS jumped between
    seeds.  No m=3 path did so in 30 seeds.

    One op runs every check on one path: verify_path, code_distance per
    intermediate, step_subsystem_distance per step, transport_logicals,
    encode + run_path on +Z/+X under random and forced all-minus outcomes,
    inject_and_check, gadgets.emit and a JSON round trip.  Set-up warms
    the error tables, so the ops run with warm caches.
    """

    name = "path_checks"
    LADDER = (("surf9", "perfect5", 3),) + (("steane7", "rm15", 2),) * 3
    ops_per_round = 3 + len(LADDER)
    nominal_round_s = 4.8

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.fixtures = []
        for name in ("table1", "table2", "table3"):
            dec = rewiring.load_fixture_decomposition(fixtures.fixture_text(name))
            self.fixtures.append((name, rewiring.build_path(dec)))
        self.codes = {name: resolve(name) for name in ("surf9", "perfect5", "steane7", "rm15")}
        self.round0 = self.ladder(0)
        for n in sorted({path.n for _, path in self.fixtures + self.round0}):
            analysis.error_vectors(n, MIN_DISTANCE)

    def ladder(self, r):
        paths = []
        for i, (a, b, m) in enumerate(self.LADDER):
            config = rewiring.RewiringConfig(
                m=m, seed=derive(self.name, self.seed, "ladder", r, i), max_retries=SEARCH_BUDGET, min_distance=MIN_DISTANCE
            )
            paths.append((f"{a}>{b} m={m}", rewiring.search(self.codes[a], self.codes[b], config).path))
        return paths

    def round(self, r):
        paths = self.fixtures + (self.round0 if r == 0 else self.ladder(r))
        return [Op(kind, {"path": path, "seed": derive(self.name, self.seed, r, i)}) for i, (kind, path) in enumerate(paths)]

    def run(self, op):
        path = op.params["path"]
        report = analysis.verify_path(path, MIN_DISTANCE)
        distances = [analysis.code_distance(code, cap=MIN_DISTANCE) for code in path.intermediates]
        gauge = [analysis.step_subsystem_distance(path.intermediates[i], s) for i, s in enumerate(path.steps)]
        frame = tableau.logical_frame(path.source)
        carried = tableau.transport_logicals(frame, path)
        rng = np.random.default_rng(op.params["seed"])
        runs = []
        for spec in ("+Z", "+X"):
            for forced in (None, [-1] * len(path.steps)):
                t = tableau.encode(path.source, frame, spec)
                record: list = []
                tableau.run_path(t, path, rng, forced=forced, record=record)
                logicals = carried.logical_x if spec == "+X" else carried.logical_z
                runs.append([spec, forced is not None, [e["outcome"] for e in record], all(t.contains(q) for q in logicals)])
        injection = tableau.inject_and_check(path, MIN_DISTANCE - 1)
        bundle = gadgets.emit(path)
        text = path_bytes(path)
        back = path_bytes(rewiring.ConversionPath.from_json(json.loads(text)))
        return report, distances, gauge, carried, runs, injection, bundle, text, back

    def check(self, op, raw, first_round):
        report, distances, gauge, carried, runs, injection, bundle, text, back = raw
        problems = []
        if not report.ok:
            problems.append(f"verify_path fails at code {report.failing_index}")
        if any(d.exact and d.distance < MIN_DISTANCE for d in distances):
            problems.append("an intermediate has distance below 3")
        if not all(run[3] for run in runs):
            problems.append("a simulated run lost the logical state")
        if not injection.ok:
            problems.append(f"inject_and_check: {len(injection.failures)} failures, {injection.syndrome_mismatches} mismatches")
        if back != text:
            problems.append("path JSON round trip changed the bytes")
        doc = [
            [report.ok, report.failing_index],
            [[d.distance, d.exact, d.witness.to_string() if d.witness else None] for d in distances],
            gauge,
            [q.to_string() for q in carried.logical_x + carried.logical_z],
            runs,
            [injection.ok, injection.errors_checked, injection.syndrome_mismatches],
            sha256(json.dumps(bundle.to_json(), sort_keys=True).encode()),
            sha256(text),
        ]
        return Outcome(digest_of(doc), 0, problems)


class CliSession(Workload):
    """A scripted session of `python -m stabswitch.cli` commands.

    One fresh child runs at a time and an op is one command, so every op
    pays interpreter and numpy start-up and cold caches.  This is the only
    workload that crosses the CLI, path-file loading and file I/O.  A round
    converts steane7 -> perfect5 (a bridged pair; at m=4 a search takes ~3
    draws, and no step of 90 sampled paths reached dressed distance 4, which
    makes `verify --subsystem` allocate ~10 MB more) with --out and --emit-circuit, verifies it plain and with
    --subsystem, simulates it under random and forced all-minus outcomes,
    reproduces table1-3, evaluates bounds, and converts, verifies and
    simulates steane7 -> the rm15 code file at m=2 (n=17).  The two rm15
    simulations are the slowest commands, so the tail percentile falls
    among them.  In a traced run each child is `bench/tracing.py`, which
    runs cli.main with the wrappers installed and writes its spans for
    this process to merge.
    """

    name = "cli_session"
    ops_per_round = 13
    nominal_round_s = 5.2
    WORKDIR = Path(".bench_build") / "cli_session"

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.workdir = root / self.WORKDIR
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.rm15 = str((CODES_DIR / "rm15.txt").relative_to(root))
        for spec in ("steane7", "perfect5", self.rm15):
            catalog.resolve(spec)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.max_child_rss_kb = 0
        self.tracer = None  # set by a traced run: children then run under tracing.py

    def round(self, r):
        s = [derive(self.name, self.seed, r, i) for i in range(4)]
        d = self.WORKDIR
        p5, circuit, rm = str(d / "p5.json"), str(d / "p5-circuit.json"), str(d / "rm15.json")
        trials = 10
        preserved = f"{2 * trials}/{2 * trials} trials preserved the logical information"
        forced = "8/8 trials preserved the logical information"
        n = 7 + s[3] % 11
        convert = ["convert", "--min-distance", "3", "--retries", str(SEARCH_BUDGET)]
        cmds = [
            ("convert steane7>perfect5", convert + ["--from", "steane7", "--to", "perfect5", "--ancillas", "4", "--seed", str(s[0]),
              "--out", p5, "--emit-circuit", circuit], f"circuit written to {circuit}", [p5, circuit]),
            ("verify", ["verify", p5, "--min-distance", "3"], "all intermediate codes pass", []),
            ("verify --subsystem", ["verify", p5, "--min-distance", "3", "--subsystem"], "all intermediate codes pass", []),
            ("simulate", ["simulate", p5, "--seed", str(s[1]), "--trials", str(trials)], preserved, []),
            ("simulate all-minus", ["simulate", p5, "--trials", "4", "--force-outcomes", "all-minus"], forced, []),
            ("reproduce table1", ["reproduce", "table1"], "table1: all checks pass", []),
            ("reproduce table2", ["reproduce", "table2"], "table2: all checks pass", []),
            ("reproduce table3", ["reproduce", "table3"], "table3: all checks pass", []),
            ("bounds", ["bounds", "--n", str(n), "--d", "3", "--eps", "0.01", "--min-ancilla"], "min ancillas for eps=0.01: m = ", []),
            ("convert steane7>rm15", convert + ["--from", "steane7", "--to", self.rm15, "--ancillas", "2", "--seed", str(s[2]),
              "--out", rm], f"path written to {rm}", [rm]),
            ("verify rm15", ["verify", rm, "--min-distance", "3"], "all intermediate codes pass", []),
            ("simulate rm15", ["simulate", rm, "--seed", str(s[1]), "--trials", str(trials)], preserved, []),
            ("simulate rm15 all-minus", ["simulate", rm, "--trials", str(trials), "--force-outcomes", "all-minus"], preserved, []),
        ]
        return [Op(kind, {"args": args, "last": last, "files": files}) for kind, args, last, files in cmds]

    def run(self, op):
        out, err = self.workdir / "stdout", self.workdir / "stderr"
        if self.tracer is None:
            argv = [sys.executable, "-m", "stabswitch.cli", *op.params["args"]]
        else:
            spans = self.workdir / "spans.json"
            spans.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH_DIR / "tracing.py"), "--spans", str(spans), "--", *op.params["args"]]
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644), (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        if self.tracer is not None:
            self.tracer.add_child_spans(json.loads(spans.read_text()), self.tracer.op)
        return os.waitstatus_to_exitcode(status), usage.ru_maxrss

    def check(self, op, raw, first_round):
        code, rss_kb = raw
        self.max_child_rss_kb = max(self.max_child_rss_kb, rss_kb)
        stdout = (self.workdir / "stdout").read_bytes()
        lines = stdout.decode().splitlines()
        problems = []
        if code != 0:
            stderr = (self.workdir / "stderr").read_text().strip()
            problems.append(f"exit code {code}: {stderr[-300:]}")
        if not lines or not lines[-1].startswith(op.params["last"]):
            problems.append(f"last line {lines[-1] if lines else ''!r}, expected {op.params['last']!r}")
        parts = [stdout]
        for name in op.params["files"]:
            file = self.root / name
            parts.append(file.read_bytes() if file.is_file() else b"<missing>")
        return Outcome(digest_of([code] + [sha256(p) for p in parts]), 0, problems)

    def peak_rss_kb(self) -> int:
        return self.max_child_rss_kb


WORKLOADS = {cls.name: cls for cls in (RejectLoop, PathChecks, CliSession)}
