"""Benchmark for stabswitch: closed-loop workloads over search, path checks and the CLI.

Run from anywhere inside a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is reject_loop, path_checks or cli_session (see
workloads.py).  Each workload runs in one process with one caller and no
worker threads.  --seconds sets the amount of work: it is turned into a
round count with the workload's nominal round time, so two commits run
the same ops (a run stops early only past 2.5 times --seconds).  The
seed is the only input that varies.

--trace 0 measures the end-to-end metrics.  setup_s is the median of
three fresh processes timed from spawn to first op ready (imports, code
resolution, fixture loads, producing the round-0 paths path_checks
replays).  --trace 1 is a separate run: it wraps the package's public
functions (tracing.py), runs every round traced, then round 0 untraced
and traced again, and reports per-layer figures, span coverage and the
tracing overhead (the last two round-0 passes, both with warm caches).

Every op's output is checked, and the ops of round 0 are digested; with
the default seed the digests must match bench/expected_digests.json, and
in a traced run the traced round 0 must match the untraced one.  A
failed check counts the op as failed.  Human-readable lines go first;
the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  The full record is written to
.bench_build/records/.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one caller: keep numpy from starting worker threads

import argparse
import json
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1
SETUP_PROBES = 3
EXPECTED_FILE = BENCH_DIR / "expected_digests.json"
BUILD_DIR = ROOT / ".bench_build"
WORKLOAD_NAMES = ("reject_loop", "path_checks", "cli_session")
TAIL_BEYOND = 10  # samples beyond the tail percentile
COVERAGE_FLOOR = 0.95  # required span coverage on the search workloads
OVERRUN = 2.5  # on a much slower commit or machine, stop after this many times --seconds

# (name, unit) of what the final JSON line carries; BENCHMARK.json lists the same
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("rewiring.search.self_ms", "ms"),
    ("rewiring.search.accept_ratio", "ratio"),
    ("rewiring.search.rejects", "count"),
    ("rewiring.build_path.ms", "ms"),
    ("rewiring.build_path.calls", "count"),
    ("rewiring.randomize.ms", "ms"),
    ("rewiring.solve_bridges.ms", "ms"),
    ("rewiring.decompose.ms", "ms"),
    ("rewiring.pad.ms", "ms"),
    ("pauli.StabilizerCode.same_group.ms", "ms"),
    ("pauli.StabilizerCode.built", "count"),
    ("pauli.group_element.calls", "count"),
    ("gf2.rank.calls", "count"),
    ("gf2.solve_affine.calls", "count"),
    ("gf2.in_rowspace.calls", "count"),
    ("gf2.kernel.calls", "count"),
    ("gf2.asbits.calls", "count"),
    ("analysis.verify_path.ms", "ms"),
    ("analysis.verify_path.calls", "count"),
    ("catalog.resolve.ms", "ms"),
    ("layer.rewiring.self_share", "ratio"),
    ("layer.analysis.self_share", "ratio"),
    ("layer.pauli.self_share", "ratio"),
    ("layer.tableau.self_share", "ratio"),
    ("trace.coverage_min", "ratio"),
    ("trace.overhead", "ratio"),
)


def spawn(argv: list[str], stdout: Path) -> int:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=[(os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644)])
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Spawn-to-ready times of fresh set-up processes (same clock in both)."""
    out = BUILD_DIR / f"setup-{workload}.out"
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        code = spawn([sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"], out)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        samples.append(float(out.read_text().split()[-1]) - start)
    return samples


def machine_record(load_start: float) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None outside a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it, and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Runner:
    """Runs ops one after the other; `done` entries are (label, op, seconds, outcome)."""

    def __init__(self, workload):
        self.w = workload
        self.tracer = None
        self.attempted = 0
        self.failures: list[dict] = []

    def op(self, op, label) -> tuple[float, object]:
        from workloads import Outcome

        if self.tracer is not None:
            self.tracer.op = label
        start = time.perf_counter()
        try:
            raw = self.w.run(op)
        except Exception:  # an op that raises is a failed op; the loop goes on
            raw, error = None, traceback.format_exc(limit=3)
        else:
            error = None
        seconds = time.perf_counter() - start
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = "check"  # spans of the untimed check belong to no op
        if error is None:
            try:
                outcome = self.w.check(op, raw, label[1] == 0)
            except Exception:
                outcome = Outcome("", 0, [traceback.format_exc(limit=3)])
        else:
            outcome = Outcome("", 0, [error])
        if outcome.problems:
            self.fail(label, op, outcome.problems)
        return seconds, outcome

    def fail(self, label, op, problems: list[str]) -> None:
        self.failures.append({"op": list(label), "kind": op.kind, "problems": problems})

    def rounds(self, count: int, prefix: str, deadline: float = float("inf")) -> list:
        done = []
        for r in range(count):
            for i, op in enumerate(self.w.round(r)):
                label = (prefix, r, i)
                done.append((label, op, *self.op(op, label)))
            if r + 1 >= self.w.min_rounds and time.perf_counter() > deadline:
                break
        return done

    def compare_digests(self, done: list, want: list[str], what: str) -> bool:
        round0 = [entry for entry in done if entry[0][1] == 0]
        for (label, op, _, outcome), expected in zip(round0, want):
            if outcome.digest != expected:
                self.fail(label, op, [f"round-0 digest differs from {what}"])
        return len(round0) == len(want) and all(e[3].digest == x for e, x in zip(round0, want))

    def failed(self) -> int:
        return len({tuple(f["op"]) for f in self.failures})


def expected_digests(workload: str) -> list[str] | None:
    """Round-0 digests committed for the default seed (None before they are recorded)."""
    if not EXPECTED_FILE.is_file():
        return None
    doc = json.loads(EXPECTED_FILE.read_text())
    return doc["workloads"].get(workload) if doc["seed"] == DEFAULT_SEED else None


def end_to_end(done: list, setup: list[float], peak_rss_kb: int, draws: int | None) -> tuple[dict, dict]:
    latencies = [seconds for _, _, seconds, _ in done]
    busy = sum(latencies)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(latencies) / busy,
        "op_ms.p50": statistics.median(latencies) * 1e3,
        "op_ms.tail": tail_s * 1e3,
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    extra = {"op_ms.tail_percentile": tail_pct, "op_ms.samples": len(latencies), "timed_s": busy}
    if draws is not None:
        extra["retries_per_s"] = draws / busy
    return metrics, extra


def layer_metrics(summary: dict, tracer, overhead: float) -> tuple[dict, dict]:
    """The PER_LAYER figures, plus every span's per-call figures for the record."""
    per_name = summary["per_name"]

    def per_call_ms(name: str, key: str = "total_s") -> float:
        rec = per_name.get(name)
        return rec[key] / rec["calls"] * 1e3 if rec else 0.0

    def calls(name: str) -> int:
        return per_name[name]["calls"] if name in per_name else tracer.counts.get(name, 0)

    search = per_name.get("rewiring.search", {"calls": 0, "raised": 0})
    draws = calls("rewiring.child_rng")
    accepted = search["calls"] - search["raised"]
    layers = summary["layers"]
    coverage = list(summary["coverage"].values())
    metrics = {
        "rewiring.search.self_ms": per_call_ms("rewiring.search", "self_s"),
        "rewiring.search.accept_ratio": accepted / draws if draws else 0.0,
        "rewiring.search.rejects": draws - accepted,
        "rewiring.build_path.ms": per_call_ms("rewiring.build_path"),
        "rewiring.build_path.calls": calls("rewiring.build_path"),
        "rewiring.randomize.ms": per_call_ms("rewiring.randomize"),
        "rewiring.solve_bridges.ms": per_call_ms("rewiring.solve_bridges"),
        "rewiring.decompose.ms": per_call_ms("rewiring.decompose"),
        "rewiring.pad.ms": per_call_ms("rewiring.pad"),
        "pauli.StabilizerCode.same_group.ms": per_call_ms("pauli.StabilizerCode.same_group"),
        "pauli.StabilizerCode.built": calls("pauli.StabilizerCode.built"),
        "pauli.group_element.calls": calls("pauli.group_element"),
        "gf2.rank.calls": calls("gf2.rank"),
        "gf2.solve_affine.calls": calls("gf2.solve_affine"),
        "gf2.in_rowspace.calls": calls("gf2.in_rowspace"),
        "gf2.kernel.calls": calls("gf2.kernel"),
        "gf2.asbits.calls": calls("gf2.asbits"),
        "analysis.verify_path.ms": per_call_ms("analysis.verify_path"),
        "analysis.verify_path.calls": calls("analysis.verify_path"),
        "catalog.resolve.ms": per_call_ms("catalog.resolve"),
        "layer.rewiring.self_share": layers.get("rewiring", {}).get("share", 0.0),
        "layer.analysis.self_share": layers.get("analysis", {}).get("share", 0.0),
        "layer.pauli.self_share": layers.get("pauli", {}).get("share", 0.0),
        "layer.tableau.self_share": layers.get("tableau", {}).get("share", 0.0),
        "trace.coverage_min": min(coverage),
        "trace.overhead": overhead,
    }
    spans = {
        name: {"calls": rec["calls"], "ms": per_call_ms(name), "self_ms": per_call_ms(name, "self_s"), "raised": rec["raised"]}
        for name, rec in sorted(per_name.items())
    }
    inject = per_name.get("tableau.inject_and_check")
    if inject:
        spans["tableau.inject_and_check"]["errors_per_s"] = tracer.counts["tableau.inject_and_check.errors"] / inject["total_s"]
    return metrics, spans


def run(args) -> int:
    import workloads
    import tracing

    load_start = os.getloadavg()[0]
    setup = setup_seconds(args.workload, args.seed) if not args.trace else []
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    w = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    if tracer is not None:
        tracer.uninstall()
    runner = Runner(w)
    rounds = w.rounds_for(args.seconds)
    deadline = time.perf_counter() + OVERRUN * args.seconds
    want = expected_digests(args.workload) if args.seed == DEFAULT_SEED else None
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "rounds": rounds,
              "searches": w.searches}

    if not args.trace:
        done = runner.rounds(rounds, "run", deadline)
        draws = sum(outcome.draws for *_, outcome in done) if w.searches else None
        metrics, extra = end_to_end(done, setup, w.peak_rss_kb(), draws)
        record.update(
            setup_samples_s=setup,
            extra=extra,
            ops=[[label[1], label[2], op.kind, seconds, outcome.draws] for label, op, seconds, outcome in done],
        )
    else:
        # traced rounds first, so first calls are cold as in a fresh process;
        # then round 0 untraced and traced again, both warm, for the overhead
        def traced_rounds(count: int, prefix: str, tracer) -> list:
            runner.tracer = tracer
            if hasattr(w, "tracer"):
                w.tracer = tracer  # CLI children trace themselves
            else:
                tracer.install()
            try:
                return runner.rounds(count, prefix, deadline)
            finally:
                runner.tracer = None
                if hasattr(w, "tracer"):
                    w.tracer = None
                else:
                    tracer.uninstall()

        traced = traced_rounds(rounds, "traced", tracer)
        stats = dict(w.stats)
        base = runner.rounds(1, "untraced")
        again = traced_rounds(1, "retraced", tracing.Tracer())
        want_base = [outcome.digest for *_, outcome in base]
        runner.compare_digests(traced, want_base, "the untraced run")
        runner.compare_digests(again, want_base, "the untraced run")
        base_s = sum(seconds for _, _, seconds, _ in base)
        overhead = sum(seconds for _, _, seconds, _ in again) / base_s - 1.0
        summary = tracing.summarise(tracer, {label: seconds for label, _, seconds, _ in traced})
        metrics, spans = layer_metrics(summary, tracer, overhead)
        kinds = {label: op.kind for label, op, _, _ in traced}
        by_kind: dict[str, list[float]] = {}
        for name, start, end, _, label, _ in tracer.spans:
            if name == "cli.main" and label in kinds:
                by_kind.setdefault(f"cli.{kinds[label]}.ms", []).append((end - start) * 1e3)
        coverage = summary["coverage"].values()
        record.update(
            layers=summary["layers"],
            coverage={"min": min(coverage), "median": statistics.median(coverage)},
            spans=spans,
            counts=dict(tracer.counts) | stats,
            first_calls_ms=tracer.first_calls,
            cli_command_ms={k: statistics.mean(v) for k, v in sorted(by_kind.items())},
            untraced_round0_s=base_s,
        )
        done = base
    digest_match = None if want is None else runner.compare_digests(done, want, f"{EXPECTED_FILE.name} (seed {DEFAULT_SEED})")
    record.update(
        metrics=metrics,
        attempted=runner.attempted,
        failed=runner.failed(),
        failures=runner.failures,
        round0_digests=[outcome.digest for label, _, _, outcome in done if label[1] == 0],
        digest_match=digest_match,
        machine=machine_record(load_start),
    )
    failed = record["failed"]
    report(record, metrics)
    records = BUILD_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1, default=str))
    units = dict(PER_LAYER if args.trace else END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def report(record: dict, metrics: dict) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(f"{record['workload']}: seed {record['seed']}, {record['rounds']} rounds, {mode}")
    if not record["trace"]:
        extra = record["extra"]
        units = dict(END_TO_END)
        for name, value in metrics.items():
            note = ""
            if name == "op_ms.tail":
                note = f"  (p{extra['op_ms.tail_percentile']:.1f} of {extra['op_ms.samples']} ops)"
            if name == "setup_s":
                note = "  (median of " + ", ".join(f"{s:.3f}" for s in record["setup_samples_s"]) + ")"
            print(f"  {name:<14} {value:12.4f} {units[name]}{note}")
        if "retries_per_s" in extra:
            print(f"  {'retries_per_s':<14} {extra['retries_per_s']:12.4f} draw/s")
    else:
        print("  layer        self s   share of op time")
        for layer, rec in record["layers"].items():
            print(f"  {layer:<10} {rec['self_s']:8.3f}   {rec['share']:6.1%}")
        print("  busiest spans (self ms summed, calls, ms per call):")
        top = sorted(record["spans"].items(), key=lambda kv: -kv[1]["self_ms"] * kv[1]["calls"])[:10]
        for name, rec in top:
            print(f"    {name:<40} {rec['self_ms'] * rec['calls']:10.1f} {rec['calls']:8d} {rec['ms']:10.3f}")
        cov = record["coverage"]
        floor = "" if not record["searches"] else f" (floor {COVERAGE_FLOOR:.0%}: {'met' if cov['min'] >= COVERAGE_FLOOR else 'NOT MET'})"
        print(f"  span coverage per op: min {cov['min']:.1%}, median {cov['median']:.1%}{floor}")
        print(f"  tracing overhead on round 0: {metrics['trace.overhead']:+.1%}")
    fail_rate = record["failed"] / record["attempted"]
    print(f"  {'fail_rate':<14} {fail_rate:12.4f} ratio  ({record['failed']}/{record['attempted']} ops failed)")
    for failure in record["failures"][:5]:
        print(f"  FAILED {failure['op']} {failure['kind']}: {failure['problems'][0].strip().splitlines()[-1]}")
    match = {None: "not checked for this seed", True: "match the committed digests", False: "DIFFER from the committed digests"}
    print(f"  round-0 digests {match[record['digest_match']]}")
    m = record["machine"]
    print(
        f"  machine: {m['nproc']} cpus, {m['cpu']}, python {m['python']}, numpy {m['numpy']}, "
        f"load {m['loadavg_1m_start']:.2f} -> {m['loadavg_1m_end']:.2f}, commit {m['git_commit']}, src lines {m['src_lines']}"
    )


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = BUILD_DIR / f"run-{name}.out"
        code = spawn(argv, out)
        print(out.read_text(), end="", flush=True)
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stabswitch" / "__init__.py").is_file():
        print(f"bench: no stabswitch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    BUILD_DIR.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        import workloads

        workloads.WORKLOADS[args.workload](ROOT, args.seed)
        print(repr(time.perf_counter()))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
