"""The benchmark's own test.

    python3 bench/selftest.py                  # check the data and run every workload briefly
    python3 bench/selftest.py --write-expected # re-record the default-seed digests

Checks the ladder codes (k, exact distance, and the generator block
counts the workloads rely on), that BENCHMARK.json names exactly the
metrics run.py prints, and, for every workload, that a short run passes
its output checks with the default seed (whose round-0 digests must
match bench/expected_digests.json) and with one other seed, and that a
traced run produces the same digests as the untraced one.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from stabswitch import analysis, rewiring  # noqa: E402

OTHER_SEED = 2
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def block_counts(a: str, b: str, m: int) -> tuple[int, int, int]:
    padded = rewiring.pad(workloads.resolve(a), workloads.resolve(b), m)
    return rewiring.decompose(*padded, m=m).counts()


def test_ladder_codes() -> None:
    for name, n in (("rm15", 15), ("surf9", 9)):
        code = workloads.resolve(name)
        report = analysis.code_distance(code, cap=4)
        check(code.n == n and code.k == 1, f"{name} is an [[{n},1]] code")
        check(report.exact and report.distance == 3, f"{name} has distance exactly 3")
    check(block_counts("steane7", "perm(steane7,(34))", 0) == (4, 0, 2), "steane7 -> (34)-steane7 at m=0 has blocks (4, 0, 2)")
    for a, b in (("steane7", "perfect5"), ("surf9", "perfect5"), ("perfect5", "rm15")):
        check(block_counts(a, b, 0)[1] == 1, f"{a} -> {b} has one bridged pair")
    check(block_counts("steane7", "rm15", 2)[1] == 0, "steane7 -> rm15 has no bridged pair")


def test_benchmark_json() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES), "BENCHMARK.json lists the workloads run.py knows")
    for key, names in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in doc[key]]
        check(listed == list(names), f"BENCHMARK.json {key} matches run.py")


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if out.returncode != 0:
        print(out.stdout, out.stderr)
        return {}, {}
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads((run.BUILD_DIR / "records" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def test_runs() -> dict[str, list[str]]:
    recorded = {}
    for name in run.WORKLOAD_NAMES:
        result, record = bench(name, run.DEFAULT_SEED, 0)
        check(result.get("correct") is True, f"{name}: default seed passes its output checks")
        check(record.get("digest_match") is True, f"{name}: default-seed digests match {run.EXPECTED_FILE.name}")
        check(set(result.get("metrics", {})) == {n for n, _ in run.END_TO_END}, f"{name}: untraced run prints every end-to-end metric")
        recorded[name] = record.get("round0_digests", [])
        result, _ = bench(name, OTHER_SEED, 0)
        check(result.get("correct") is True, f"{name}: seed {OTHER_SEED} passes its output checks")
        result, traced = bench(name, run.DEFAULT_SEED, 1)
        check(result.get("correct") is True, f"{name}: traced run passes its output checks")
        check(traced.get("round0_digests") == recorded[name], f"{name}: traced and untraced runs give the same digests")
        check(set(result.get("metrics", {})) == {n for n, _ in run.PER_LAYER}, f"{name}: traced run prints every per-layer metric")
        if name == "reject_loop":
            check(traced.get("coverage", {}).get("min", 0) >= run.COVERAGE_FLOOR, f"{name}: spans cover >= 95% of every op")
    return recorded


def main(argv: list[str]) -> int:
    if argv == ["--write-expected"]:
        digests = {}
        for name in run.WORKLOAD_NAMES:
            _, record = bench(name, run.DEFAULT_SEED, 0)
            digests[name] = record["round0_digests"]
        doc = {"seed": run.DEFAULT_SEED, "workloads": digests}
        run.EXPECTED_FILE.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {run.EXPECTED_FILE}")
        return 0
    test_ladder_codes()
    test_benchmark_json()
    test_runs()
    print(f"{len(failures)} failed" if failures else "all checks pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
