"""Per-layer and end-to-end timings of this checkout against a parent commit.

    python3 scripts/bench_layers.py --parent REV --out BENCH_6.json
    python3 scripts/bench_layers.py --parent REV --out BENCH_6.json \\
        --workloads path_checks --seeds 11 --no-tier1

The parent commit is exported with `git archive` into a temporary
directory; the change side is the working tree.  For each side the
script records:

- ms per call of each layer (pad+decompose, randomize, solve_bridges,
  build_path, verify_path, code_distance, code_distance cold (each
  intermediate copied without its cached logical_basis, as on the fresh
  ladder paths of path_checks), logical_basis of all the path's
  intermediates, copied the same way, step_subsystem_distance,
  logical_frame of the path's source, whose logical_basis is cached as
  after verify_path, transport_logicals, ConversionPath.from_json of the
  path's JSON document, the path JSON round trip of path_checks
  (to_json, dumps, loads + from_json, to_json and dumps again),
  encode+run_path, simulate_trials with SIM_TRIALS trials of each of its
  two states, inject_and_check) on one fixed seeded steane7 -> rm15
  path at m=2 (n=17), of undetectable on that
  pair's padded source code against the weight <= d-1 error list and of
  code_distance with cap 4 on that code (its logical_basis warm), ms
  per retry of `search` on steane7 -> (34)-steane7 at m=1, which has
  no path and so spends all of its 60 retries, and ms per call of
  `DrawScreen.reject` on one 64-draw chunk of that search, in a child
  process importing that side's src/;
- ms and peak RSS (`ru_maxrss`) of one `exchange_walk`, error table
  included, over every error of weight <= 4 on a seeded random [[25,1]]
  code with WALK_EXCHANGES random adjacent exchanges, in a second,
  fresh child.  LAYER_PAIRS parent/change pairs of both children run,
  the side that runs first alternating, and each layer keeps every run
  and each side's quartiles, so machine drift shows up as spread, not
  as a change;
- the `bench/run.py` end-to-end metrics of the named workloads, from
  PAIRS parent/change pairs of SECONDS-long runs per seed (the side
  that runs first alternates), with every run and each side's quartiles;
- Tier-1 wall time and pass count, and `wc -l src/stabswitch/*.py`.

Results are merged into --out: a later call replaces only the sections
(and workload/seed keys) it measured.  bench/ is only read.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("reject_loop", "path_checks", "cli_session")
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
LAYER_SEED = 3  # steane7 -> rm15 at m=2 with this seed gives a 9-step path
SIM_TRIALS = 10  # simulate_trials layer: trials per encoded state (+Z, +X)
MIN_BATCH_S = 0.05
REPEATS = 7
LAYER_PAIRS = 5  # alternating parent/change layer-timing child pairs
WALK_N, WALK_K, WALK_WEIGHT, WALK_EXCHANGES = 25, 1, 4, 6  # the exchange_walk child's code and walk
PAIRS = 10  # alternating parent/change bench/run.py pairs per workload and seed
SECONDS = 30  # bench/run.py --seconds, the run length BENCHMARK.json sets


def _per_call_ms(fn, calls_per_run: int = 1) -> float:
    """Median ms per call over REPEATS batches of at least MIN_BATCH_S."""
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - t0 >= MIN_BATCH_S:
            break
        number *= 2
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        runs.append((time.perf_counter() - t0) / (number * calls_per_run))
    return statistics.median(runs) * 1e3


def time_layers() -> dict:
    """ms per call of each layer, for the stabswitch found on sys.path."""
    import numpy as np

    from stabswitch import analysis, catalog, rewiring, tableau

    src = catalog.resolve("steane7")
    tgt = catalog.resolve(str(ROOT / "bench" / "codes" / "rm15.txt"))
    m, d = 2, 3
    cfg = rewiring.RewiringConfig(m=m, seed=LAYER_SEED, max_retries=20000, min_distance=d)
    result = rewiring.search(src, tgt, cfg)
    path, retry = result.path, result.retries_used - 1
    ancilla = rewiring.ancilla_qubits_for(src, tgt, m)

    def rng():  # the generator of the accepted retry
        return rewiring.child_rng(LAYER_SEED, retry)

    def decompose():
        return rewiring.decompose(*rewiring.pad(src, tgt, m), m=m, ancilla_qubits=ancilla)

    base = decompose()
    drawn = rewiring.randomize(base, [rng()]).draw(0)
    dec = rewiring.solve_bridges(drawn, rng(), cfg.bridge_weight_samples)
    frame = tableau.logical_frame(path.source)
    doc = path.to_json()
    padded_source = rewiring.pad(src, tgt, m)[0]
    errs = analysis.error_vectors(path.n, d - 1)
    codes, steps = path.intermediates, path.steps
    rest, carried = len(path.source.gens) - 1, 2 * path.source.k

    st34 = catalog.perm(src, "(34)")
    search_cfg = rewiring.RewiringConfig(m=1, seed=LAYER_SEED, max_retries=60, min_distance=d)

    def exhausted_search():
        try:
            rewiring.search(src, st34, search_cfg)
        except rewiring.SearchExhaustedError:
            return
        raise AssertionError("steane7 -> (34)-steane7 has no distance-3 path at m=1")

    st34_base = rewiring.decompose(
        *rewiring.pad(src, st34, 1), m=1, ancilla_qubits=rewiring.ancilla_qubits_for(src, st34, 1)
    )
    screen = rewiring.DrawScreen.of(st34_base, d)
    chunk = rewiring.draw_chunk(st34_base, search_cfg, range(64))

    def encode_run():
        t = tableau.encode(path.source, frame, "+Z")
        tableau.run_path(t, path, np.random.default_rng(0))

    def cold(code):  # a copy of code whose logical_basis is not cached yet
        fresh = copy.copy(code)
        vars(fresh).pop("logical_basis", None)
        return fresh

    def json_round_trip():  # what one path_checks op does with the path file
        text = json.dumps(path.to_json(), indent=2) + "\n"
        json.dumps(rewiring.ConversionPath.from_json(json.loads(text)).to_json(), indent=2)

    layers = {
        "pad+decompose": (decompose, 1),
        "randomize": (lambda: rewiring.randomize(base, [rng()]).draw(0), 1),
        "solve_bridges": (lambda: rewiring.solve_bridges(drawn, rng(), cfg.bridge_weight_samples), 1),
        "build_path": (lambda: rewiring.build_path(dec), 1),
        "verify_path": (lambda: analysis.verify_path(path, d), 1),
        "code_distance": (lambda: [analysis.code_distance(c, d) for c in codes], len(codes)),
        "code_distance cold": (lambda: [analysis.code_distance(cold(c), d) for c in codes], len(codes)),
        f"logical_basis of {len(codes)} fresh codes": (lambda: [cold(c).logical_basis for c in codes], 1),
        "step_subsystem_distance": (
            lambda: [analysis.step_subsystem_distance(codes[i], s) for i, s in enumerate(steps)],
            len(steps),
        ),
        "logical_frame": (lambda: tableau.logical_frame(path.source), 1),
        "transport_logicals": (lambda: tableau.transport_logicals(frame, path), 1),
        "from_json": (lambda: rewiring.ConversionPath.from_json(doc), 1),
        "path JSON round trip": (json_round_trip, 1),
        "encode+run_path": (encode_run, 1),
        "simulate_trials": (lambda: list(tableau.simulate_trials(path, SIM_TRIALS, LAYER_SEED)), 1),
        "inject_and_check": (lambda: tableau.inject_and_check(path, d - 1), 1),
        "undetectable": (lambda: analysis.undetectable(padded_source, errs), 1),
        "code_distance cap=4": (lambda: analysis.code_distance(padded_source, 4), 1),
        "search": (exhausted_search, search_cfg.max_retries),
        "DrawScreen.reject": (lambda: screen.reject(chunk, 0), 1),
    }
    return {
        "input": (
            f"steane7 -> rm15, m={m}, seed={LAYER_SEED}, n={path.n}, {len(steps)} steps, d={d}; "
            f"step_subsystem_distance rows: {rest} rest + out + in + {carried} L* = {rest + 2 + carried}"
        ),
        "ms_per_call": {name: round(_per_call_ms(fn, calls), 4) for name, (fn, calls) in layers.items()},
    }


def time_walk() -> dict:
    """ms and peak RSS of one exchange_walk, from building its error table
    to its last mask, for the stabswitch found on sys.path; run it in a
    fresh process, so that the RSS is the walk's own."""
    import resource

    import numpy as np

    from stabswitch import analysis, gf2, pauli

    rng = np.random.default_rng(LAYER_SEED)
    code = pauli.random_stabilizer_code(WALK_N, WALK_K, rng)
    g = code.generator_matrix
    rows, live, exchanges = list(g), list(range(len(g))), []
    for slot in rng.integers(len(g), size=WALK_EXCHANGES):
        rhs = (np.arange(len(g)) == slot).astype(np.uint8)
        x0, ker = gf2.solve_affine(gf2.swap_xz(np.array([rows[s] for s in live])), rhs)
        exchanges.append((int(slot), len(rows)))
        live[slot] = len(rows)
        rows.append(((x0 + rng.integers(0, 2, len(ker)) @ ker) % 2).astype(np.uint8))
    logicals = code.logical_basis
    t0 = time.perf_counter()
    if hasattr(analysis, "_error_letters"):
        errors = analysis._error_letters(WALK_N, WALK_WEIGHT)
    else:  # a checkout whose walk still takes error vectors
        errors = analysis.error_vectors(WALK_N, WALK_WEIGHT)
    masks = analysis.exchange_walk(np.array(rows), range(len(g)), exchanges, logicals, errors)
    hidden = sum(int(mask.sum()) for mask in masks)
    return {
        "input": f"random [[{WALK_N},{WALK_K}]] (seed {LAYER_SEED}), {WALK_EXCHANGES} exchanges, "
        f"weight <= {WALK_WEIGHT}",
        "ms": round((time.perf_counter() - t0) * 1e3, 2),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "undetectable": hidden,
    }


def _child_env(checkout: Path) -> dict:
    return {**os.environ, **ONE_THREAD, "PYTHONPATH": str(checkout / "src")}


def _child(checkout: Path, flag: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), flag],
        env=_child_env(checkout), capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def layers_of(checkout: Path) -> dict:
    return {**_child(checkout, "--layers-only"), "walk": _child(checkout, "--walk-only")}


def bench_run(checkout: Path, workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(SECONDS), "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    return {
        "correct": doc["correct"],
        "failed": doc["failed"],
        **{name: m["value"] for name, m in doc["metrics"].items()},
    }


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def alternating_runs(parent: Path, pairs: int, measure):
    """Pairs of measure(checkout) runs on the parent and the change, the
    side that runs first alternating; yields the pair index and the runs
    so far after each pair."""
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(measure(parent if side == "parent" else ROOT))
        yield i, runs


def compare_layers(parent: Path) -> dict:
    for i, runs in alternating_runs(parent, LAYER_PAIRS, layers_of):
        print(f"  layers pair {i + 1}/{LAYER_PAIRS}", flush=True)
    names = runs["parent"][0]["ms_per_call"]
    return {
        "input": runs["parent"][0]["input"],
        "pairs": LAYER_PAIRS,
        "ms_per_call": {
            name: {side: _quartiles([r["ms_per_call"][name] for r in side_runs]) for side, side_runs in runs.items()}
            for name in names
        },
        "walk": {
            "input": runs["parent"][0]["walk"]["input"],
            **{
                name: {side: _quartiles([r["walk"][name] for r in side_runs]) for side, side_runs in runs.items()}
                for name in ("ms", "peak_rss_mb")
            },
        },
        "runs": {
            side: [{**r["ms_per_call"], "walk": r["walk"]} for r in side_runs] for side, side_runs in runs.items()
        },
    }


def compare_workload(parent: Path, workload: str, seed: int) -> dict:
    for i, runs in alternating_runs(parent, PAIRS, lambda checkout: bench_run(checkout, workload, seed)):
        before, after = runs["parent"][-1]["ops_per_s"], runs["change"][-1]["ops_per_s"]
        print(f"  {workload} seed={seed} pair {i + 1}/{PAIRS}: ops_per_s {before:.3f} -> {after:.3f}", flush=True)
    metrics = [k for k in runs["parent"][0] if k not in ("correct", "failed")]
    summary = {
        name: {side: _quartiles([r[name] for r in side_runs]) for side, side_runs in runs.items()}
        for name in metrics
    }
    wins = sum(a["ops_per_s"] > b["ops_per_s"] for a, b in zip(runs["change"], runs["parent"]))
    return {
        "seconds": SECONDS,
        "pairs": PAIRS,
        "ops_per_s_wins": wins,
        "all_correct": all(r["correct"] and not r["failed"] for side in runs.values() for r in side),
        "summary": summary,
        "runs": runs,
    }


def tier1(checkout: Path) -> dict:
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"],
        cwd=checkout, env={**os.environ, "PYTHONPATH": str(checkout / "src")}, capture_output=True, text=True,
    )
    wall = time.perf_counter() - t0
    tail = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    counts = {word: int(num) for num, word in re.findall(r"(\d+) (passed|failed|error)", tail)}
    return {"wall_s": round(wall, 2), **counts}


def src_lines(checkout: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (checkout / "src" / "stabswitch").glob("*.py"))


def export(rev: str, into: Path) -> str:
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, capture_output=True, text=True, check=True)
    sha = sha.stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return sha


def machine() -> dict:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu": model, "cores": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", help="git revision to compare against (required unless --layers-only)")
    ap.add_argument("--out", type=Path, help="JSON file to create or update")
    ap.add_argument("--workloads", nargs="*", default=list(WORKLOADS), choices=WORKLOADS)
    ap.add_argument("--seeds", nargs="+", type=int, default=[1])
    ap.add_argument("--no-tier1", action="store_true", help="skip the two Tier-1 runs")
    ap.add_argument("--layers-only", action="store_true", help="print this interpreter's layer timings and exit")
    ap.add_argument("--walk-only", action="store_true", help="print this process's exchange_walk timing and exit")
    args = ap.parse_args(argv)

    if args.layers_only:
        print(json.dumps(time_layers()))
        return 0
    if args.walk_only:
        print(json.dumps(time_walk()))
        return 0
    if args.parent is None or args.out is None:
        ap.error("--parent and --out are required")

    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp)
        doc["parent"] = export(args.parent, parent)
        doc["machine"] = machine()
        doc["src_lines"] = {"parent": src_lines(parent), "change": src_lines(ROOT)}
        print("layers ...", flush=True)
        doc["layers"] = compare_layers(parent)
        for workload in args.workloads:
            for seed in args.seeds:
                doc.setdefault("workloads", {})[f"{workload} seed={seed}"] = compare_workload(parent, workload, seed)
        if not args.no_tier1:
            print("tier-1 ...", flush=True)
            doc["tier1"] = {"parent": tier1(parent), "change": tier1(ROOT)}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
