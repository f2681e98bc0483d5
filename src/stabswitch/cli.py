"""Command-line front end.

Subcommands: convert (randomized search for a distance-preserving
path), verify (re-check a path file), simulate (run the measure-and-
correct channel on encoded states), bounds (failure bound, minimal
ancilla count, masking probabilities), and reproduce (bundled reference
conversions).  Exit codes: 0 success, 1 a check failed (verify,
simulate, reproduce), 2 search exhausted, 64 usage error, 65 malformed
path file, 74 I/O error.

Every command is deterministic given --seed; machine-readable JSON goes
only to files named by --out style flags, stdout stays human-readable.
simulate and reproduce share one trial loop, tableau.simulate_trials;
reproduce runs it with the fixed seed 2024.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from . import analysis, catalog, fixtures, gadgets, rewiring, tableau

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_EXHAUSTED = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_IO = 74


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write_json(path: str, doc: dict) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _load_path(filename: str) -> rewiring.ConversionPath:
    try:
        with open(filename, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IOError(f"cannot read {filename}: {exc}") from exc
    try:
        doc = json.loads(text)
        return rewiring.ConversionPath.from_json(doc)
    except Exception as exc:
        raise DataError(f"malformed path file {filename}: {exc}") from exc


def _resolve(spec: str):
    try:
        return catalog.resolve(spec)
    except (KeyError, ValueError) as exc:
        raise UsageError(str(exc)) from None


def cmd_convert(args) -> int:
    source = _resolve(getattr(args, "from"))
    target = _resolve(args.to)
    if source.k != target.k:
        raise UsageError(f"logical counts differ: k={source.k} vs k={target.k}")
    if source.k == 0:
        raise UsageError("conversion needs codes with k >= 1")
    try:
        config = rewiring.RewiringConfig(m=args.ancillas, seed=args.seed, max_retries=args.retries,
                                         min_distance=args.min_distance,
                                         bridge_weight_samples=args.bridge_weight_samples)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    try:
        result = rewiring.search(source, target, config)
    except rewiring.SearchExhaustedError as exc:
        print(f"search exhausted: {exc}")
        print(f"  retries: {exc.retries}")
        print(f"  best failing intermediate distance: {exc.best_distance_floor}")
        return EXIT_EXHAUSTED
    path = result.path
    print(
        f"found a distance >= {config.min_distance} path in {result.retries_used} "
        f"retr{'y' if result.retries_used == 1 else 'ies'}: "
        f"{len(path.steps)} steps on {path.n} qubits, "
        f"{gadgets.gate_count(path)} multi-qubit gates"
    )
    if args.out:
        _write_json(args.out, path.to_json())
        print(f"path written to {args.out}")
    if args.emit_circuit:
        _write_json(args.emit_circuit, gadgets.emit(path).to_json())
        print(f"circuit written to {args.emit_circuit}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.min_distance < 1:
        raise UsageError("--min-distance must be >= 1")
    path = _load_path(args.path)
    report = analysis.verify_path(path, args.min_distance)
    print(f"checking {len(path.intermediates)} codes at distance >= {args.min_distance}")
    for idx, rep in enumerate(report.reports):
        if rep.exact:
            print(f"  code {idx}: FAIL distance {rep.distance} witness {rep.witness}")
        else:
            print(f"  code {idx}: ok (distance >= {args.min_distance})")
    if args.subsystem:
        print("per-step gauge diagnostics:")
        for i, step in enumerate(path.steps):
            dist = analysis.step_subsystem_distance(path.intermediates[i], step)
            t = (dist - 1) // 2
            flag = f"{t}-fault-tolerant" if t >= 1 else "not fault-tolerant"
            print(f"  step {i}: dressed distance {dist} ({flag})")
    if report.ok:
        print("all intermediate codes pass")
        return EXIT_OK
    print(f"first failure at code {report.failing_index}")
    return EXIT_FAILED


def _forced_schedule(spec: str | None, steps: int):
    if spec is None:
        return None
    if spec == "all-minus":
        return [-1] * steps
    if spec == "all-plus":
        return [+1] * steps
    out = []
    for token in spec.split(","):
        token = token.strip()
        if token == "+":
            out.append(+1)
        elif token == "-":
            out.append(-1)
        elif token in ("", "."):
            out.append(None)
        else:
            raise UsageError(f"bad forced-outcome token {token!r}")
    if len(out) != steps:
        raise UsageError(f"forced schedule lists {len(out)} outcomes, path has {steps} steps")
    return out


def cmd_simulate(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    path = _load_path(args.path)
    forced = _forced_schedule(args.force_outcomes, len(path.steps))
    failures = 0
    total = 0
    for spec, trial, failure in tableau.simulate_trials(path, args.trials, args.seed, forced):
        total += 1
        failures += failure is not None
        print(f"  state {spec} trial {trial}: {'pass' if failure is None else 'FAIL ' + failure}")
    print(f"{total - failures}/{total} trials preserved the logical information")
    return EXIT_OK if failures == 0 else EXIT_FAILED


def _probability(p: float) -> str:
    """p to six decimals, or in exponent form once that would print 0."""
    return f"{p:.6e}" if 0 < p < 5e-7 else f"{p:.6f}"


def cmd_bounds(args) -> int:
    if args.lemma1 is not None and args.lemma1 < 1:
        raise UsageError("--lemma1 must be >= 1")
    if args.n is not None:  # validated before anything is printed
        if args.d is None or args.eps is None:
            raise UsageError("--n needs --d and --eps")
        try:
            limit = analysis.min_ancilla(args.n, args.d, args.eps)
        except (analysis.DomainError, ValueError) as exc:
            raise UsageError(str(exc)) from None
    if args.lemma1 is not None:
        n = args.lemma1
        exact = analysis.masking_exact(n)
        bound = (n - 1) / 2**n
        print(f"masking probability, dimension {n}:")
        shown = f"{exact} = " if exact.denominator < 2**64 else ""  # longer ones can pass the int-to-str limit
        print(f"  closed form: {shown}{_probability(float(exact))}")
        print(f"  reference bound (n-1)/2^n: {_probability(bound)}")
        try:
            v, w = np.eye(n, dtype=np.uint8)[[0, n - 1]]  # e_1 and e_n
            enum = analysis.masking_enumerate(n, v, w)
            print(f"  enumerated over all invertible matrices: {enum} = {_probability(float(enum))}")
        except analysis.InfeasibleError as exc:
            print(f"  enumeration skipped: {exc}")
        if float(exact) > bound:
            print(
                f"  WARNING: the exact value {_probability(float(exact))} exceeds the reference "
                f"bound {_probability(bound)} at n = {n}"
            )
    if args.n is not None:
        print(f"failure bound for n={args.n}, d={args.d} (gc = m):")
        rows = [(m, analysis.failure_bound(args.n, m, args.d, gc=m)) for m in range(0, limit.m + 3)]
        for overflowed, run in itertools.groupby(rows, key=lambda row: math.isinf(row[1].raw)):
            run = list(run)
            if overflowed and len(run) > 1:  # one line per run of overflowed rows
                print(f"  m={run[0][0]}..{run[-1][0]}  raw=inf  effective={run[0][1].effective:.6f}")
                continue
            for m, b in run:
                marker = " <- first m with bound < eps" if m == limit.m else ""
                print(f"  m={m:3d}  raw={b.raw:.6e}  effective={b.effective:.6f}{marker}")
        if args.min_ancilla:
            print(
                f"min ancillas for eps={args.eps}: m = {limit.m} "
                f"(scale d*ln(n/d)+ln(1/eps) = {limit.asymptotic_reference:.3f})"
            )
    elif args.lemma1 is None:
        raise UsageError("bounds needs --n/--d/--eps and/or --lemma1")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    name = args.table
    text = fixtures.fixture_text(name)
    expected = fixtures.EXPECTED[name]
    dec = rewiring.load_fixture_decomposition(text)
    path = rewiring.build_path(dec)
    ok = True
    print(f"{name}: {len(path.steps)} steps on {path.n} qubits, m = {path.m}")
    if len(path.steps) != expected["steps"]:
        ok = False
        print(f"  FAIL: expected {expected['steps']} steps")
    want_d = expected["distance"]
    for idx, code in enumerate(path.intermediates):
        rep = analysis.code_distance(code, cap=want_d)
        exact = rep.exact and rep.distance == want_d
        print(f"  code {idx}: distance {'= ' + str(rep.distance) if rep.exact else '> ' + str(rep.distance - 1)}")
        if not exact:
            ok = False
    gates = gadgets.gate_count(path)
    print(f"  multi-qubit gates: {gates}")
    if "gates" in expected and gates != expected["gates"]:
        ok = False
        print(f"  FAIL: expected {expected['gates']} gates")
    if "m" in expected and path.m != expected["m"]:
        ok = False
        print(f"  FAIL: expected m = {expected['m']}")
    trials = 20
    runs = tableau.simulate_trials(path, trials // 2, 2024)
    sim_fail = sum(failure is not None for *_, failure in runs)
    print(f"  simulation: {trials - sim_fail}/{trials} trials preserved the logical state")
    if sim_fail:
        ok = False
    print(f"{name}: {'all checks pass' if ok else 'CHECKS FAILED'}")
    return EXIT_OK if ok else EXIT_FAILED


def build_parser() -> _Parser:
    parser = _Parser(prog="stabswitch", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="search for a distance-preserving conversion path")
    p.add_argument("--from", required=True, help="source code (catalog name, perm(...), or file)")
    p.add_argument("--to", required=True, help="target code")
    p.add_argument("--ancillas", type=int, default=0, help="ancilla qubits m to append")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--retries", type=int, default=1000)
    p.add_argument("--min-distance", type=int, default=1)
    p.add_argument("--out", help="write the path JSON here")
    p.add_argument("--emit-circuit", help="write the measurement-gadget netlist here")
    p.add_argument(
        "--bridge-weight-samples",
        type=int,
        default=0,
        help="sample this many bridge candidates per pair and keep the lightest",
    )
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("verify", help="re-check distances along a path file")
    p.add_argument("path")
    p.add_argument("--min-distance", type=int, required=True)
    p.add_argument("--subsystem", action="store_true", help="also print per-step gauge distances")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="run the measure-and-correct channel on encoded states")
    p.add_argument("path")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--force-outcomes",
        help="'all-minus', 'all-plus', or comma list of +/- per step",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bounds", help="failure bound, ancilla requirements, masking probabilities")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--lemma1", type=int, metavar="N", help="masking probability in dimension N")
    p.add_argument("--min-ancilla", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("reproduce", help="run a bundled reference conversion end to end")
    p.add_argument("table", choices=sorted(fixtures.FIXTURES))
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DATA
    except IOError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
