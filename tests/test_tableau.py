import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import stabswitch
from conftest import in_rowspace, old_verify_path
from stabswitch import analysis, catalog, gf2, pauli, rewiring, tableau
from stabswitch.pauli import PauliOp, StabilizerCode


ROOT = Path(__file__).resolve().parents[1]


def old_from_stabilizers(stabilizers):
    """Destabilizer/stabilizer frame (x, z, r) of 2n rows in the layout of
    Aaronson and Gottesman (arXiv:quant-ph/0406196): destabilizers in rows
    0..n-1, by one affine solve each and a pairwise commuting fix, then
    the signed stabilizers in rows n..2n-1, the oracle for Tableau's n
    rows."""
    n = stabilizers[0].n
    s_mat = StabilizerCode(n, tuple(stabilizers)).generator_matrix
    a = gf2.swap_xz(s_mat)
    destab = []
    for i in range(n):
        b = gf2.zeros(n)
        b[i] = 1
        destab.append(gf2.solve_affine(a, b)[0])
    for j in range(n):
        for i in range(j):
            if gf2.symplectic_product(destab[i], destab[j]) == 1:
                destab[j] = (destab[j] + s_mat[i]) % 2
    x = gf2.zeros((2 * n, n))
    z = gf2.zeros((2 * n, n))
    r = gf2.zeros(2 * n)
    for i, d in enumerate(destab):
        x[i], z[i] = d[:n], d[n:]
    for i, p in enumerate(stabilizers):
        x[n + i], z[n + i] = p.x, p.z
        r[n + i] = 0 if p.sign > 0 else 1
    return x, z, r


def old_frame(stabilizers):
    """The test-local destabilizer frame of the state the stabilizers fix."""
    x, z, r = old_from_stabilizers(stabilizers)
    return types.SimpleNamespace(n=stabilizers[0].n, x=x, z=z, r=r)


def old_anticommute_mask(t, v):
    """Anticommutation of v with each of the 2n rows of an old frame."""
    return ((v[t.n :] @ t.x.T + v[: t.n] @ t.z.T) % 2).astype(bool)


def random_stabilizer_state(n, rng):
    """n signed generators of a random stabilizer state: a graph-form
    Lagrangian (U | U A) with A symmetric, Hadamards on a random qubit
    subset, random signs."""
    a = gf2.random_matrix(n, n, rng)
    a = np.triu(a) ^ np.triu(a, 1).T
    u = gf2.random_gl(n, rng)[0]
    rows = np.hstack([u, u @ a % 2]).astype(np.uint8)
    swap = np.nonzero(rng.integers(0, 2, size=n))[0]
    rows[:, swap], rows[:, n + swap] = rows[:, n + swap], rows[:, swap].copy()
    signs = rng.choice([1, -1], size=n)
    return [PauliOp(v[:n], v[n:], int(sg)) for v, sg in zip(rows, signs)]


def old_logical_frame(code):
    """The frame logical_frame builds, by the loops it replaced: one
    two-rank membership test per candidate and a per-candidate sweep."""
    g = code.generator_matrix
    cands = list(gf2.kernel(gf2.swap_xz(g)))
    xs, zs = [], []
    while len(xs) < code.k:
        used = np.array([*g, *xs, *zs], dtype=np.uint8).reshape(-1, 2 * code.n)
        u = next(v for v in cands if not in_rowspace(used, v))
        w = next(v for v in cands if gf2.symplectic_product(u, v) == 1)
        new_cands = []
        for v in cands:
            if gf2.symplectic_product(v, w) == 1:
                v = (v + u) % 2
            if gf2.symplectic_product(v, u) == 1:
                v = (v + w) % 2
            new_cands.append(v)
        cands = new_cands
        xs.append(u)
        zs.append(w)
    return tableau.LogicalFrame(
        tuple(PauliOp.from_vector(v) for v in xs),
        tuple(PauliOp.from_vector(v) for v in zs),
    )


def old_syndrome_extractor(t, code):
    """(selection, rows) of the per-intermediate readout plan
    inject_and_check used to build: selection sums the frame's stabilizer
    rows to each printed generator, after checking that it does and that
    the generator's sign is the simulated one."""
    n = t.n
    rows = np.hstack([t.x, t.z])
    selection = gf2.zeros((len(code.gens), 2 * n))
    for i, g in enumerate(code.gens):
        selection[i, n:] = old_anticommute_mask(t, g.vector)[:n]
        if not np.array_equal(selection[i] @ rows % 2, g.vector):
            raise ValueError("generator not in simulated stabilizer group")
        if old_deterministic_eigenvalue(t, g) != g.sign:
            raise ValueError("simulated state not stabilized with printed signs")
    return selection, rows


def old_inject_and_check(path, cap):
    """(ok, failures, errors_checked, mismatches) by the per-error loop
    inject_and_check replaced: one simulated readout and one int64
    algebraic syndrome per error per intermediate.  mismatches counts the
    errors whose two syndromes differ, the comparison inject_and_check
    dropped because a frame holding every generator cannot make it fire."""
    vectors = analysis.error_vectors(path.n, cap)
    errors = [PauliOp.from_vector(v) for v in vectors]
    failures = []
    mismatches = 0
    for idx, code in enumerate(path.intermediates):
        g = code.generator_matrix
        for e in errors:
            quiet = not (gf2.swap_xz(g).astype(np.int64) @ e.vector % 2).any()
            if quiet and not in_rowspace(g, e.vector):
                failures.append((idx, e.to_string()))
        t = old_frame(list(code.gens) + list(old_logical_frame(code).logical_z))
        selection, rows = old_syndrome_extractor(t, code)
        rows_form = gf2.swap_xz(rows)
        for e in errors:
            got = selection @ (rows_form @ e.vector % 2) % 2
            want = gf2.swap_xz(g).astype(np.int64) @ e.vector.astype(np.int64) % 2
            mismatches += not np.array_equal(got, want)
    errors_checked = len(errors) * len(path.intermediates)
    return not failures and mismatches == 0, failures, errors_checked, mismatches


def assert_injection_matches_old(path, cap):
    """The report equals the per-error loop's, whose syndrome comparison
    finds no mismatch; returns the report tuple."""
    got = report_tuple(tableau.inject_and_check(path, cap))
    want = old_inject_and_check(path, cap)
    assert want[3] == 0
    assert got == want
    return got


def report_tuple(report):
    failures = [(idx, op.to_string()) for idx, op in report.failures]
    return report.ok, failures, report.errors_checked, report.syndrome_mismatches


def single_qubit_zero():
    """|0> as a [[1,0]] tableau."""
    return tableau.Tableau.from_stabilizers([PauliOp.from_string("Z")])


class TestEncode:
    def test_single_qubit_plus_z(self):
        code = StabilizerCode(1, ())
        frame = tableau.LogicalFrame(
            (PauliOp.from_string("X"),), (PauliOp.from_string("Z"),)
        )
        t = tableau.encode(code, frame, "+Z")
        assert t.contains(PauliOp.from_string("Z"))
        assert not t.contains(PauliOp.from_string("-Z"))

    def test_steane_logical_zero(self, steane7):
        frame = tableau.logical_frame(steane7)
        t = tableau.encode(steane7, frame, "+Z")
        assert t.stabilizes(steane7)
        assert t.contains(frame.logical_z[0])

    def test_five_qubit_plus_x(self, perfect5):
        frame = tableau.logical_frame(perfect5)
        t = tableau.encode(perfect5, frame, "+X")
        assert t.stabilizes(perfect5)
        assert t.contains(frame.logical_x[0])

    def test_minus_eigenstates(self, perfect5):
        frame = tableau.logical_frame(perfect5)
        t = tableau.encode(perfect5, frame, "-Z")
        lz = frame.logical_z[0]
        assert t.contains(PauliOp(lz.x, lz.z, -lz.sign))

    def test_bad_spec(self, perfect5):
        frame = tableau.logical_frame(perfect5)
        with pytest.raises(tableau.InconsistentSpecError):
            tableau.encode(perfect5, frame, "+Q")
        with pytest.raises(tableau.InconsistentSpecError):
            tableau.encode(perfect5, frame, [("Z", +1), ("Z", +1)])


class TestFromStabilizers:
    def test_matches_per_column_solves(self, steane7, perfect5, shor9):
        """The n rows are the stabilizer half of the destabilizer frame."""
        rng = np.random.default_rng(31)
        states = [random_stabilizer_state(int(rng.integers(1, 11)), rng) for _ in range(520)]
        for code in (steane7, perfect5, shor9):
            frame = tableau.logical_frame(code)
            states.append(list(code.gens) + list(frame.logical_x))
        for stabs in states:
            t = tableau.Tableau.from_stabilizers(stabs)
            n = len(stabs)
            want_x, want_z, want_r = old_from_stabilizers(stabs)
            assert np.array_equal(t.x, want_x[n:])
            assert np.array_equal(t.z, want_z[n:])
            assert np.array_equal(t.r, want_r[n:])
            assert t.x.dtype == t.z.dtype == t.r.dtype == np.uint8


class TestLogicalFrame:
    def test_frames_for_catalog_codes(self, steane7, perfect5, shor9):
        for code in (steane7, perfect5, shor9):
            frame = tableau.logical_frame(code)
            frame.validate(code)  # raises on any violation

    def test_matches_per_candidate_loop(self, steane7, perfect5, shor9):
        rm15 = catalog.resolve(str(ROOT / "bench" / "codes" / "rm15.txt"))
        surf9 = catalog.resolve(str(ROOT / "bench" / "codes" / "surf9.txt"))
        codes = [steane7, perfect5, shor9, rm15, surf9, *rewiring.pad(steane7, rm15, 2)]
        rng = np.random.default_rng(2718)
        for _ in range(320):
            n = int(rng.integers(1, 9))
            codes.append(pauli.random_stabilizer_code(n, int(rng.integers(0, n + 1)), rng))
        for n in range(9, 13):
            for k in range(n + 1):
                codes += [pauli.random_stabilizer_code(n, k, rng) for _ in range(2)]
        assert {code.k for code in codes} >= set(range(13))
        for code in codes:
            assert tableau.logical_frame(code) == old_logical_frame(code)


def test_frame_transport_and_path_load_eliminate_only_in_span_signs(steane7, perfect5, shor9, monkeypatch):
    """The frame, its check and its transport read syndromes; loading a
    path asks signed membership, which only pauli.span_signs eliminates."""
    rm15 = catalog.resolve(str(ROOT / "bench" / "codes" / "rm15.txt"))
    path = rewiring.search(steane7, rm15, rewiring.RewiringConfig(m=2, seed=3, min_distance=3)).path
    callers = []
    real = gf2.span_coefficients

    def recorded(*args):
        callers.append(sys._getframe(1).f_code)
        return real(*args)

    monkeypatch.setattr(gf2, "span_coefficients", recorded)
    for code in (steane7, perfect5, shor9, rm15, path.source):
        tableau.logical_frame(code).validate(code)
    tableau.transport_logicals(tableau.logical_frame(path.source), path).validate(path.target)
    assert callers == []
    assert rewiring.ConversionPath.from_json(path.to_json()) == path
    assert callers and set(callers) == {pauli.span_signs.__code__}


def bad_frames(code):
    """(message, frame) pairs, one per rejection of LogicalFrame.validate."""
    frame = tableau.logical_frame(code)
    lx, lz = frame.logical_x[0], frame.logical_z[0]
    singles = [PauliOp.from_string("I" * q + "X" + "I" * (code.n - q - 1)) for q in range(code.n)]
    outside = next(op for op in singles if not all(op.commutes(g) for g in code.gens))
    return [
        ("wrong rank", tableau.LogicalFrame(frame.logical_x + (lx,), frame.logical_z)),
        (f"{outside} is outside the code normalizer", tableau.LogicalFrame((lx,), (outside,))),
        # a stabilizer commutes with the whole normalizer, so it leaves a zero pairing row
        ("frame pairs are not symplectic", tableau.LogicalFrame((code.gens[0],), (lz,))),
        ("frame pairs are not symplectic", tableau.LogicalFrame((lx,), (lx,))),
    ]


class TestValidateRejections:
    def test_each_bad_frame_raises(self, steane7):
        for message, frame in bad_frames(steane7):
            with pytest.raises(ValueError, match=re.escape(message)):
                frame.validate(steane7)

    def test_anticommuting_x_pair_raises(self):
        code = pauli.random_stabilizer_code(6, 2, np.random.default_rng(5))
        frame = tableau.logical_frame(code)
        (x1, x2), (z1, z2) = frame.logical_x, frame.logical_z
        # X1 Z2 still pairs with Z1 and commutes with Z2, but anticommutes with X2
        bad = tableau.LogicalFrame((x1 * z2, x2), (z1, z2))
        with pytest.raises(ValueError, match="frame pairs are not symplectic"):
            bad.validate(code)

    def test_transport_reports_failure(self, steane7):
        # a path with no steps carries every operator unchanged
        empty = types.SimpleNamespace(steps=(), target=steane7)
        for message, frame in bad_frames(steane7):
            with pytest.raises(tableau.TransportFailureError, match=re.escape(message)):
                tableau.transport_logicals(frame, empty)


class TestMeasure:
    def test_stabilizer_measurement_returns_sign(self, steane7):
        frame = tableau.logical_frame(steane7)
        t = tableau.encode(steane7, frame, "+Z")
        for g in steane7.gens:
            assert t.measure(g) == g.sign

    def test_negative_stabilizer_sign(self):
        t = tableau.Tableau.from_stabilizers([PauliOp.from_string("-Z")])
        assert t.measure(PauliOp.from_string("Z")) == -1

    def test_projective_repeatability(self):
        rng = np.random.default_rng(15)
        for trial in range(20):
            t = single_qubit_zero()
            x = PauliOp.from_string("X")
            first = t.measure(x, rng)
            second = t.measure(x, rng)
            assert first == second

    def test_random_outcome_frequencies(self):
        rng = np.random.default_rng(16)
        x = PauliOp.from_string("X")
        plus = 0
        n = 10_000
        for _ in range(n):
            t = single_qubit_zero()
            if t.measure(x, rng) == +1:
                plus += 1
        sigma = (n * 0.25) ** 0.5
        assert abs(plus - n / 2) < 3 * sigma

    def test_forced_outcomes(self):
        for forced in (+1, -1):
            t = single_qubit_zero()
            assert t.measure(PauliOp.from_string("X"), forced=forced) == forced
            assert t.contains(PauliOp.from_string("X" if forced > 0 else "-X"))


def old_rowmul(t, i, j):
    """row i <- row j * row i: the per-row rowsum measure used to loop over."""
    ph = pauli.phase_exponent(t.x[j], t.z[j], t.x[i], t.z[i])
    ph = (ph + 2 * int(t.r[i]) + 2 * int(t.r[j])) % 4
    if ph % 2:
        raise tableau.StabilizationFailureError(f"rowsum between anticommuting rows {i} and {j}")
    t.x[i] ^= t.x[j]
    t.z[i] ^= t.z[j]
    t.r[i] = ph // 2


def old_deterministic_eigenvalue(t, p):
    """Eigenvalue of p's unsigned vector by the accumulator loop over the
    selected stabilizer rows; ValueError if p is outside the group."""
    sel = np.nonzero(old_anticommute_mask(t, p.vector)[: t.n])[0]
    acc_x, acc_z, ph = gf2.zeros(t.n), gf2.zeros(t.n), 0
    for i in sel:
        ph = (ph + pauli.phase_exponent(acc_x, acc_z, t.x[t.n + i], t.z[t.n + i])) % 4
        ph = (ph + 2 * int(t.r[t.n + i])) % 4
        acc_x ^= t.x[t.n + i]
        acc_z ^= t.z[t.n + i]
    if not (np.array_equal(acc_x, p.x) and np.array_equal(acc_z, p.z)):
        raise ValueError(f"{p} is not in the stabilizer group (up to sign)")
    if ph % 2:
        raise tableau.StabilizationFailureError(f"stabilizer product for {p} has an imaginary phase")
    return +1 if ph == 0 else -1


def old_measure(t, p, rng=None, forced=None):
    """Measurement on the destabilizer frame: every anticommuting row but
    the pivot and its destabilizer partner is multiplied by the pivot,
    the partner takes the pivot's old row and the pivot becomes +-p."""
    anti = old_anticommute_mask(t, p.vector)
    anti_stab = np.nonzero(anti[t.n :])[0]
    if anti_stab.size == 0:
        return old_deterministic_eigenvalue(t, p)
    piv = t.n + int(anti_stab[0])
    outcome = int(forced) if forced is not None else (+1 if int(rng.integers(0, 2)) == 0 else -1)
    for i in np.nonzero(anti)[0]:
        if i != piv and i != piv - t.n:
            old_rowmul(t, int(i), piv)
    t.x[piv - t.n], t.z[piv - t.n], t.r[piv - t.n] = t.x[piv], t.z[piv], t.r[piv]
    t.x[piv], t.z[piv], t.r[piv] = p.x, p.z, 0 if outcome > 0 else 1
    return outcome


def old_contains(t, p):
    if old_anticommute_mask(t, p.vector)[t.n :].any():
        return False
    try:
        return old_deterministic_eigenvalue(t, p) == p.sign
    except ValueError:
        return False


def random_pauli(n, rng):
    return PauliOp(rng.integers(0, 2, n), rng.integers(0, 2, n), int(rng.choice([1, -1])))


def stabilizer_element(t, rng):
    """A random element of t's stabilizer group up to sign, with a random sign."""
    coeff = rng.integers(0, 2, t.n).astype(bool)
    return PauliOp(np.bitwise_xor.reduce(t.x[t.n :][coeff]), np.bitwise_xor.reduce(t.z[t.n :][coeff]),
                   int(rng.choice([1, -1])))


class TestBatchedFrameMatchesRowLoops:
    def test_measure_contains_stabilizes_match_old_loops(self):
        """Seeded random states, each under a sequence of measurements with
        random and forced outcomes: the n-row frame gives the destabilizer
        frame's outcomes, x, z and r equal to its stabilizer rows n..2n-1
        after every step, and the same contains / stabilizes answers."""
        rng = np.random.default_rng(1210)
        seen = {"random": 0, "forced": 0, "deterministic": 0, "contained": 0, "stabilized": 0}
        for _ in range(160):
            n = int(rng.integers(1, 9))
            stabs = random_stabilizer_state(n, rng)
            new = tableau.Tableau.from_stabilizers(stabs)
            old = old_frame(stabs)
            for _ in range(10):
                p = stabilizer_element(old, rng) if rng.random() < 0.3 else random_pauli(n, rng)
                forced = None if rng.random() < 0.5 else int(rng.choice([1, -1]))
                seed = int(rng.integers(2**32))
                deterministic = not old_anticommute_mask(old, p.vector)[n:].any()
                want = old_measure(old, p, np.random.default_rng(seed), forced)
                assert new.measure(p, np.random.default_rng(seed), forced) == want
                assert np.array_equal(new.x, old.x[n:]) and np.array_equal(new.z, old.z[n:])
                assert np.array_equal(new.r, old.r[n:])
                seen["deterministic" if deterministic else "random" if forced is None else "forced"] += 1
                for q in (p, stabilizer_element(old, rng), random_pauli(n, rng)):
                    assert new.contains(q) == old_contains(old, q)
                    seen["contained"] += old_contains(old, q)
            rows = [PauliOp(x, z, 1 - 2 * int(r)) for x, z, r in zip(old.x[n:], old.z[n:], old.r[n:])]
            flips = rng.integers(0, 2, n) * (rng.random() < 0.5)
            codes = [
                StabilizerCode(n, tuple(PauliOp(g.x, g.z, -g.sign if f else g.sign) for g, f in zip(rows, flips))),
                pauli.random_stabilizer_code(n, int(rng.integers(0, n)), rng),
            ]
            for code in codes:
                want = all(old_contains(old, g) for g in code.gens)
                assert new.stabilizes(code) == want
                seen["stabilized"] += want
        assert min(seen.values()) > 0, seen


class TestApplyPauli:
    def test_identity_no_change(self):
        t = single_qubit_zero()
        t.apply_pauli(PauliOp.identity(1))
        assert t.contains(PauliOp.from_string("Z"))

    def test_stabilizer_element_no_change(self, steane7):
        frame = tableau.logical_frame(steane7)
        t = tableau.encode(steane7, frame, "+Z")
        t.apply_pauli(steane7.gens[2])
        assert t.stabilizes(steane7)
        assert t.contains(frame.logical_z[0])

    def test_bit_flip(self):
        t = single_qubit_zero()
        t.apply_pauli(PauliOp.from_string("X"))
        assert t.contains(PauliOp.from_string("-Z"))


    def test_copy_is_independent(self):
        t = tableau.Tableau.from_stabilizers([PauliOp.from_string("Z")])
        c = t.copy()
        c.apply_pauli(PauliOp.from_string("X"))
        assert t.contains(PauliOp.from_string("Z")) and c.contains(PauliOp.from_string("-Z"))


class TestRunStep:
    def test_already_stabilized_measure_is_deterministic(self, perfect5):
        # measuring a current stabilizer: outcome equals its sign, no correction
        frame = tableau.logical_frame(perfect5)
        t = tableau.encode(perfect5, frame, "+Z")
        step = rewiring.ConversionStep(
            measure=perfect5.gens[1], correct=perfect5.gens[0], replaced_index=1
        )
        out = tableau.run_step(t, step)
        assert out == perfect5.gens[1].sign
        assert t.stabilizes(perfect5)

    @pytest.mark.parametrize("branch", [+1, -1])
    def test_both_branches_stabilize_post_code(self, table_paths, branch):
        path = table_paths["table1"]
        frame = tableau.logical_frame(path.source)
        t = tableau.encode(path.source, frame, "+Z")
        step = path.steps[0]
        tableau.run_step(t, step, forced=branch)
        assert t.stabilizes(path.intermediates[1])


class TestRunPath:
    def test_empty_path_is_identity(self, steane7):
        dec = rewiring.decompose(steane7, steane7)
        path = rewiring.build_path(dec)
        assert len(path.steps) == 0
        frame = tableau.logical_frame(steane7)
        t = tableau.encode(steane7, frame, "+Z")
        tableau.run_path(t, path, np.random.default_rng(0))
        assert t.stabilizes(steane7)

    def test_table1_many_seeds(self, table_paths):
        path = table_paths["table1"]
        frame = tableau.logical_frame(path.source)
        carried = tableau.transport_logicals(frame, path)
        for seed in range(20):
            t = tableau.encode(path.source, frame, "+Z")
            tableau.run_path(t, path, np.random.default_rng(seed))
            assert t.stabilizes(path.target)
            assert t.contains(carried.logical_z[0])

    def test_forced_schedule_length_checked(self, table_paths):
        path = table_paths["table1"]
        frame = tableau.logical_frame(path.source)
        t = tableau.encode(path.source, frame, "+Z")
        with pytest.raises(ValueError):
            tableau.run_path(t, path, forced=[+1])

    def test_record(self, table_paths):
        path = table_paths["table1"]
        frame = tableau.logical_frame(path.source)
        t = tableau.encode(path.source, frame, "+Z")
        rec = []
        tableau.run_path(t, path, forced=[-1] * len(path.steps), record=rec)
        assert len(rec) == len(path.steps)
        assert all(r["outcome"] == -1 for r in rec)


class TestSimulateTrials:
    def test_runs_both_states_in_order_and_passes(self, table_paths):
        runs = list(tableau.simulate_trials(table_paths["table1"], 3, 9))
        assert [(spec, trial) for spec, trial, _ in runs] == [
            (spec, trial) for spec in ("+Z", "+X") for trial in range(3)
        ]
        assert all(failure is None for *_, failure in runs)

    @pytest.mark.parametrize("forced", [None, "all-minus"])
    def test_seeds_each_trial_from_state_and_trial_index(self, table_paths, monkeypatch, forced):
        path = table_paths["table1"]
        forced = None if forced is None else [-1] * len(path.steps)
        seen = []
        real = tableau.run_path

        def spy(t, path, rng, forced=None):
            seen.append((rng.bit_generator.state, forced))
            return real(t, path, rng, forced=forced)

        monkeypatch.setattr(tableau, "run_path", spy)
        runs = list(tableau.simulate_trials(path, 2, 2024, forced))
        assert all(failure is None for *_, failure in runs)
        want = [
            np.random.default_rng(np.random.SeedSequence(entropy=2024, spawn_key=(s, t))).bit_generator.state
            for s in range(2)
            for t in range(2)
        ]
        assert seen == [(state, forced) for state in want]

    def test_encodes_each_state_once(self, table_paths, monkeypatch):
        specs = []
        real = tableau.encode

        def spy(code, frame, spec):
            specs.append(spec)
            return real(code, frame, spec)

        monkeypatch.setattr(tableau, "encode", spy)
        runs = list(tableau.simulate_trials(table_paths["table1"], 3, 9))
        assert specs == ["+Z", "+X"] and len(runs) == 6
        assert all(failure is None for *_, failure in runs)

    def test_stabilization_failure_is_reported(self, table_paths, monkeypatch):
        def broken(t, path, rng, forced=None):
            raise tableau.StabilizationFailureError("final state not stabilized by target code")

        monkeypatch.setattr(tableau, "run_path", broken)
        runs = list(tableau.simulate_trials(table_paths["table1"], 1, 0))
        assert [failure for *_, failure in runs] == ["final state not stabilized by target code"] * 2


class TestInvariantsUnderOptimize:
    def test_rowmul_of_anticommuting_rows_raises_under_python_O(self):
        """Frame invariants are real exceptions, so `python -O` keeps them:
        a hand-built 2-row frame [Z1; X1], whose rows anticommute, reaches
        the measurement rowsum with an imaginary phase."""
        script = (
            "import numpy as np\n"
            "from stabswitch import tableau\n"
            "from stabswitch.pauli import PauliOp\n"
            "assert False, 'asserts are live'\n"
            "x = np.array([[0, 0], [1, 0]], dtype=np.uint8)  # Z1, X1\n"
            "z = np.array([[1, 0], [0, 0]], dtype=np.uint8)\n"
            "t = tableau.Tableau(2, x, z, np.zeros(2, dtype=np.uint8))\n"
            "try:\n"
            "    t.measure(PauliOp.from_string('YI'), forced=+1)\n"
            "except tableau.StabilizationFailureError as exc:\n"
            "    print('raised:', exc)\n"
        )
        src = str(Path(stabswitch.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised: rowsum between anticommuting rows")


class TestTransport:
    def test_commuting_representative_unchanged(self, table_paths):
        path = table_paths["table3"]
        # shared-block generators commute with every measured operator
        shared = path.intermediates[0].gens[0]
        frame = tableau.LogicalFrame((), ())
        carried = shared
        for step in path.steps:
            assert carried.commutes(step.measure)
        assert carried == shared

    def test_single_step_algebra(self, table_paths):
        # multiplying by the outgoing generator restores commutation with
        # the measured one and keeps commutation with the untouched rest
        path = table_paths["table1"]
        frame = tableau.logical_frame(path.source)
        cases = 0
        for rep in (frame.logical_z[0], frame.logical_x[0]):
            moved = rep
            for i, step in enumerate(path.steps):
                if not moved.commutes(step.measure):
                    fixed = moved * step.correct
                    assert fixed.commutes(step.measure)
                    post = path.intermediates[i + 1]
                    assert all(fixed.commutes(g) for g in post.gens)
                    cases += 1
                    moved = fixed
        assert cases > 0

    def test_steane_logical_lands_in_target_normalizer(self, table_paths):
        path = table_paths["table1"]
        frame = tableau.logical_frame(path.source)
        carried = tableau.transport_logicals(frame, path)
        carried.validate(path.target)
        # transversal Z is a logical of the source group: transport moves a
        # representative of the same class
        assert not pauli.syndrome(path.target, carried.logical_z[0]).any()


@pytest.fixture(scope="module")
def searched_paths(searched_steane_to_five, steane7, perfect5, shor9):
    """Four searched paths, steane7 -> rm15 at m=2 among them."""
    rm15 = catalog.resolve(str(ROOT / "bench" / "codes" / "rm15.txt"))
    st34 = catalog.perm(steane7, "(34)")
    paths = [searched_steane_to_five.path]
    for src, tgt, m, seed in ((perfect5, steane7, 0, 5), (st34, shor9, 0, 77), (steane7, rm15, 2, 3)):
        cfg = rewiring.RewiringConfig(m=m, seed=seed, max_retries=20000, min_distance=3)
        paths.append(rewiring.search(src, tgt, cfg).path)
    return paths


class TestBatchedInjectionMatchesPerErrorLoop:
    """inject_and_check finds every intermediate's undetectable errors at
    once; the per-error loop, which also encodes each intermediate with
    the old_from_stabilizers oracle and reads out a simulated syndrome,
    must give the same report, and its readout never disagrees with the
    algebraic syndrome."""

    def test_fixtures(self, table_paths):
        for path in table_paths.values():
            for cap in (0, 1, 2):
                assert_injection_matches_old(path, cap)

    def test_searched_paths(self, searched_paths):
        assert max(path.n for path in searched_paths) == 17
        for path in searched_paths:
            assert_injection_matches_old(path, 2)

    def test_weakened_intermediate(self, losing_path):
        got = assert_injection_matches_old(losing_path, 2)
        assert not got[0] and got[1]


def test_path_walk_matches_per_error_loops_on_150_searched_paths(steane7, perfect5):
    """verify_path at d = 2..4 and inject_and_check against the per-error
    loops on 150 searched paths over three pairs with and without bridged
    pairs.  Every other path is the first draw (min_distance 1), which
    usually loses distance, so failing walks are compared too: the first
    draws' injections at cap 2, the others' at cap 1."""
    st34 = catalog.perm(steane7, "(34)")
    failing = set()
    for src, tgt, m in ((steane7, perfect5, 0), (perfect5, steane7, 0), (steane7, st34, 2)):
        for seed in range(50):
            cfg = rewiring.RewiringConfig(m=m, seed=seed, max_retries=2000, min_distance=3 if seed % 2 else 1)
            path = rewiring.search(src, tgt, cfg).path
            for d in (2, 3, 4):
                report = analysis.verify_path(path, d)
                assert (report.failing_index, report.witness) == old_verify_path(path, d)
                if not report.ok and d == 3:
                    failing.add(report.failing_index)
            assert_injection_matches_old(path, 1 if seed % 2 else 2)
    # first draws fail at several intermediates, not only the first exchange
    assert len(failing) >= 3


def test_path_checks_share_the_start_codes_logical_basis(table_paths, monkeypatch):
    """verify_path and inject_and_check on one path read one cached
    logical basis of path.start: a single kernel elimination."""
    path = rewiring.ConversionPath.from_json(table_paths["table1"].to_json())  # nothing cached yet
    calls = []
    real = gf2.kernel

    def spy(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(gf2, "kernel", spy)
    assert analysis.verify_path(path, 3).ok
    assert tableau.inject_and_check(path, 2).ok
    assert len(calls) == 1


class TestInjectAndCheck:
    def test_cap_zero_trivially_passes(self, table_paths):
        report = tableau.inject_and_check(table_paths["table1"], 0)
        assert report.ok and report.errors_checked == 0

    def test_table1_cap2(self, table_paths):
        report = tableau.inject_and_check(table_paths["table1"], 2)
        assert report.ok
        assert report.syndrome_mismatches == 0
        assert report.errors_checked == len(table_paths["table1"].intermediates) * (21 + 189)

    def test_cap_above_n_equals_cap_n(self, table_paths):
        """No error is heavier than n: a cap past it lists the same errors."""
        path = table_paths["table1"]
        report = tableau.inject_and_check(path, path.n)
        assert not report.ok and report.errors_checked == len(path.intermediates) * (4**path.n - 1)
        assert tableau.inject_and_check(path, path.n + 5) == report

    def test_corrupted_path_fails_with_witness(self, losing_path):
        report = tableau.inject_and_check(losing_path, 2)
        assert not report.ok
        idx, witness = report.failures[0]
        assert (idx, witness.to_string()) == (1, "IIIIIIZ")
        assert not analysis.detectable(losing_path.intermediates[1], witness)
