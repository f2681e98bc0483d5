import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stabswitch
from stabswitch import analysis, pauli, rewiring, tableau
from stabswitch.pauli import PauliOp, StabilizerCode


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


class TestLogicalFrame:
    def test_frames_for_catalog_codes(self, steane7, perfect5, shor9):
        for code in (steane7, perfect5, shor9):
            frame = tableau.logical_frame(code)
            frame.validate(code)  # raises on any violation


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

    def test_stabilization_failure_is_reported(self, table_paths, monkeypatch):
        def broken(t, path, rng, forced=None):
            raise tableau.StabilizationFailureError("final state not stabilized by target code")

        monkeypatch.setattr(tableau, "run_path", broken)
        runs = list(tableau.simulate_trials(table_paths["table1"], 1, 0))
        assert [failure for *_, failure in runs] == ["final state not stabilized by target code"] * 2


class TestInvariantsUnderOptimize:
    def test_rowmul_of_anticommuting_rows_raises_under_python_O(self):
        """Frame invariants are real exceptions, so `python -O` keeps them."""
        script = (
            "import sys\n"
            "from stabswitch import tableau\n"
            "from stabswitch.pauli import PauliOp\n"
            "assert False, 'asserts are live'\n"
            "t = tableau.Tableau.from_stabilizers([PauliOp.from_string('Z')])\n"
            "try:\n"
            "    t._rowmul(0, 1)\n"
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


class TestInjectAndCheck:
    def test_cap_zero_trivially_passes(self, table_paths):
        report = tableau.inject_and_check(table_paths["table1"], 0)
        assert report.ok and report.errors_checked == 0

    def test_table1_cap2(self, table_paths):
        report = tableau.inject_and_check(table_paths["table1"], 2)
        assert report.ok
        assert report.syndrome_mismatches == 0
        assert report.errors_checked == len(table_paths["table1"].intermediates) * (21 + 189)

    def test_corrupted_path_fails_with_witness(self, table_paths):
        path = table_paths["table1"]
        weak = StabilizerCode.from_strings(
            ["ZIIIIII", "IZIIIII", "IIZIIII", "IIIZIII", "IIIIZII", "IIIIIZI"]
        )
        bad = dataclasses.replace(
            path, intermediates=path.intermediates[:2] + (weak,) + path.intermediates[3:]
        )
        report = tableau.inject_and_check(bad, 2, tableau_check=False)
        assert not report.ok
        idx, witness = report.failures[0]
        assert idx == 2
        assert witness.weight <= 2
        assert not analysis.detectable(weak, witness)
