import json

import pytest

from stabswitch import catalog, cli, fixtures, rewiring


def run(*argv):
    return cli.main(list(argv))


class TestConvert:
    def test_success_writes_files(self, tmp_path, capsys):
        out = tmp_path / "path.json"
        circ = tmp_path / "circ.json"
        code = run(
            "convert", "--from", "steane7", "--to", "perfect5",
            "--ancillas", "0", "--seed", "12345", "--retries", "2000",
            "--min-distance", "3", "--out", str(out), "--emit-circuit", str(circ),
        )
        assert code == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["n"] == 7 and doc["seed"] == 12345
        bundle = json.loads(circ.read_text())
        assert bundle["total_multiqubit_gates"] > 0

    def test_byte_identical_given_seed(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run(
                "convert", "--from", "steane7", "--to", "perfect5",
                "--seed", "12345", "--retries", "2000", "--min-distance", "3",
                "--out", str(out),
            ) == cli.EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_exhaustion_exit_code(self, capsys):
        code = run(
            "convert", "--from", "steane7", "--to", "perm(steane7,(34))",
            "--ancillas", "0", "--seed", "1", "--retries", "30", "--min-distance", "3",
        )
        assert code == cli.EXIT_EXHAUSTED
        assert "exhausted" in capsys.readouterr().out

    def test_mismatched_k_is_usage_error(self, tmp_path):
        f = tmp_path / "k0.txt"
        f.write_text("+ZZ\n+XX\n")
        assert run("convert", "--from", "steane7", "--to", str(f)) == cli.EXIT_USAGE

    def test_unknown_code_is_usage_error(self):
        assert run("convert", "--from", "nope", "--to", "steane7") == cli.EXIT_USAGE

    def test_missing_flag_is_usage_error(self):
        assert run("convert", "--from", "steane7") == cli.EXIT_USAGE

    def test_bad_numeric_parameters_are_usage_errors(self):
        assert run(
            "convert", "--from", "steane7", "--to", "perfect5", "--ancillas", "-1"
        ) == cli.EXIT_USAGE
        assert run(
            "convert", "--from", "steane7", "--to", "perfect5", "--min-distance", "0"
        ) == cli.EXIT_USAGE
        assert run("bounds", "--n", "7", "--d", "3", "--eps", "0") == cli.EXIT_USAGE


@pytest.fixture(scope="module")
def written_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "path.json"
    assert run(
        "convert", "--from", "steane7", "--to", "perfect5",
        "--seed", "12345", "--retries", "2000", "--min-distance", "3",
        "--out", str(out),
    ) == cli.EXIT_OK
    return out


class TestVerify:
    def test_pass(self, written_path, capsys):
        assert run("verify", str(written_path), "--min-distance", "3") == cli.EXIT_OK
        assert "all intermediate codes pass" in capsys.readouterr().out

    def test_d1_trivially_passes(self, written_path):
        assert run("verify", str(written_path), "--min-distance", "1") == cli.EXIT_OK

    def test_subsystem_flag(self, written_path, capsys):
        assert run("verify", str(written_path), "--min-distance", "3", "--subsystem") == cli.EXIT_OK
        assert "dressed distance" in capsys.readouterr().out

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("verify", str(bad), "--min-distance", "3") == cli.EXIT_DATA

    def test_missing_file_is_io_error(self, tmp_path):
        assert run("verify", str(tmp_path / "none.json"), "--min-distance", "3") == cli.EXIT_IO

    def test_failing_path(self, tmp_path, capsys):
        # an honest path that loses distance: no remix of the (34) pair
        # keeps distance 3 without ancillas, the unmixed one included
        st34 = catalog.perm(catalog.STEANE7, "(34)")
        path = rewiring.build_path(rewiring.decompose(*rewiring.pad(catalog.STEANE7, st34, 0)))
        weak = tmp_path / "weak.json"
        weak.write_text(json.dumps(path.to_json()))
        assert run("verify", str(weak), "--min-distance", "3") == 1
        assert "FAIL" in capsys.readouterr().out

    def test_stored_weak_intermediate_is_rejected(self, written_path, tmp_path):
        doc = json.loads(written_path.read_text())
        weak = {"n": 7, "k": 1, "generators": ["ZIIIIII", "IZIIIII", "IIZIIII", "IIIZIII", "IIIIZII", "IIIIIZI"]}
        doc["intermediates"][1] = weak
        bad = tmp_path / "weak.json"
        bad.write_text(json.dumps(doc))
        assert run("verify", str(bad), "--min-distance", "3") == cli.EXIT_DATA

    def test_tampered_steps_are_rejected(self, tmp_path, capsys):
        table1 = rewiring.build_path(rewiring.load_fixture_decomposition(fixtures.TABLE1))
        good = tmp_path / "table1.json"
        good.write_text(json.dumps(table1.to_json()))
        assert run("verify", str(good), "--min-distance", "3") == cli.EXIT_OK
        doc = table1.to_json()
        for step in doc["steps"]:
            step["measure"], step["correct"] = "IIIIIIZ", "IIIIIIX"
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc))
        assert run("verify", str(bad), "--min-distance", "3") == cli.EXIT_DATA
        assert "malformed path file" in capsys.readouterr().err

    def test_flipped_intermediate_sign_is_rejected(self, written_path, tmp_path):
        doc = json.loads(written_path.read_text())
        gens = doc["intermediates"][2]["generators"]
        gens[0] = gens[0][1:] if gens[0].startswith("-") else "-" + gens[0]
        bad = tmp_path / "flipped.json"
        bad.write_text(json.dumps(doc))
        assert run("verify", str(bad), "--min-distance", "3") == cli.EXIT_DATA


class TestSimulate:
    def test_trials_pass(self, written_path, capsys):
        assert run("simulate", str(written_path), "--trials", "3", "--seed", "9") == cli.EXIT_OK
        assert "6/6 trials" in capsys.readouterr().out

    def test_forced_all_minus(self, written_path):
        assert run(
            "simulate", str(written_path), "--trials", "1", "--seed", "9",
            "--force-outcomes", "all-minus",
        ) == cli.EXIT_OK

    def test_bad_forced_token(self, written_path):
        assert run(
            "simulate", str(written_path), "--trials", "1",
            "--force-outcomes", "bogus",
        ) == cli.EXIT_USAGE


SIMULATE_3_TRIALS = (
    "  state +Z trial 0: pass\n"
    "  state +Z trial 1: pass\n"
    "  state +Z trial 2: pass\n"
    "  state +X trial 0: pass\n"
    "  state +X trial 1: pass\n"
    "  state +X trial 2: pass\n"
    "6/6 trials preserved the logical information\n"
)


class TestSimulateOutput:
    """Full stdout of simulate, byte for byte."""

    def test_seeded_trials(self, written_path, capsys):
        assert run("simulate", str(written_path), "--trials", "3", "--seed", "9") == cli.EXIT_OK
        assert capsys.readouterr().out == SIMULATE_3_TRIALS

    def test_forced_all_minus(self, written_path, capsys):
        assert run(
            "simulate", str(written_path), "--trials", "3", "--seed", "9",
            "--force-outcomes", "all-minus",
        ) == cli.EXIT_OK
        assert capsys.readouterr().out == SIMULATE_3_TRIALS


def reproduce_output(name, steps, n, m, codes, gates):
    lines = [f"{name}: {steps} steps on {n} qubits, m = {m}"]
    lines += [f"  code {i}: distance = 3" for i in range(codes)]
    lines += [
        f"  multi-qubit gates: {gates}",
        "  simulation: 20/20 trials preserved the logical state",
        f"{name}: all checks pass",
    ]
    return "\n".join(lines) + "\n"


class TestReproduceOutput:
    """Full stdout of reproduce for every bundled table, byte for byte."""

    @pytest.mark.parametrize(
        "name, steps, n, m, codes, gates",
        [
            ("table1", 5, 7, 0, 6, 17),
            ("table2", 7, 9, 0, 8, 32),
            ("table3", 4, 9, 2, 5, 19),
        ],
    )
    def test_table(self, capsys, name, steps, n, m, codes, gates):
        assert run("reproduce", name) == cli.EXIT_OK
        assert capsys.readouterr().out == reproduce_output(name, steps, n, m, codes, gates)


class TestBounds:
    def test_lemma1_three(self, capsys):
        assert run("bounds", "--lemma1", "3") == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "5/21" in out
        assert "0.238095" in out
        assert "0.25" in out
        assert "WARNING" not in out

    def test_lemma1_two_warns(self, capsys):
        assert run("bounds", "--lemma1", "2") == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "1/3" in out
        assert "WARNING" in out

    def test_min_ancilla(self, capsys):
        assert run("bounds", "--n", "7", "--d", "3", "--eps", "1.0", "--min-ancilla") == cli.EXIT_OK
        assert "m =" in capsys.readouterr().out

    def test_needs_arguments(self):
        assert run("bounds") == cli.EXIT_USAGE


class TestReproduce:
    def test_table1(self, capsys):
        assert run("reproduce", "table1") == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "multi-qubit gates: 17" in out
        assert "all checks pass" in out

    def test_unknown_table_is_usage_error(self):
        assert run("reproduce", "table9") == cli.EXIT_USAGE


class TestThreadsEnv:
    def test_bad_value_rejected(self, monkeypatch):
        monkeypatch.setenv("RSRA_THREADS", "zero")
        assert run("bounds", "--lemma1", "3") == cli.EXIT_USAGE

    def test_good_value_accepted(self, monkeypatch):
        monkeypatch.setenv("RSRA_THREADS", "4")
        assert run("bounds", "--lemma1", "3") == cli.EXIT_OK
