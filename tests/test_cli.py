import hashlib
import json

import pytest

from stabswitch import cli, fixtures, rewiring


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

    @pytest.mark.parametrize("flag,value", [("--retries", "-5"), ("--retries", "0"), ("--bridge-weight-samples", "-4")])
    def test_out_of_range_search_parameters_are_usage_errors(self, flag, value, capsys):
        assert run(
            "convert", "--from", "steane7", "--to", "perfect5", "--min-distance", "3", flag, value
        ) == cli.EXIT_USAGE
        assert "must be >=" in capsys.readouterr().err

    def test_bad_numeric_parameters_are_usage_errors(self, written_path, capsys):
        assert run(
            "convert", "--from", "steane7", "--to", "perfect5", "--ancillas", "-1"
        ) == cli.EXIT_USAGE
        assert run(
            "convert", "--from", "steane7", "--to", "perfect5", "--min-distance", "0"
        ) == cli.EXIT_USAGE
        assert run("bounds", "--n", "7", "--d", "3", "--eps", "0") == cli.EXIT_USAGE
        assert run("convert", "--from", "steane7", "--to", "perfect5", "--seed", "-1") == cli.EXIT_USAGE
        assert run("bounds", "--lemma1", "0") == cli.EXIT_USAGE
        assert run("simulate", str(written_path), "--seed", "-1") == cli.EXIT_USAGE
        assert run("verify", str(written_path), "--min-distance", "0") == cli.EXIT_USAGE
        assert "ok (distance >= 0)" not in capsys.readouterr().out


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

    def test_failing_path(self, losing_path, tmp_path, capsys):
        weak = tmp_path / "weak.json"
        weak.write_text(json.dumps(losing_path.to_json()))
        assert run("verify", str(weak), "--min-distance", "3") == cli.EXIT_FAILED
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


def _set(*keys, value):
    def edit(doc):
        *outer, last = keys
        for key in outer:
            doc = doc[key]
        doc[last] = value
        return None

    return edit


MALFORMED_PATH_FILES = {
    "missing steps": lambda doc: doc.pop("steps") and None,
    "steps as a dict": _set("steps", value={"measure": "XXXXXXX"}),
    "steps as a list of lists": lambda doc: doc.update(steps=[list(s.values()) for s in doc["steps"]]),
    "int measure": _set("steps", 0, "measure", value=7),
    "short measure": _set("steps", 0, "measure", value="XZ"),
    "bad letter": _set("steps", 0, "measure", value="XXQXXXX"),
    "generators as a string": _set("source", "generators", value="XZZXI"),
    "generators as an int": _set("target", "generators", value=5),
    "empty intermediates": _set("intermediates", value=[]),
    "intermediate as a string": _set("intermediates", 1, value="XZZXI"),
    "replaced_index -1": _set("steps", 0, "replaced_index", value=-1),
    "null ancilla_qubits": _set("ancilla_qubits", value=None),
    "top-level list": lambda doc: [doc],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PATH_FILES))
def test_malformed_path_file_exits_65_with_one_line(case, written_path, tmp_path, capsys):
    """Each malformed document fails to load with the data-error exit and
    one "malformed path file" line, however far the loader gets."""
    doc = json.loads(written_path.read_text())
    edited = MALFORMED_PATH_FILES[case](doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc if edited is None else edited))
    capsys.readouterr()
    assert run("verify", str(bad), "--min-distance", "3") == cli.EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"malformed path file {bad}: ")
    assert "Traceback" not in captured.err
    if case == "short measure":
        assert lines[0].endswith("operator acts on 2 qubits, code on 7")


class TestSimulate:
    def test_bad_metadata_is_data_error(self, written_path, tmp_path, capsys):
        # each of these once crashed simulate with a traceback or loaded silently
        # (int() truncated a replaced_index, and any seed was written back)
        edits = [("ancilla_qubits", [99]), ("ancilla_qubits", ["x"]), ("n", 3), ("m", -5)]
        edits += [("seed", "abc"), ("seed", -5), ("seed", 1.5), ("replaced_index", 1.7), ("replaced_index", True)]
        # a float n once exited 65 with an internal message; k = true on every code passed verify
        edits += [("n", 7.0), ("n", True), ("k", True)]
        for key, value in edits:
            doc = json.loads(written_path.read_text())
            owners = {"replaced_index": [doc["steps"][0]], "k": [doc["source"], doc["target"], *doc["intermediates"]]}
            for owner in owners.get(key, [doc]):
                owner[key] = value
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            assert run("verify", str(bad), "--min-distance", "3") == cli.EXIT_DATA
            assert run("simulate", str(bad), "--trials", "1") == cli.EXIT_DATA
            assert capsys.readouterr().err.count("malformed path file") == 2

    def test_ancilla_without_single_qubit_stabilizer_is_data_error(self, tmp_path, capsys):
        # once passed verify and crashed simulate with a traceback
        doc = rewiring.build_path(rewiring.load_fixture_decomposition(fixtures.TABLE1)).to_json()
        doc["ancilla_qubits"] = [0]
        bad = tmp_path / "ancilla0.json"
        bad.write_text(json.dumps(doc))
        assert run("verify", str(bad), "--min-distance", "3") == cli.EXIT_DATA
        assert run("simulate", str(bad), "--trials", "1") == cli.EXIT_DATA
        assert capsys.readouterr().err.count("no single-qubit Z or X on ancilla qubit 0") == 2

    @pytest.mark.parametrize("trials", ["-3", "0"])
    def test_non_positive_trials_are_usage_errors(self, written_path, trials, capsys):
        assert run("simulate", str(written_path), "--trials", trials) == cli.EXIT_USAGE
        assert "--trials must be >= 1" in capsys.readouterr().err

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

    def test_large_lemma1_skips_enumeration_in_one_short_line(self, capsys):
        # 2^(120^2) has more decimal digits than int-to-str conversion allows
        assert run("bounds", "--lemma1", "120") == cli.EXIT_OK
        skipped = [line for line in capsys.readouterr().out.splitlines() if "enumeration skipped" in line]
        assert len(skipped) == 1 and len(skipped[0]) < 80

    @pytest.mark.parametrize(
        "argv",
        [
            ["--lemma1", "15000"],  # the closed form's digits pass the int-to-str limit
            ["--n", "1000", "--d", "600", "--eps", "0.01", "--min-ancilla"],  # exp overflows below m = 3519
            ["--n", "7", "--d", "3", "--eps", "1e-320", "--min-ancilla"],  # 1/eps overflows
        ],
    )
    def test_extreme_inputs_exit_cleanly_in_short_lines(self, capsys, argv):
        assert run("bounds", *argv) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(len(line) < 200 for line in lines)
        assert not any("inf)" in line for line in lines if line.startswith("min ancillas"))

    def test_tiny_lemma1_values_print_in_exponent_form(self, capsys):
        assert run("bounds", "--lemma1", "26") == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "= 3.576279e-07" in out and "(n-1)/2^n: 3.725290e-07" in out
        assert "0.000000" not in out

    def test_lemma1_up_to_25_prints_the_pinned_bytes(self, capsys):
        # sha256 of `bounds --lemma1 N` for N = 1..25, before tiny values switched to exponent form
        for n in range(1, 26):
            assert run("bounds", "--lemma1", str(n)) == cli.EXIT_OK
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "d15224936bb03f37a34110f72a1f4a2ea94a24c0e0e75ea723f946a6e471d6fa"

    def test_overflowed_rows_print_as_one_line(self, capsys):
        assert run("bounds", "--n", "1000", "--d", "600", "--eps", "0.01", "--min-ancilla") == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1379
        assert [line for line in lines if "raw=inf" in line] == ["  m=0..2145  raw=inf  effective=1.000000"]
        assert lines[2] == "  m=2146  raw=1.704634e+308  effective=1.000000"
        assert lines[-1] == "min ancillas for eps=0.01: m = 3519 (scale d*ln(n/d)+ln(1/eps) = 311.101)"

    @pytest.mark.parametrize("extra", [[], ["--lemma1", "3"]])
    def test_bound_outside_its_domain_prints_nothing(self, capsys, extra):
        assert run("bounds", "--n", "7", "--d", "9", "--eps", "0.1", *extra) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "3/4" in captured.err


class TestReproduce:
    def test_table1(self, capsys):
        assert run("reproduce", "table1") == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "multi-qubit gates: 17" in out
        assert "all checks pass" in out

    def test_unknown_table_is_usage_error(self):
        assert run("reproduce", "table9") == cli.EXIT_USAGE

