import copy
import json

import pytest

from stabswitch import catalog, gadgets, rewiring
from stabswitch.pauli import PauliOp, StabilizerCode


class TestGateCount:
    def test_table1_is_17(self, table_paths):
        assert gadgets.gate_count(table_paths["table1"]) == 17

    def test_table1_per_step_weights(self, table_paths):
        sizes = [g.cat_size for g in gadgets.emit(table_paths["table1"]).gadgets]
        assert sizes == [4, 4, 4, 4, 1]

    def test_empty_path(self, steane7):
        path = rewiring.build_path(rewiring.decompose(steane7, steane7))
        assert gadgets.gate_count(path) == 0
        assert gadgets.emit(path).total_multiqubit_gates == 0

    def test_matches_bundle_total(self, table_paths):
        for path in table_paths.values():
            assert gadgets.emit(path).total_multiqubit_gates == gadgets.gate_count(path)

    def test_invariant_under_qubit_relabeling(self, table_paths):
        path = table_paths["table2"]
        perm = catalog.parse_cycles("(19)(28)", path.n)

        def permute_path(p):
            def mv(op):
                return catalog.permute_code(StabilizerCode(op.n, (op,)), perm).gens[0]

            steps = tuple(
                rewiring.ConversionStep(mv(s.measure), mv(s.correct), s.replaced_index)
                for s in p.steps
            )
            return steps

        relabeled = permute_path(path)
        original = gadgets.gate_count(path)
        assert sum(s.measure.weight for s in relabeled) == original


class TestGadgetStructure:
    def test_controls_cover_support(self, table_paths):
        for path in table_paths.values():
            for gadget, step in zip(gadgets.emit(path).gadgets, path.steps):
                data_qubits = tuple(q for _, q, _ in gadget.controls)
                assert data_qubits == step.measure.support
                cats = [c for c, _, _ in gadget.controls]
                assert cats == list(range(gadget.cat_size))
                for _, q, letter in gadget.controls:
                    assert letter == step.measure.letter(q)
                assert dict(gadget.correction_letters) == {
                    q: step.correct.letter(q) for q in step.correct.support
                }

    def test_weight_one_measurement(self, table_paths):
        last = gadgets.emit(table_paths["table1"]).gadgets[-1]
        assert last.cat_size == 1
        assert last.measure == PauliOp.from_string("IIIIIZI")

    def test_target_sign_bits(self, table_paths):
        for path in table_paths.values():
            for gadget, step in zip(gadgets.emit(path).gadgets, path.steps):
                assert gadget.target_sign_bit == (0 if step.measure.sign > 0 else 1)


class TestSerialization:
    def test_round_trip_bit_exact(self, table_paths):
        for path in table_paths.values():
            bundle = gadgets.emit(path)
            doc = bundle.to_json()
            text = json.dumps(doc, sort_keys=True)
            again = gadgets.CircuitBundle.from_json(json.loads(text))
            assert json.dumps(again.to_json(), sort_keys=True) == text

    def test_emit_deterministic(self, table_paths):
        a = json.dumps(gadgets.emit(table_paths["table3"]).to_json())
        b = json.dumps(gadgets.emit(table_paths["table3"]).to_json())
        assert a == b

    def test_json_shape(self, table_paths):
        doc = gadgets.emit(table_paths["table1"]).to_json()
        gadget = doc["gadgets"][0]
        assert gadget["ops"][0] == {"op": "prepare_cat", "size": gadget["cat_size"]}
        assert gadget["ops"][1]["op"] == "cpauli"
        assert gadget["ops"][-2] == {"op": "measure_cat_x"}
        cond = gadget["ops"][-1]
        assert cond["op"] == "cond_pauli"
        assert cond["condition"] == "parity!=target"


def tampered_circuits(doc):
    """(name, document) pairs, each a copy of an emitted table1 circuit
    with fields its gadgets' operators do not produce."""
    cases = []

    def case(name, edit):
        bad = copy.deepcopy(doc)
        edit(bad)
        cases.append((name, bad))

    first = doc["gadgets"][0]
    support = {op["data"] for op in first["ops"] if op["op"] == "cpauli"}
    assert 6 not in support

    def cat_sizes(d):  # the total stays 17
        d["gadgets"][0]["cat_size"], d["gadgets"][1]["cat_size"] = 3, 5

    def control_letter(d):
        d["gadgets"][0]["ops"][1]["letter"] = "Q"

    def control_outside_support(d):
        d["gadgets"][0]["ops"][1]["data"] = 6

    def target_sign(d):
        d["gadgets"][0]["ops"][-1]["target_sign"] = 7

    def all_four(d):
        for edit in (cat_sizes, control_letter, control_outside_support, target_sign):
            edit(d)

    for edit in (cat_sizes, control_letter, control_outside_support, target_sign, all_four):
        case(edit.__name__, edit)
    case("missing cat_size", lambda d: d["gadgets"][0].pop("cat_size"))
    case("missing total", lambda d: d.pop("total_multiqubit_gates"))
    case("missing measure_cat_x", lambda d: d["gadgets"][0]["ops"].pop(-2))
    case("prepare_cat size", lambda d: d["gadgets"][0]["ops"][0].update(size=5))
    case("step index", lambda d: d["gadgets"][0].update(step=3))
    case("bool step index", lambda d: d["gadgets"][1].update(step=True))
    case("correction letter", lambda d: d["gadgets"][0]["ops"][-1]["letters"].update({"0": "Q"}))
    case("correction qubit", lambda d: d["gadgets"][0]["ops"][-1]["letters"].update({"99": "X"}))
    case("no cond_pauli", lambda d: d["gadgets"][0]["ops"].pop(-1))
    case("no gadgets", lambda d: d.pop("gadgets"))
    return cases


class TestTamperedCircuits:
    def test_every_tampered_document_raises(self, table_paths):
        doc = gadgets.emit(table_paths["table1"]).to_json()
        assert doc["total_multiqubit_gates"] == 17
        cases = tampered_circuits(doc)
        assert len(cases) == 15
        for name, bad in cases:
            with pytest.raises(ValueError):
                gadgets.CircuitBundle.from_json(json.loads(json.dumps(bad)))
        # the untouched document still loads
        gadgets.CircuitBundle.from_json(json.loads(json.dumps(doc)))
