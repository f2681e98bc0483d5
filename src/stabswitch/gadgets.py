"""Fault-tolerant measurement gadgets for conversion steps.

Each step's incoming generator is measured with a verified cat state of
size equal to the generator's support: one controlled Pauli from each
cat wire onto its data qubit, an X-basis readout of the cat, and a
classically conditioned Pauli correction that fires when the readout
parity disagrees with the generator's declared sign.  Cat preparation
and verification are treated as given resources; the multi-qubit gate
count tallies exactly the cat-to-data controlled Paulis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .pauli import PauliOp


@dataclass(frozen=True)
class Gadget:
    """One measure-and-correct step compiled to a cat-state gadget; every
    circuit field is read off the step's two operators."""

    step_index: int
    measure: PauliOp
    correct: PauliOp

    @property
    def cat_size(self) -> int:
        return self.measure.weight

    @property
    def controls(self) -> tuple[tuple[int, int, str], ...]:
        """(cat wire, data qubit, letter), one per qubit of the measured support."""
        return tuple((wire, q, self.measure.letter(q)) for wire, q in enumerate(self.measure.support))

    @property
    def correction_letters(self) -> tuple[tuple[int, str], ...]:
        return tuple((q, self.correct.letter(q)) for q in self.correct.support)

    @property
    def target_sign_bit(self) -> int:
        """0 for +1, 1 for -1."""
        return 0 if self.measure.sign > 0 else 1

    def to_json(self) -> dict:
        ops: list[dict] = [{"op": "prepare_cat", "size": self.cat_size}]
        for cat, data, letter in self.controls:
            ops.append({"op": "cpauli", "cat": cat, "data": data, "letter": letter})
        ops.append({"op": "measure_cat_x"})
        ops.append(
            {
                "op": "cond_pauli",
                "condition": "parity!=target",
                "target_sign": self.target_sign_bit,
                "letters": {str(q): letter for q, letter in self.correction_letters},
            }
        )
        return {
            "step": self.step_index,
            "measure": self.measure.to_string(),
            "cat_size": self.cat_size,
            "ops": ops,
        }


@dataclass(frozen=True)
class CircuitBundle:
    gadgets: tuple[Gadget, ...]

    @property
    def total_multiqubit_gates(self) -> int:
        return sum(g.cat_size for g in self.gadgets)

    def to_json(self) -> dict:
        return {
            "total_multiqubit_gates": self.total_multiqubit_gates,
            "gadgets": [g.to_json() for g in self.gadgets],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "CircuitBundle":
        """Rebuild gadget i from its measured operator and correction
        letters; raises ValueError unless the rebuilt bundle serializes to
        exactly the document."""
        try:
            gadgets = []
            for i, gdoc in enumerate(doc["gadgets"]):
                measure = PauliOp.from_string(gdoc["measure"])
                cond = next(op for op in gdoc["ops"] if op["op"] == "cond_pauli")
                correct = ["I"] * measure.n
                for q, letter in cond["letters"].items():
                    correct[int(q)] = letter
                gadgets.append(Gadget(i, measure, PauliOp.from_string("".join(correct))))
        except (KeyError, TypeError, IndexError, StopIteration, AttributeError) as exc:
            raise ValueError(f"malformed circuit document: {exc!r}") from None
        bundle = cls(tuple(gadgets))
        if json.dumps(bundle.to_json(), sort_keys=True) != json.dumps(doc, sort_keys=True):
            raise ValueError("circuit document differs from the gadgets its operators compile to")
        return bundle


def emit(path) -> CircuitBundle:
    """Compile every step of a path to a gadget, in step order."""
    return CircuitBundle(tuple(Gadget(i, s.measure, s.correct) for i, s in enumerate(path.steps)))


def gate_count(path) -> int:
    """Total cat-to-data controlled-Pauli count: the summed support size
    of all measured generators."""
    return sum(step.measure.weight for step in path.steps)
