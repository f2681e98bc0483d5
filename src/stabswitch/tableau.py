"""Stabilizer-state simulation of the measure-and-correct switching channel.

A Tableau holds an n-qubit stabilizer state as its n signed stabilizer
rows, the layout of a code's generator matrix and sign bits: a state is
a stabilizer group with k = 0.  Measurements of arbitrary Pauli
operators and conditional Pauli corrections are performed natively on
these rows.

The channel for one conversion step is: measure the incoming generator,
then apply the outgoing generator if the observed eigenvalue differs
from the incoming generator's declared sign.  The incoming generator
anticommutes with the outgoing one, which stabilizes the state, so
every switching measurement is random and, as a group, an adjacent
exchange of the state's own generators: the outcome-signed incoming
operator replaces the first row it anticommutes with, and every other
anticommuting row is multiplied by that first row (the rowsum of
Aaronson and Gottesman, its sign one pauli.phase_exponent call).
Deterministic eigenvalues, behind contains, stabilizes and the
end-of-path check, are read through pauli.span_signs, the signed
membership test codes use.  run_path folds
the channel over a ConversionPath and checks that the final state is
stabilized by the target code with its printed signs, which
disentangles the ancilla qubits too: each one's signed single-qubit
stabilizer is in that group.
simulate_trials is the seeded trial loop behind the CLI's simulate and
reproduce commands: encode a logical eigenstate, run the path, and check
that the transported logicals still stabilize it.
inject_and_check lists, for each intermediate, every undetectable error
of weight <= cap, from the analysis.path_walk that verify_path runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import analysis, gf2, pauli
from .pauli import PauliOp, StabilizerCode


class InconsistentSpecError(ValueError):
    """The requested logical eigenstate specification is contradictory."""


class StabilizationFailureError(AssertionError):
    """A path run did not end stabilized by the target code, or the frame
    broke a stabilizer-formalism invariant (internal bug)."""


class TransportFailureError(AssertionError):
    """Logical transport produced an operator outside the target normalizer."""


class Tableau:
    """An n-qubit pure stabilizer state as its n signed stabilizer rows:
    row i is (x[i] | z[i]) with sign (-1)^r[i], and the rows are mutated
    in place by measurements and Pauli corrections."""

    def __init__(self, n: int, x: np.ndarray, z: np.ndarray, r: np.ndarray):
        self.n = n
        self.x = x
        self.z = z
        self.r = r

    @classmethod
    def from_stabilizers(cls, stabilizers: Sequence[PauliOp]) -> "Tableau":
        """The state fixed by n independent commuting signed Paulis."""
        n = stabilizers[0].n
        if len(stabilizers) != n:
            raise ValueError(f"need exactly {n} stabilizers, got {len(stabilizers)}")
        g = StabilizerCode(n, tuple(stabilizers)).generator_matrix  # validates the set
        r = np.array([p.sign < 0 for p in stabilizers], dtype=np.uint8)
        return cls(n, g[:, :n].copy(), g[:, n:].copy(), r)

    def copy(self) -> "Tableau":
        return Tableau(self.n, self.x.copy(), self.z.copy(), self.r.copy())

    def _anticommute_mask(self, v: np.ndarray) -> np.ndarray:
        """Boolean mask over the n rows of anticommutation with each vector in v."""
        return ((v[..., self.n :] @ self.x.T + v[..., : self.n] @ self.z.T) % 2).astype(bool)

    def _deterministic_eigenvalues(self, ops: Sequence[PauliOp]) -> np.ndarray:
        """Eigenvalue (+1 or -1) of each op's unsigned vector in the
        stabilizer group, 0 for the rest."""
        vecs = np.array([p.vector for p in ops], dtype=np.uint8).reshape(len(ops), 2 * self.n)
        power, inside = pauli.span_signs(np.hstack([self.x, self.z]), self.r, vecs)
        if (power[inside] % 2).any():
            raise StabilizationFailureError("a stabilizer product has an imaginary phase")
        return np.where(inside, 1 - power, 0)

    def measure(
        self,
        p: PauliOp,
        rng: np.random.Generator | None = None,
        forced: int | None = None,
    ) -> int:
        """Measure the unsigned Pauli observable underlying p.

        Returns the eigenvalue in {+1, -1}.  p's own sign is ignored; the
        caller compares the outcome against whatever sign it expects.  If
        the vector of p is in the stabilizer group the outcome is
        deterministic and the state unchanged; otherwise the outcome is
        uniformly random (or `forced` if given) and the outcome-signed p
        replaces the first row it anticommutes with, after every other
        such row is multiplied by that first row.
        """
        if p.n != self.n:
            raise ValueError("qubit count mismatch")
        anti = np.nonzero(self._anticommute_mask(p.vector))[0]
        if anti.size == 0:
            outcome = int(self._deterministic_eigenvalues([p])[0])
            if not outcome:
                raise StabilizationFailureError(f"{p} commutes with every stabilizer but is not in the group")
            return outcome
        if forced is not None:
            outcome = int(forced)
            if outcome not in (+1, -1):
                raise ValueError("forced outcome must be +1 or -1")
        else:
            if rng is None:
                raise ValueError("random measurement needs an rng (or forced outcome)")
            outcome = +1 if int(rng.integers(0, 2)) == 0 else -1
        piv, rows = anti[0], anti[1:]
        power = pauli.phase_exponent(self.x[piv], self.z[piv], self.x[rows], self.z[rows])
        power = (power + 2 * (self.r[piv] + self.r[rows])) % 4
        if (power % 2).any():
            raise StabilizationFailureError(f"rowsum between anticommuting rows {rows[power % 2 == 1]} and {piv}")
        self.x[rows] ^= self.x[piv]
        self.z[rows] ^= self.z[piv]
        self.r[rows] = power // 2
        self.x[piv], self.z[piv], self.r[piv] = p.x, p.z, 0 if outcome > 0 else 1
        return outcome

    def apply_pauli(self, p: PauliOp) -> "Tableau":
        """Conjugate the frame by p: rows anticommuting with p flip sign."""
        if p.n != self.n:
            raise ValueError("qubit count mismatch")
        self.r ^= self._anticommute_mask(p.vector).astype(np.uint8)
        return self

    def contains(self, p: PauliOp) -> bool:
        """True iff the signed operator p is exactly in the stabilizer group."""
        return bool(self._deterministic_eigenvalues([p])[0] == p.sign)

    def stabilizes(self, code: StabilizerCode) -> bool:
        """True iff every signed generator of code stabilizes the state."""
        return bool((self._deterministic_eigenvalues(code.gens) == [g.sign for g in code.gens]).all())


@dataclass(frozen=True)
class LogicalFrame:
    """Symplectic pairs of logical representatives for a code: k X-type and
    k Z-type operators with X_i, Z_i anticommuting and all other pairs
    commuting, none in the stabilizer group."""

    logical_x: tuple[PauliOp, ...]
    logical_z: tuple[PauliOp, ...]

    def validate(self, code: StabilizerCode) -> None:
        """Raise ValueError unless the 2k operators are in the normalizer of
        code with symplectic products [[0, I], [I, 0]].  A stabilizer
        commutes with the normalizer, so that pairing check rejects it."""
        k = code.k
        if len(self.logical_x) != k or len(self.logical_z) != k:
            raise ValueError(f"frame has wrong rank for k={k}")
        ops = self.logical_x + self.logical_z
        vecs = np.array([op.vector for op in ops], dtype=np.uint8).reshape(2 * k, 2 * code.n)
        products = gf2.symplectic_products(np.vstack([code.generator_matrix, vecs]), vecs)
        outside = products[: len(code.gens)].any(axis=0)
        if outside.any():
            raise ValueError(f"{ops[int(np.argmax(outside))]} is outside the code normalizer")
        if not np.array_equal(products[len(code.gens) :], np.roll(gf2.identity(2 * k), k, axis=1)):
            raise ValueError("frame pairs are not symplectic")


def logical_frame(code: StabilizerCode) -> LogicalFrame:
    """Canonical logical frame: symplectic Gram-Schmidt over the 2k rows
    of code.logical_basis.  Each round pairs u, the first nonzero row,
    with w, the first row anticommuting with u, and sweeps every row to
    commute with both, which zeroes u and w.  By induction over the
    rounds, this is the frame the same Gram-Schmidt over the whole
    normalizer kernel picks with a membership test per round: a swept
    row commutes with the pairs so far and lies in the span of
    logical_basis, which meets the group only in 0, so it is in the span
    of the group and the pairs iff it is zero; and a kernel row outside
    logical_basis is a group element plus earlier basis rows, so the
    first kernel row outside that span, or anticommuting with u, is a
    basis row."""
    rows = code.logical_basis
    xs, zs = [], []
    for _ in range(code.k):
        u = rows[np.argmax(rows.any(axis=1))]
        w = rows[np.argmax(gf2.symplectic_products(u, rows)[0])]
        rows = rows ^ np.outer(gf2.symplectic_products(w, rows)[0], u)
        rows ^= np.outer(gf2.symplectic_products(u, rows)[0], w)
        xs.append(u)
        zs.append(w)
    frame = LogicalFrame(tuple(map(PauliOp.from_vector, xs)), tuple(map(PauliOp.from_vector, zs)))
    frame.validate(code)
    return frame


def _parse_state_spec(spec, k: int) -> list[tuple[str, int]]:
    if isinstance(spec, str):
        s = spec.strip()
        sign = +1
        if s and s[0] in "+-":
            sign = +1 if s[0] == "+" else -1
            s = s[1:]
        if s not in ("X", "Z"):
            raise InconsistentSpecError(f"unknown state spec {spec!r}")
        return [(s, sign)] * k
    out = []
    for axis, sign in spec:
        if axis not in ("X", "Z") or sign not in (+1, -1):
            raise InconsistentSpecError(f"bad spec entry {(axis, sign)!r}")
        out.append((axis, sign))
    if len(out) != k:
        raise InconsistentSpecError(f"spec lists {len(out)} qubits, code has k={k}")
    return out


def encode(code: StabilizerCode, frame: LogicalFrame, state_spec) -> Tableau:
    """Tableau for the logical eigenstate selected by state_spec.

    state_spec is either a string like "+Z" / "-X" (applied to every
    logical qubit) or a sequence of (axis, sign) pairs, one per logical
    qubit.  The result is stabilized by all code generators plus the
    selected signed logical operators.
    """
    entries = _parse_state_spec(state_spec, code.k)
    try:
        frame.validate(code)
    except ValueError as exc:
        raise InconsistentSpecError(str(exc)) from None
    pairs = zip(entries, frame.logical_x, frame.logical_z)
    picked = [(lx if axis == "X" else lz, sign) for (axis, sign), lx, lz in pairs]
    # the generators and one operator of each frame pair commute and are
    # independent: an operator's partner anticommutes with it alone
    g = np.vstack([code.generator_matrix, *(op.vector for op, _ in picked)])
    r = np.array([p.sign < 0 for p in code.gens] + [op.sign * sign < 0 for op, sign in picked], dtype=np.uint8)
    return Tableau(code.n, g[:, : code.n].copy(), g[:, code.n :].copy(), r)


def run_step(t: Tableau, step, rng: np.random.Generator | None = None, forced: int | None = None) -> int:
    """One measure-and-correct conversion step, in place.

    Measures the step's incoming generator; if the observed eigenvalue
    differs from that generator's declared sign, applies the outgoing
    generator as a correction.  Returns the raw measurement outcome.
    """
    outcome = t.measure(step.measure, rng=rng, forced=forced)
    if outcome != step.measure.sign:
        t.apply_pauli(step.correct)
    return outcome


def run_path(
    t: Tableau,
    path,
    rng: np.random.Generator | None = None,
    forced: Sequence[int | None] | None = None,
    record: list | None = None,
) -> Tableau:
    """Run every step of a ConversionPath, in place.

    `forced`, when given, supplies a per-step outcome override (None
    entries fall back to rng).  `record`, when given, receives one dict
    per step with the outcome and whether the correction fired.  After
    the last step the frame must be stabilized by the padded target code,
    which also disentangles every ancilla qubit: its signed single-qubit
    stabilizer is an element of that group (ConversionPath.from_json
    rejects ancilla qubits without one).  A failure raises
    StabilizationFailureError since it indicates an adjacency bug.
    """
    if forced is not None and len(forced) != len(path.steps):
        raise ValueError("forced outcome schedule length != step count")
    for i, step in enumerate(path.steps):
        f = forced[i] if forced is not None else None
        outcome = run_step(t, step, rng=rng, forced=f)
        if record is not None:
            record.append({"step": i, "outcome": outcome, "corrected": outcome != step.measure.sign})
    if not t.stabilizes(path.target):
        raise StabilizationFailureError("final state not stabilized by target code")
    return t


def simulate_trials(
    path,
    trials: int,
    seed: int,
    forced: Sequence[int | None] | None = None,
) -> Iterator[tuple[str, int, str | None]]:
    """Run `trials` fresh encodings of +Z and then of +X through a path.

    Trial t of state s (0 for +Z, 1 for +X) draws its outcomes from
    default_rng(SeedSequence(entropy=seed, spawn_key=(s, t))); `forced`
    is passed on to run_path.  A trial passes when run_path succeeds and
    every transported logical of the encoded axis still stabilizes the
    final state.  Yields (state, trial, failure) in run order, with
    failure None on a pass and a one-line reason otherwise.
    """
    frame = logical_frame(path.source)
    carried = transport_logicals(frame, path)
    for state_idx, spec in enumerate(("+Z", "+X")):
        outs = carried.logical_x if spec == "+X" else carried.logical_z
        encoded = encode(path.source, frame, spec)
        for trial in range(trials):
            seq = np.random.SeedSequence(entropy=seed, spawn_key=(state_idx, trial))
            rng = np.random.default_rng(seq)
            t = encoded.copy()
            try:
                run_path(t, path, rng, forced=forced)
            except StabilizationFailureError as exc:
                yield spec, trial, str(exc)
                continue
            lost = [op for op in outs if not t.contains(op)]
            yield spec, trial, f"logical eigenvalue lost for {lost[-1]}" if lost else None


def transport_logicals(frame: LogicalFrame, path) -> LogicalFrame:
    """Carry logical representatives through a path.

    A representative anticommuting with a step's measured generator is
    multiplied by that step's outgoing generator, which restores
    commutation with the new code while acting identically on the
    encoded state.  Products are linear, so which steps multiply which of
    the 2k representatives follows from one product of them and of the
    corrections with [measures; corrections], and the carried operators
    are one pauli.signed_products call.
    """
    ops, steps, n = frame.logical_x + frame.logical_z, path.steps, path.target.n
    k2 = len(ops)
    rows = np.array([op.vector for op in ops] + [s.correct.vector for s in steps], dtype=np.uint8).reshape(-1, 2 * n)
    # seen[i, j]: row i (a representative as carried so far, or a correction) against measure j, or correction j - L
    seen = gf2.symplectic_products(rows, np.vstack([rows[:0], *(s.measure.vector for s in steps), rows[k2:]]))
    select = np.eye(k2, len(rows), dtype=np.uint8)  # representative i, then the corrections it picks up
    for j in range(len(steps)):
        select[:, k2 + j] = seen[:k2, j]
        if (select[:, k2 + j] & seen[:k2, len(steps) + j]).any():
            raise pauli.NonHermitianProductError("operands anticommute; the product is not Hermitian")
        seen[:k2] ^= np.outer(select[:, k2 + j], seen[k2 + j])
    signs = [op.sign < 0 for op in ops] + [s.correct.sign < 0 for s in steps]
    x, z, power = pauli.signed_products(rows[:, :n], rows[:, n:], signs, select)
    carried = [PauliOp(xi, zi, 1 - int(p)) for xi, zi, p in zip(x, z, power)]
    out = LogicalFrame(tuple(carried[: len(frame.logical_x)]), tuple(carried[len(frame.logical_x) :]))
    try:
        out.validate(path.target)
    except ValueError as exc:
        raise TransportFailureError(str(exc)) from None
    return out


@dataclass(frozen=True)
class InjectionReport:
    ok: bool
    failures: tuple[tuple[int, PauliOp], ...]
    errors_checked: int
    syndrome_mismatches: int


def inject_and_check(path, error_weight_cap: int) -> InjectionReport:
    """List every undetectable Pauli error of weight <= cap on each
    intermediate code, as (intermediate index, error) in enumeration order.

    Keeps every hit of verify_path's analysis.path_walk.  No syndrome
    readout is simulated, so `syndrome_mismatches` is always 0.
    """
    letters = analysis._error_letters(path.n, error_weight_cap)
    failures = [
        (idx, PauliOp.from_vector(v))
        for idx, bad in enumerate(analysis.path_walk(path, letters))
        for v in analysis._xor_rows(analysis._single_qubit_paulis(path.n), letters[bad])
    ]
    return InjectionReport(not failures, tuple(failures), len(letters) * len(path.intermediates), 0)
