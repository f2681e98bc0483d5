"""Construction of transversal switching circuits between stabilizer codes.

The pipeline turns a pair of [[n, k]] codes into an ordered sequence of
adjacent-code exchanges (measure the incoming generator, correct with
the outgoing one on a sign mismatch):

  1. pad          - equalize qubit counts with |0> blocks, then append m
                    ancillas: |0> (Z stabilizers) on the source side and
                    |+> (X stabilizers) on the target side.
  2. decompose    - split both groups into a shared block (the
                    intersection), a bridged block (elements normalizing
                    the opposite group), and a direct block, then
                    normalize so direct pairs anticommute exactly
                    pairwise (identity commutativity matrix).
  3. randomize    - remix the direct blocks by a uniform invertible
                    matrix (plus bridged admixtures), preserving the
                    identity commutativity matrix.
  4. solve_bridges- for every bridged pair pick an auxiliary operator
                    anticommuting with both ends and commuting with
                    everything else still in play.
  5. build_path   - emit the exchange sequence and all intermediate
                    codes, each step checked for adjacency and both
                    endpoints checked as signed groups.
  6. search       - repeat 3-4 with fresh child seeds on GF(2) rows
                    (randomize_rows, solve_bridge_rows) and screen each
                    draw's intermediates for the distance check on those
                    rows (DrawScreen); only the draw that passes gets
                    signed Paulis and a build_path + verify_path check.

All randomness flows from one 64-bit seed: retry r uses the child
generator default_rng(SeedSequence(seed, spawn_key=(r,))), and draws V,
V' and then U in that order, so runs are bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import analysis, gf2, pauli
from .pauli import PauliOp, StabilizerCode


class MismatchedLogicalCountError(ValueError):
    """The two codes encode different numbers of logical qubits."""


class SignMismatchError(ValueError):
    """A shared stabilizer carries opposite signs in the two groups, so no
    exchange sequence (which never touches shared generators) can map one
    signed group onto the other."""


class AdjacencyViolationError(AssertionError):
    """An emitted step failed the adjacency invariant, or a decomposition
    block broke the pairing or group membership it relies on (internal
    bug)."""


class FixtureInvalidError(ValueError):
    """A conversion fixture violates the decomposition invariants."""


class PathIntegrityError(ValueError):
    """A path document whose stored codes do not follow from its first
    code and steps, or whose endpoints are not its source and target."""


class SearchExhaustedError(RuntimeError):
    """No distance-preserving draw found within the retry budget."""

    def __init__(self, retries: int, best_distance_floor: int | None):
        self.retries = retries
        self.best_distance_floor = best_distance_floor
        super().__init__(
            f"no distance-preserving path in {retries} retries"
            + (
                f" (best failing intermediate had distance {best_distance_floor})"
                if best_distance_floor is not None
                else ""
            )
        )


StepOrder = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Decomposition:
    """Prepared generator blocks for a padded code pair.

    shared rows belong to both groups (with equal signs); bridged rows of
    one group normalize the other; the direct blocks satisfy
    <direct_tgt[i], direct_src[j]> = delta_ij after normalization.
    bridges holds one auxiliary operator per bridged pair once solved.
    step_order, when set, overrides the canonical exchange order (used by
    fixtures that prescribe their own printed order).
    """

    source: StabilizerCode
    target: StabilizerCode
    m: int
    ancilla_qubits: tuple[int, ...]
    shared: tuple[PauliOp, ...]
    bridged_src: tuple[PauliOp, ...]
    bridged_tgt: tuple[PauliOp, ...]
    direct_src: tuple[PauliOp, ...]
    direct_tgt: tuple[PauliOp, ...]
    bridges: tuple[PauliOp, ...] | None = None
    step_order: StepOrder | None = None

    @property
    def padded_n(self) -> int:
        return self.source.n

    def counts(self) -> tuple[int, int, int]:
        return len(self.shared), len(self.bridged_src), len(self.direct_src)


@dataclass(frozen=True)
class ConversionStep:
    """One adjacent-code exchange: measure the incoming generator (sign =
    its sign in the next code) and apply the outgoing generator whenever
    the outcome differs from that sign."""

    measure: PauliOp
    correct: PauliOp
    replaced_index: int


@dataclass(frozen=True)
class ConversionPath:
    source: StabilizerCode
    target: StabilizerCode
    steps: tuple[ConversionStep, ...]
    intermediates: tuple[StabilizerCode, ...]
    ancilla_qubits: tuple[int, ...] = ()
    m: int = 0
    seed: int | None = None

    @property
    def n(self) -> int:
        return self.source.n

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "ancilla_qubits": list(self.ancilla_qubits),
            "source": pauli.code_to_json(self.source),
            "target": pauli.code_to_json(self.target),
            "steps": [
                {
                    "measure": s.measure.to_string(),
                    "correct": s.correct.to_string(),
                    "replaced_index": s.replaced_index,
                }
                for s in self.steps
            ],
            "intermediates": [pauli.code_to_json(c) for c in self.intermediates],
            "seed": self.seed,
            "m": self.m,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ConversionPath":
        """Parse a path document, re-deriving intermediates 1..L from the
        first stored code and the steps.

        Raises PathIntegrityError when a step is not an adjacent exchange,
        the stored intermediates differ from the derived ones, or the
        endpoints do not present the source and target signed groups.
        """
        source = pauli.code_from_json(doc["source"])
        target = pauli.code_from_json(doc["target"])
        steps = tuple(
            ConversionStep(
                measure=PauliOp.from_string(s["measure"]),
                correct=PauliOp.from_string(s["correct"]),
                replaced_index=int(s["replaced_index"]),
            )
            for s in doc["steps"]
        )
        start = pauli.code_from_json(doc["intermediates"][0])
        try:
            intermediates = _walk_steps(start, steps, source, target)
        except AdjacencyViolationError as exc:
            raise PathIntegrityError(str(exc)) from None
        if [pauli.code_to_json(c) for c in intermediates] != doc["intermediates"]:
            raise PathIntegrityError("stored intermediates differ from the codes the steps produce")
        return cls(
            source=source,
            target=target,
            steps=steps,
            intermediates=intermediates,
            ancilla_qubits=tuple(doc.get("ancilla_qubits", ())),
            m=int(doc.get("m", 0)),
            seed=doc.get("seed"),
        )


@dataclass(frozen=True)
class RewiringConfig:
    """Knobs for the randomized search.

    bridge_weight_samples > 0 additionally samples that many elements of
    each bridge's solution coset and keeps the lightest (ties broken
    lexicographically).
    """

    m: int = 0
    seed: int = 0
    max_retries: int = 1000
    min_distance: int = 1
    bridge_weight_samples: int = 0

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("m must be >= 0")
        if self.min_distance < 1:
            raise ValueError("min_distance must be >= 1")


def _padded_gen(g: PauliOp, n_new: int) -> PauliOp:
    pad = n_new - g.n
    x = np.concatenate([g.x, gf2.zeros(pad)])
    z = np.concatenate([g.z, gf2.zeros(pad)])
    return PauliOp(x, z, g.sign)


def _single_qubit(n: int, q: int, letter: str) -> PauliOp:
    x = gf2.zeros(n)
    z = gf2.zeros(n)
    if letter == "X":
        x[q] = 1
    else:
        z[q] = 1
    return PauliOp(x, z)


def _extend_code(code: StabilizerCode, n_new: int, letter: str) -> StabilizerCode:
    gens = tuple(_padded_gen(g, n_new) for g in code.gens) + tuple(
        _single_qubit(n_new, q, letter) for q in range(code.n, n_new)
    )
    return StabilizerCode(n_new, gens)


def pad(code_a: StabilizerCode, code_b: StabilizerCode, m: int) -> tuple[StabilizerCode, StabilizerCode]:
    """Equalize the two codes with |0> blocks, then append m ancillas:
    |0> (single-qubit Z) to the first code and |+> (single-qubit X) to
    the second."""
    if code_a.k != code_b.k:
        raise MismatchedLogicalCountError(f"k = {code_a.k} vs k = {code_b.k}")
    if m < 0:
        raise ValueError("m must be >= 0")
    n = max(code_a.n, code_b.n)
    a = _extend_code(code_a, n, "Z")
    b = _extend_code(code_b, n, "Z")
    return _extend_code(a, n + m, "Z"), _extend_code(b, n + m, "X")


def ancilla_qubits_for(code_a: StabilizerCode, code_b: StabilizerCode, m: int) -> tuple[int, ...]:
    """Qubits of the padded pair that are not data qubits of the original
    target code: the m appended ancillas, plus the equalization block
    when the target is the smaller code."""
    return _ancilla_qubits(code_a.n, code_b.n, m)


def _ancilla_qubits(n_a: int, n_b: int, m: int) -> tuple[int, ...]:
    n = max(n_a, n_b)
    return tuple(range(n_b, n_a)) + tuple(range(n, n + m))


def subspace_bases(
    g: np.ndarray, gp: np.ndarray, normalize: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic vector-level block bases for a padded pair.

    Returns (shared, bridged, direct, bridged', direct') as row matrices.
    With normalize=True the primed direct block is remixed so that
    <direct'[i], direct[j]> = delta_ij; the mixing is invertible, which
    is guaranteed by the invertibility of the commutativity matrix.
    """
    ga = gf2.intersect_rowspaces(g, gp)
    count = ga.shape[0]

    def norm_cap(own: np.ndarray, other: np.ndarray) -> np.ndarray:
        return gf2.kernel(gf2.symplectic_products(other, own)) @ own % 2

    gb = gf2.extend_basis(ga, norm_cap(g, gp))
    gbp = gf2.extend_basis(ga, norm_cap(gp, g))
    gc = gf2.extend_basis(np.vstack([ga, gb]), g)
    gcp = gf2.extend_basis(np.vstack([ga, gbp]), gp)
    if normalize:
        h = gf2.symplectic_products(gcp, gc)
        if gf2.rank(h) != h.shape[0]:
            raise AdjacencyViolationError("commutativity matrix singular")
        gcp = (gf2.invert(h) @ gcp) % 2
        if not np.array_equal(gf2.symplectic_products(gcp, gc), gf2.identity(gc.shape[0])):
            raise AdjacencyViolationError("normalized direct blocks do not pair to the identity")
    return ga, gb, gc, gbp, gcp


def _signed_rows(code: StabilizerCode, rows: np.ndarray) -> tuple[PauliOp, ...]:
    out = []
    for v in rows:
        elem = pauli.group_element(code, v)
        if elem is None:
            raise AdjacencyViolationError("decomposition row escaped its group")
        out.append(elem)
    return tuple(out)


def decompose(
    source: StabilizerCode,
    target: StabilizerCode,
    m: int = 0,
    ancilla_qubits: tuple[int, ...] = (),
) -> Decomposition:
    """Split a padded pair into shared / bridged / direct blocks with
    exact signs reconstructed from each group."""
    if source.n != target.n:
        raise ValueError("codes must be padded to a common qubit count first")
    ga, gb, gc, gbp, gcp = subspace_bases(source.generator_matrix, target.generator_matrix)
    shared = _signed_rows(source, ga)
    for op, v in zip(shared, ga):
        other = pauli.group_element(target, v)
        if other is None:
            raise AdjacencyViolationError(f"shared row {op} is outside the target group")
        if other.sign != op.sign:
            raise SignMismatchError(
                f"shared stabilizer {op} has sign {other.sign:+d} in the target group"
            )
    return Decomposition(
        source=source,
        target=target,
        m=m,
        ancilla_qubits=tuple(ancilla_qubits),
        shared=shared,
        bridged_src=_signed_rows(source, gb),
        bridged_tgt=_signed_rows(target, gbp),
        direct_src=_signed_rows(source, gc),
        direct_tgt=_signed_rows(target, gcp),
    )


@dataclass(frozen=True)
class BlockRows:
    """The generator blocks of a Decomposition as GF(2) row matrices, signs
    dropped: what the search screens each draw on.  bridges holds one row
    per bridged pair once solved."""

    shared: np.ndarray
    bridged_src: np.ndarray
    bridged_tgt: np.ndarray
    direct_src: np.ndarray
    direct_tgt: np.ndarray
    bridges: np.ndarray | None = None

    @classmethod
    def of(cls, dec: Decomposition) -> "BlockRows":
        def rows(ops: Sequence[PauliOp]) -> np.ndarray:
            return np.array([op.vector for op in ops], dtype=np.uint8).reshape(len(ops), 2 * dec.padded_n)

        return cls(
            shared=rows(dec.shared),
            bridged_src=rows(dec.bridged_src),
            bridged_tgt=rows(dec.bridged_tgt),
            direct_src=rows(dec.direct_src),
            direct_tgt=rows(dec.direct_tgt),
            bridges=None if dec.bridges is None else rows(dec.bridges),
        )


@dataclass(frozen=True)
class Draw:
    """One remix of the direct blocks, as coefficient matrices and rows.

    The new direct rows are src_bridged . bridged + src_direct . direct on
    the source side and tgt_bridged . bridged' + tgt_direct . direct' on
    the target side; rows holds the remixed blocks (bridges unsolved).
    """

    src_bridged: np.ndarray
    src_direct: np.ndarray
    tgt_bridged: np.ndarray
    tgt_direct: np.ndarray
    rows: BlockRows


def _mix(
    coeff_bridged: np.ndarray,
    coeff_direct: np.ndarray,
    bridged: Sequence[PauliOp],
    direct: Sequence[PauliOp],
    n: int,
) -> tuple[PauliOp, ...]:
    """Rows of products selected by two coefficient matrices (sign-exact)."""
    out = []
    for rb, rc in zip(coeff_bridged, coeff_direct):
        factors = [bridged[j] for j in np.nonzero(rb)[0]]
        factors += [direct[j] for j in np.nonzero(rc)[0]]
        out.append(pauli.product(factors, n=n))
    return tuple(out)


def _signed(dec: Decomposition, draw: Draw, bridges: np.ndarray | None) -> Decomposition:
    """The Decomposition a draw (and its solved bridge rows) stands for,
    with exact signs: each remixed row is a product of signed block rows."""
    n = dec.padded_n
    return replace(
        dec,
        direct_src=_mix(draw.src_bridged, draw.src_direct, dec.bridged_src, dec.direct_src, n),
        direct_tgt=_mix(draw.tgt_bridged, draw.tgt_direct, dec.bridged_tgt, dec.direct_tgt, n),
        bridges=None if bridges is None else tuple(PauliOp.from_vector(v) for v in bridges),
    )


def randomize_rows(rows: BlockRows, rng: np.random.Generator) -> Draw:
    """Draw V, V' and then U, and remix the direct rows:
    direct <- U(V . bridged + direct) and
    direct' <- (U^-1)^T (V' . bridged' + direct').

    The commutativity matrix stays the identity, which is checked on
    every draw.
    """
    c, b = len(rows.direct_src), len(rows.bridged_src)
    v = gf2.random_matrix(c, b, rng)
    vp = gf2.random_matrix(c, b, rng)
    u = gf2.random_gl(c, rng)
    uit = gf2.invert(u).T
    ub, uitb = (u @ v) % 2, (uit @ vp) % 2
    direct_src = (ub @ rows.bridged_src + u @ rows.direct_src) % 2
    direct_tgt = (uitb @ rows.bridged_tgt + uit @ rows.direct_tgt) % 2
    if not np.array_equal(gf2.symplectic_products(direct_tgt, direct_src), gf2.identity(c)):
        raise AdjacencyViolationError("randomization broke the direct pairing")
    mixed = replace(rows, direct_src=direct_src, direct_tgt=direct_tgt, bridges=None)
    return Draw(ub, u, uitb, uit, mixed)


def randomize(dec: Decomposition, rng: np.random.Generator) -> Decomposition:
    """randomize_rows with exact signs: each new row is the product of the
    signed block rows its coefficients select, so it stays inside its
    original group and the padded groups are unchanged."""
    return _signed(dec, randomize_rows(BlockRows.of(dec), rng), None)


def _bridge_system(rows: BlockRows, i: int, solved: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Constraint system for bridge i, as rows and the symplectic products
    the bridge must have with them: commute with the shared and direct
    blocks on both sides, with later bridged pairs, and with earlier
    bridges; anticommute with both ends of pair i."""
    commute = np.vstack(
        [
            rows.shared,
            rows.direct_src,
            rows.direct_tgt,
            rows.bridged_src[i + 1 :],
            rows.bridged_tgt[i + 1 :],
            solved,
        ]
    )
    mat = np.vstack([commute, rows.bridged_src[i : i + 1], rows.bridged_tgt[i : i + 1]])
    rhs = np.zeros(len(mat), dtype=np.uint8)
    rhs[len(commute) :] = 1
    return mat, rhs


def solve_bridge_rows(
    rows: BlockRows,
    rng: np.random.Generator | None = None,
    weight_samples: int = 0,
) -> BlockRows:
    """Solve the bridge constraint system for every bridged pair.

    The canonical solution sets all free variables to zero; with
    weight_samples > 0, that many random coset elements are also drawn
    and the lightest kept (ties broken by lexicographic bit order).
    """
    n = rows.shared.shape[1] // 2
    solved = gf2.zeros((0, 2 * n))

    def score(vec: np.ndarray) -> tuple[int, tuple[int, ...]]:
        return int((vec[:n] | vec[n:]).sum()), tuple(int(t) for t in vec)

    for i in range(len(rows.bridged_src)):
        mat, rhs = _bridge_system(rows, i, solved)
        x0, ker = gf2.solve_affine(gf2.swap_xz(mat), rhs)
        best = x0
        if weight_samples > 0:
            if rng is None:
                raise ValueError("weight sampling needs an rng")
            for _ in range(weight_samples):
                if ker.shape[0] == 0:
                    break
                coeff = rng.integers(0, 2, size=ker.shape[0], dtype=np.uint8)
                cand = (x0 + coeff @ ker) % 2
                if score(cand) < score(best):
                    best = cand.astype(np.uint8)
        solved = np.vstack([solved, best])
    return replace(rows, bridges=solved)


def solve_bridges(
    dec: Decomposition,
    rng: np.random.Generator | None = None,
    weight_samples: int = 0,
) -> Decomposition:
    """solve_bridge_rows on a signed Decomposition; bridges get sign +1."""
    rows = solve_bridge_rows(BlockRows.of(dec), rng, weight_samples)
    return replace(dec, bridges=tuple(PauliOp.from_vector(v) for v in rows.bridges))


def canonical_step_order(dec: Decomposition) -> StepOrder:
    """Bridged pairs move to their bridges, the direct block swaps over,
    then the bridges resolve to the target side in reverse order."""
    b = len(dec.bridged_src)
    c = len(dec.direct_src)
    order = [("bridge_in", i) for i in range(b)]
    order += [("direct", i) for i in range(c)]
    order += [("bridge_out", i) for i in reversed(range(b))]
    return tuple(order)


def _exchanges(order: StepOrder, a: int, bridges, bridged_tgt, direct_tgt):
    """(replaced index, incoming generator) for each step of order, in a
    generator list laid out as shared, bridged, direct.  The blocks may be
    signed Paulis or GF(2) rows."""
    b = len(bridged_tgt)
    seen_in: set[int] = set()
    for kind, i in order:
        if kind == "bridge_in":
            seen_in.add(i)
            yield a + i, bridges[i]
        elif kind == "direct":
            yield a + b + i, direct_tgt[i]
        elif kind == "bridge_out":
            if i not in seen_in:
                raise ValueError(f"step order resolves bridge {i} before introducing it")
            yield a + i, bridged_tgt[i]
        else:
            raise ValueError(f"unknown step kind {kind!r}")


def _walk_steps(
    start: StabilizerCode,
    steps: Sequence[ConversionStep],
    source: StabilizerCode,
    target: StabilizerCode,
) -> tuple[StabilizerCode, ...]:
    """start followed by the code after each step.

    Raises AdjacencyViolationError unless start presents source's signed
    group, every step corrects with the generator it replaces and
    measures an operator anticommuting with that generator alone, and the
    last code presents target's signed group.
    """
    if not start.same_group(source):
        raise AdjacencyViolationError("the first code does not present the source group")
    codes = [start]
    for step in steps:
        code, idx = codes[-1], step.replaced_index
        if not 0 <= idx < len(code.gens) or code.gens[idx] != step.correct:
            raise AdjacencyViolationError(f"step correction {step.correct} is not generator {idx} of its code")
        syn = pauli.syndrome(code, step.measure)
        if not syn[idx]:
            raise AdjacencyViolationError(f"{step.measure} commutes with the generator it replaces")
        if syn.sum() != 1:
            other = code.gens[next(j for j in np.nonzero(syn)[0] if j != idx)]
            raise AdjacencyViolationError(f"{step.measure} anticommutes with untouched generator {other}")
        gens = list(code.gens)
        gens[idx] = step.measure
        codes.append(StabilizerCode(code.n, tuple(gens)))
    if not codes[-1].same_group(target):
        raise AdjacencyViolationError("final code does not match the padded target group")
    return tuple(codes)


def build_path(dec: Decomposition) -> ConversionPath:
    """Emit the exchange sequence and every intermediate code.

    Every step is checked for adjacency (the incoming generator must
    anticommute with the one it replaces and commute with all others);
    the first and last generator lists must equal the padded source and
    target as signed groups.  Violations raise AdjacencyViolationError
    since they indicate an upstream bug rather than bad input.
    """
    a, b, c = dec.counts()
    if b and dec.bridges is None:
        raise ValueError("decomposition has bridged pairs but no bridges; run solve_bridges")
    gens: list[PauliOp] = list(dec.shared) + list(dec.bridged_src) + list(dec.direct_src)
    start = StabilizerCode(dec.padded_n, tuple(gens))
    order = dec.step_order if dec.step_order is not None else canonical_step_order(dec)
    steps: list[ConversionStep] = []
    for idx, incoming in _exchanges(order, a, dec.bridges, dec.bridged_tgt, dec.direct_tgt):
        steps.append(ConversionStep(measure=incoming, correct=gens[idx], replaced_index=idx))
        gens[idx] = incoming
    return ConversionPath(
        source=dec.source,
        target=dec.target,
        steps=tuple(steps),
        intermediates=_walk_steps(start, steps, dec.source, dec.target),
        ancilla_qubits=dec.ancilla_qubits,
        m=dec.m,
    )


@dataclass(frozen=True)
class DrawScreen:
    """Per-search tables that run verify_path's check on a draw's rows.

    errors are the weight < d error vectors that commute with the shared
    block, in analysis.error_vectors order; logicals is a basis of the
    padded source's normalizer modulo its group.  A quiet error (one
    commuting with every generator) lies outside the group exactly when
    it anticommutes with a logical, and each step carries the logicals
    along by multiplying those that anticommute with the incoming
    generator by the outgoing one.
    """

    errors: np.ndarray
    logicals: np.ndarray
    order: StepOrder

    @classmethod
    def of(cls, dec: Decomposition, d: int) -> "DrawScreen":
        g = dec.source.generator_matrix
        errs = analysis.error_vectors(dec.padded_n, d - 1)
        return cls(
            errors=gf2.commuting_rows(BlockRows.of(dec).shared, errs),
            logicals=gf2.extend_basis(g, gf2.kernel(gf2.swap_xz(g))),
            order=canonical_step_order(dec),
        )

    def first_failure(self, rows: BlockRows) -> tuple[int, PauliOp] | None:
        """(failing index, witness) as verify_path reports them for the path
        these rows build, or None if every intermediate passes."""
        a = len(rows.shared)
        steps = list(_exchanges(self.order, a, rows.bridges, rows.bridged_tgt, rows.direct_tgt))
        gens = np.vstack([rows.bridged_src, rows.direct_src, *(inc for _, inc in steps)])
        syn = gf2.symplectic_products(gens, self.errors)
        live = len(gens) - len(steps)
        cur, cur_syn = gens[:live].copy(), syn[:live].copy()
        logicals = self.logicals.copy()
        log_syn = gf2.symplectic_products(logicals, self.errors)
        for j in range(len(steps) + 1):
            bad = log_syn.any(axis=0) & ~cur_syn.any(axis=0)
            if bad.any():
                return j, PauliOp.from_vector(self.errors[int(np.argmax(bad))])
            if j < len(steps):
                idx, inc = steps[j]
                k = idx - a
                flip = gf2.symplectic_products(logicals, inc)[:, 0].astype(bool)
                logicals[flip] ^= cur[k]
                log_syn[flip] ^= cur_syn[k]
                cur[k], cur_syn[k] = inc, syn[live + j]
        return None


@dataclass(frozen=True)
class Rejection:
    retry: int
    failing_index: int
    witness: PauliOp


@dataclass(frozen=True)
class SearchResult:
    path: ConversionPath
    retries_used: int
    rejections: tuple[Rejection, ...]


def child_rng(seed: int, retry: int) -> np.random.Generator:
    """The documented child-seed derivation: spawn key = (retry,)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(retry,)))


def search(
    source: StabilizerCode,
    target: StabilizerCode,
    config: RewiringConfig,
    on_reject: Callable[[Rejection], None] | None = None,
) -> SearchResult:
    """Randomized search for a path whose intermediates all reach the
    configured minimum distance.

    Retry r randomizes with its own child generator, so results are
    reproducible and independent of how many retries earlier runs used.
    Each draw is screened on GF(2) rows; only the draw that passes is
    built with signs and adjacency checks and re-verified by
    verify_path.  Raises SearchExhaustedError after max_retries
    failures, reporting the best (largest) witness weight observed among
    first-failing intermediates.
    """
    if source.k == 0:
        raise ValueError("search needs codes with k >= 1")
    padded_src, padded_tgt = pad(source, target, config.m)
    ancilla = ancilla_qubits_for(source, target, config.m)
    base = decompose(padded_src, padded_tgt, m=config.m, ancilla_qubits=ancilla)
    rows = BlockRows.of(base)
    screen = DrawScreen.of(base, config.min_distance)
    rejections: list[Rejection] = []
    best: int | None = None
    for retry in range(config.max_retries):
        rng = child_rng(config.seed, retry)
        draw = randomize_rows(rows, rng)
        mixed = solve_bridge_rows(draw.rows, rng, config.bridge_weight_samples)
        failure = screen.first_failure(mixed)
        if failure is None:
            path = build_path(_signed(base, draw, mixed.bridges))
            if not analysis.verify_path(path, config.min_distance).ok:
                raise AdjacencyViolationError("verify_path rejects the draw that passed the row screen")
            return SearchResult(
                path=replace(path, seed=config.seed),
                retries_used=retry + 1,
                rejections=tuple(rejections),
            )
        rej = Rejection(retry, *failure)
        rejections.append(rej)
        if on_reject is not None:
            on_reject(rej)
        found = rej.witness.weight
        best = found if best is None else max(best, found)
    raise SearchExhaustedError(config.max_retries, best)


def _validate_fixture(dec: Decomposition) -> None:
    src_mat = dec.source.generator_matrix
    tgt_mat = dec.target.generator_matrix
    inter_dim = gf2.intersect_rowspaces(src_mat, tgt_mat).shape[0]
    if inter_dim != len(dec.shared):
        raise FixtureInvalidError(
            f"shared block has {len(dec.shared)} rows but the group intersection has dimension {inter_dim}"
        )
    for op in dec.shared:
        for code in (dec.source, dec.target):
            member = pauli.in_group(code, op)
            if not (member.in_group and member.sign_match):
                raise FixtureInvalidError(f"shared row {op} is not in both groups")
    for ops, code, label in (
        (dec.bridged_src, dec.source, "bridged"),
        (dec.direct_src, dec.source, "direct"),
        (dec.bridged_tgt, dec.target, "bridged'"),
        (dec.direct_tgt, dec.target, "direct'"),
    ):
        for op in ops:
            member = pauli.in_group(code, op)
            if not (member.in_group and member.sign_match):
                raise FixtureInvalidError(f"{label} row {op} is not in its group")
    # bridged rows must normalize the opposite group, direct rows must not
    for op in dec.bridged_src:
        if pauli.syndrome(dec.target, op).any():
            raise FixtureInvalidError(f"bridged row {op} does not normalize the target group")
    for op in dec.bridged_tgt:
        if pauli.syndrome(dec.source, op).any():
            raise FixtureInvalidError(f"bridged' row {op} does not normalize the source group")
    c = len(dec.direct_src)
    if len(dec.direct_tgt) != c or len(dec.bridged_src) != len(dec.bridged_tgt):
        raise FixtureInvalidError("block sizes differ between the two columns")
    rows = BlockRows.of(dec)
    if not np.array_equal(gf2.symplectic_products(rows.direct_tgt, rows.direct_src), gf2.identity(c)):
        raise FixtureInvalidError("printed direct blocks do not pair to the identity")
    if len(dec.bridges) != len(dec.bridged_src):
        raise FixtureInvalidError("fixture needs exactly one bridge per bridged pair")
    for i, br in enumerate(dec.bridges):
        mat, rhs = _bridge_system(rows, i, rows.bridges[:i])
        if not np.array_equal(gf2.symplectic_products(mat, br.vector)[:, 0], rhs):
            raise FixtureInvalidError(f"bridge {br} violates its constraint system")


def load_fixture_decomposition(text: str) -> Decomposition:
    """Parse a printed conversion fixture.

    Grammar: '#' comments; 'm = INT'; 'sizes = N1 N2' (original qubit
    counts); 'bridge = PAULI' lines, one per bridged pair in order; and
    row lines 'KIND LEFT RIGHT' with KIND in {A, B, C} giving one
    generator of each padded code.  Rows are taken verbatim (signs and
    order included) and the conversion follows the printed top-to-bottom
    order, a bridged pair resolving in place via its bridge.
    """
    m = 0
    sizes: tuple[int, int] | None = None
    rows: list[tuple[str, str, str]] = []
    bridge_strs: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" in line:
            key, _, value = line.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key == "m":
                m = int(value)
            elif key == "sizes":
                n1, n2 = value.split()
                sizes = (int(n1), int(n2))
            elif key == "bridge":
                bridge_strs.append(value)
            else:
                raise FixtureInvalidError(f"unknown directive {key!r}")
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] not in ("A", "B", "C"):
            raise FixtureInvalidError(f"bad fixture row: {raw!r}")
        rows.append((parts[0], parts[1], parts[2]))
    if sizes is None:
        raise FixtureInvalidError("fixture is missing the 'sizes = N1 N2' directive")
    try:
        left = [PauliOp.from_string(s) for _, s, _ in rows]
        right = [PauliOp.from_string(s) for _, _, s in rows]
        bridges = tuple(PauliOp.from_string(s) for s in bridge_strs)
        source = StabilizerCode(left[0].n, tuple(left))
        target = StabilizerCode(right[0].n, tuple(right))
    except (pauli.CodeFormatError, pauli.AnticommutingGeneratorsError, pauli.DependentGeneratorsError) as exc:
        raise FixtureInvalidError(str(exc)) from None
    n = source.n
    if max(sizes) + m != n:
        raise FixtureInvalidError(f"declared sizes {sizes} + m = {m} do not give n = {n}")
    for kind, ls, rs in rows:
        if kind == "A" and PauliOp.from_string(ls) != PauliOp.from_string(rs):
            raise FixtureInvalidError(f"shared row differs between columns: {ls} vs {rs}")
    shared = tuple(op for (kind, _, _), op in zip(rows, left) if kind == "A")
    bridged_src = tuple(op for (kind, _, _), op in zip(rows, left) if kind == "B")
    bridged_tgt = tuple(op for (kind, _, _), op in zip(rows, right) if kind == "B")
    direct_src = tuple(op for (kind, _, _), op in zip(rows, left) if kind == "C")
    direct_tgt = tuple(op for (kind, _, _), op in zip(rows, right) if kind == "C")
    order: list[tuple[str, int]] = []
    bi = ci = 0
    for kind, _, _ in rows:
        if kind == "C":
            order.append(("direct", ci))
            ci += 1
        elif kind == "B":
            order.append(("bridge_in", bi))
            order.append(("bridge_out", bi))
            bi += 1
    dec = Decomposition(
        source=source,
        target=target,
        m=m,
        ancilla_qubits=_ancilla_qubits(*sizes, m),
        shared=shared,
        bridged_src=bridged_src,
        bridged_tgt=bridged_tgt,
        direct_src=direct_src,
        direct_tgt=direct_tgt,
        bridges=bridges,
        step_order=tuple(order),
    )
    _validate_fixture(dec)
    return dec
