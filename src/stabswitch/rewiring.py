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
  5. build_path   - emit the exchanges of the decomposition's plan and
                    all intermediate codes, each step checked for
                    adjacency and both endpoints checked as signed
                    groups.
  6. search       - repeat 3-4 with fresh child seeds, in chunks of
                    retries screened at once for the distance check
                    (DrawScreen, one analysis.exchange_walk over the
                    chunk's rows); the lowest passing retry, whatever
                    the chunking, is built and re-checked by verify_path.

A Decomposition holds its blocks as GF(2) row matrices only.  Every
row except a bridge lies in the padded source or target group, and a
group never holds -1, so the group fixes its sign: build_path reads the
signs off the two groups, and gives each bridge the sign +1.

All randomness flows from one 64-bit seed: retry r uses the child
generator default_rng(SeedSequence(seed, spawn_key=(r,))), and draws V,
V' and then U in that order, so runs are bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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

    def __init__(self, retries: int, best_distance_floor: int):
        self.retries = retries
        self.best_distance_floor = best_distance_floor
        super().__init__(
            f"no distance-preserving path in {retries} retries"
            f" (best failing intermediate had distance {best_distance_floor})"
        )


# search screens <= _MAX_CHUNK retries at once, fewer if draws x errors x words would pass _MAX_SYNDROMES
_MAX_CHUNK = 64
_MAX_SYNDROMES = 1 << 12


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Prepared generator blocks for a padded code pair, as GF(2) row
    matrices (one row per generator, no signs).

    shared rows belong to both groups (with equal signs); bridged rows of
    one group normalize the other; the direct blocks satisfy
    <direct_tgt[i], direct_src[j]> = delta_ij after normalization.
    bridges holds one auxiliary row per bridged pair once solved.  plan
    lists the exchanges as (slot, incoming row) pairs: slots index the
    generators [shared; bridged_src; direct_src], incoming rows index
    [bridges; bridged_tgt; direct_tgt].  A chunk of draws (see randomize)
    stacks its direct blocks and bridges, one per draw.
    """

    source: StabilizerCode
    target: StabilizerCode
    m: int
    ancilla_qubits: tuple[int, ...]
    shared: np.ndarray
    bridged_src: np.ndarray
    bridged_tgt: np.ndarray
    direct_src: np.ndarray
    direct_tgt: np.ndarray
    plan: tuple[tuple[int, int], ...]
    bridges: np.ndarray | None = None

    @property
    def padded_n(self) -> int:
        return self.source.n

    def counts(self) -> tuple[int, int, int]:
        return len(self.shared), len(self.bridged_src), len(self.direct_src)

    def draw(self, i: int) -> "Decomposition":
        bridges = None if self.bridges is None else self.bridges[i]
        return replace(self, direct_src=self.direct_src[i], direct_tgt=self.direct_tgt[i], bridges=bridges)


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
    """A path as its first code and steps; intermediates (start followed by
    the code after each step, each one exchange from the last) are derived
    on construction, which raises AdjacencyViolationError unless the steps
    carry the source to the target (see _walk_steps)."""

    source: StabilizerCode
    target: StabilizerCode
    start: StabilizerCode
    steps: tuple[ConversionStep, ...]
    ancilla_qubits: tuple[int, ...] = ()
    m: int = 0
    seed: int | None = None
    intermediates: tuple[StabilizerCode, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "intermediates", _walk_steps(self.start, self.steps, self.source, self.target))

    @property
    def n(self) -> int:
        return self.source.n

    def to_json(self) -> dict:
        """The path document; a step's correction is the string its slot
        held before the step (see _intermediates_json)."""
        inter = self._intermediates_json()
        gens = [code["generators"] for code in inter]
        steps = [{"measure": b[s.replaced_index], "correct": a[s.replaced_index], "replaced_index": s.replaced_index}
                 for s, a, b in zip(self.steps, gens, gens[1:])]
        source, target = pauli.code_to_json(self.source), pauli.code_to_json(self.target)
        return {"n": self.n, "ancilla_qubits": list(self.ancilla_qubits), "source": source, "target": target,
                "steps": steps, "intermediates": inter, "seed": self.seed, "m": self.m}

    def _intermediates_json(self) -> list[dict]:
        """pauli.code_to_json of each intermediate, by exchange: the start's
        generator strings, then each step's measure string in its slot, so
        r + L strings are formatted, not one per generator per code."""
        lists = [[g.to_string() for g in self.start.gens]]
        for step in self.steps:
            lists.append(list(lists[-1]))
            lists[-1][step.replaced_index] = step.measure.to_string()
        return [{"n": self.n, "k": self.start.k, "generators": gens} for gens in lists]

    @classmethod
    def from_json(cls, doc: dict) -> "ConversionPath":
        """Parse a path document, re-deriving intermediates 1..L from the
        first stored code and the steps by exchange, and comparing the
        stored generator strings with _intermediates_json.

        Raises PathIntegrityError when n is not the codes' qubit count as
        an integer, m is not an integer >= 0, the seed is neither null nor
        an integer >= 0, ancilla_qubits are not distinct qubit indices on
        each of which the target group holds a single-qubit Z or X, a
        replaced_index is not an integer, a step is not an adjacent
        exchange, the stored intermediates differ from the derived ones,
        or the endpoints do not present the source and target signed
        groups.
        """
        source = pauli.code_from_json(doc["source"])
        target = pauli.code_from_json(doc["target"])
        n, m, ancilla, seed = doc["n"], doc.get("m", 0), doc.get("ancilla_qubits", []), doc.get("seed")
        if not _is_int(n) or n != source.n:
            raise PathIntegrityError(f"declared n={n!r} but the codes act on {source.n} qubits")
        if not _is_int(m) or m < 0:
            raise PathIntegrityError(f"m must be an integer >= 0, got {m!r}")
        if seed is not None and not (_is_int(seed) and seed >= 0):
            raise PathIntegrityError(f"seed must be null or an integer >= 0, got {seed!r}")
        qubits = isinstance(ancilla, list) and all(_is_int(q) and 0 <= q < n for q in ancilla)
        if not (qubits and len(set(ancilla)) == len(ancilla)):
            raise PathIntegrityError(f"ancilla_qubits must be distinct integers in 0..{n - 1}, got {ancilla!r}")
        singles = gf2.zeros((2 * len(ancilla), 2 * n))  # Z, then X, on each ancilla qubit
        singles[np.arange(2 * len(ancilla)), [col for q in ancilla for col in (n + q, q)]] = 1
        inside = pauli.span_signs(target.generator_matrix, np.zeros(len(target.gens)), singles)[1]
        fixed = inside.reshape(-1, 2).any(axis=1)
        if not fixed.all():
            q = ancilla[fixed.argmin()]
            raise PathIntegrityError(f"the target fixes no single-qubit Z or X on ancilla qubit {q}")
        for s in doc["steps"]:
            if not _is_int(s["replaced_index"]):
                raise PathIntegrityError(f"replaced_index must be an integer, got {s['replaced_index']!r}")
        parse = PauliOp.from_string
        steps = tuple(ConversionStep(parse(s["measure"]), parse(s["correct"]), s["replaced_index"])
                      for s in doc["steps"])
        try:
            path = cls(source, target, pauli.code_from_json(doc["intermediates"][0]), steps, tuple(ancilla), m, seed)
        except AdjacencyViolationError as exc:
            raise PathIntegrityError(str(exc)) from None
        if path._intermediates_json() != doc["intermediates"]:
            raise PathIntegrityError("stored intermediates differ from the codes the steps produce")
        return path


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.min_distance < 1:
            raise ValueError("min_distance must be >= 1")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.bridge_weight_samples < 0:
            raise ValueError("bridge_weight_samples must be >= 0")


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
        try:
            gcp = (gf2.invert(h) @ gcp) % 2
        except gf2.SingularMatrixError:
            raise AdjacencyViolationError("commutativity matrix singular") from None
        if not np.array_equal(gf2.symplectic_products(gcp, gc), gf2.identity(gc.shape[0])):
            raise AdjacencyViolationError("normalized direct blocks do not pair to the identity")
    return ga, gb, gc, gbp, gcp


def decompose(
    source: StabilizerCode,
    target: StabilizerCode,
    m: int = 0,
    ancilla_qubits: tuple[int, ...] = (),
) -> Decomposition:
    """Split a padded pair into shared / bridged / direct blocks.

    Raises SignMismatchError when a shared row carries opposite signs in
    the two groups."""
    if source.n != target.n:
        raise ValueError("codes must be padded to a common qubit count first")
    ga, gb, gc, gbp, gcp = subspace_bases(source.generator_matrix, target.generator_matrix)
    for op, other in zip(pauli.group_elements(source, ga), pauli.group_elements(target, ga)):
        if op is None or other is None:
            raise AdjacencyViolationError("a shared row is outside one of the groups")
        if other.sign != op.sign:
            raise SignMismatchError(
                f"shared stabilizer {op} has sign {other.sign:+d} in the target group"
            )
    a, b, c = len(ga), len(gb), len(gc)
    # bridged pairs move to their bridges, the direct block swaps over, then the bridges resolve in reverse
    plan = [(a + i, i) for i in range(b)] + [(a + b + i, 2 * b + i) for i in range(c)]
    plan += [(a + i, b + i) for i in reversed(range(b))]
    return Decomposition(source, target, m, tuple(ancilla_qubits), ga, gb, gbp, gc, gcp, tuple(plan))


def randomize(dec: Decomposition, rngs: Sequence[np.random.Generator]) -> Decomposition:
    """Draw V, V' and then U from each generator in turn, and remix the
    direct rows of every draw:
    direct <- U(V . bridged + direct) and
    direct' <- (U^-1)^T (V' . bridged' + direct').

    Each new row is a sum of rows of its own group, so the padded groups
    are unchanged, and the commutativity matrix stays the identity, which
    one product checks for the whole chunk of draws.  Draw i of the
    result (see Decomposition.draw) belongs to rngs[i].
    """
    _, b, c = dec.counts()
    draws = []
    for g in rngs:  # b = 0 skips V and V': a zero-size draw would leave g as it is
        v, vp = (gf2.random_matrix(c, b, g), gf2.random_matrix(c, b, g)) if b else (gf2.zeros((c, 0)),) * 2
        draws.append((v, vp, *gf2.random_gl(c, g)))
    v, vp, u, u_inv = (np.stack(block) for block in zip(*draws))
    direct_src = gf2.matmul(u, gf2.matmul(v, dec.bridged_src) ^ dec.direct_src)
    direct_tgt = gf2.matmul(u_inv.swapaxes(1, 2), gf2.matmul(vp, dec.bridged_tgt) ^ dec.direct_tgt)
    if not (gf2.matmul(gf2.swap_xz(direct_tgt), direct_src.swapaxes(1, 2)) == gf2.identity(c)).all():
        raise AdjacencyViolationError("randomization broke the direct pairing")
    return replace(dec, direct_src=direct_src, direct_tgt=direct_tgt, bridges=None)


def _bridge_system(dec: Decomposition, i: int, solved: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Constraint system for bridge i, as rows and the symplectic products
    the bridge must have with them: commute with the shared and direct
    blocks on both sides, with later bridged pairs, and with earlier
    bridges; anticommute with both ends of pair i."""
    later = (dec.bridged_src[i + 1 :], dec.bridged_tgt[i + 1 :])
    commute = np.vstack([dec.shared, dec.direct_src, dec.direct_tgt, *later, solved])
    mat = np.vstack([commute, dec.bridged_src[i : i + 1], dec.bridged_tgt[i : i + 1]])
    rhs = np.zeros(len(mat), dtype=np.uint8)
    rhs[len(commute) :] = 1
    return mat, rhs


def solve_bridges(dec: Decomposition, rng: np.random.Generator | None = None, weight_samples: int = 0) -> Decomposition:
    """Solve the bridge constraint system for every bridged pair.

    The canonical solution sets all free variables to zero; with
    weight_samples > 0, that many random coset elements are also drawn
    and the lightest kept (ties broken by lexicographic bit order).
    """
    n = dec.padded_n
    solved = gf2.zeros((0, 2 * n))

    def score(vec: np.ndarray) -> tuple[int, tuple[int, ...]]:
        return int((vec[:n] | vec[n:]).sum()), tuple(int(t) for t in vec)

    for i in range(len(dec.bridged_src)):
        mat, rhs = _bridge_system(dec, i, solved)
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
    return replace(dec, bridges=solved)


def _walk_steps(
    start: StabilizerCode,
    steps: Sequence[ConversionStep],
    source: StabilizerCode,
    target: StabilizerCode,
) -> tuple[StabilizerCode, ...]:
    """start followed by the code after each step, each one exchange from
    the last (StabilizerCode._exchanged).

    Raises AdjacencyViolationError unless start presents source's signed
    group, every step corrects with the generator it replaces and
    measures an operator anticommuting with that generator alone, and the
    last code presents target's signed group.  Each step's syndrome is
    read off one product of the measured rows with [start rows;
    measured rows], slot i of a code holding the row that last entered
    it, as analysis._walk_masks tracks them.
    """
    if not start.same_group(source):
        raise AdjacencyViolationError("the first code does not present the source group")
    # a measure of the wrong length fails at its own step, after the checks of the steps before it
    sized = next((j for j, step in enumerate(steps) if step.measure.n != start.n), len(steps))
    measured = np.array([step.measure.vector for step in steps[:sized]], dtype=np.uint8).reshape(sized, 2 * start.n)
    products = gf2.symplectic_products(measured, np.vstack([start.generator_matrix, measured]))
    codes, slots = [start], list(range(len(start.gens)))
    for j, step in enumerate(steps):
        code, idx = codes[-1], step.replaced_index
        if not 0 <= idx < len(code.gens) or code.gens[idx] != step.correct:
            raise AdjacencyViolationError(f"step correction {step.correct} is not generator {idx} of its code")
        if j == sized:
            raise ValueError(f"operator acts on {step.measure.n} qubits, code on {code.n}")
        syn = products[j, slots]
        if not syn[idx]:
            raise AdjacencyViolationError(f"{step.measure} commutes with the generator it replaces")
        if syn.sum() != 1:
            other = code.gens[next(i for i in np.nonzero(syn)[0] if i != idx)]
            raise AdjacencyViolationError(f"{step.measure} anticommutes with untouched generator {other}")
        slots[idx] = len(start.gens) + j
        codes.append(code._exchanged(idx, step.measure))
    if not codes[-1].same_group(target):
        raise AdjacencyViolationError("final code does not match the padded target group")
    return tuple(codes)


def _exchange_steps(dec: Decomposition) -> tuple[StabilizerCode, tuple[ConversionStep, ...]]:
    """The first code and the exchange sequence of dec's path.

    Each generator takes its sign from the group it lies in (the source
    for the shared, bridged and direct rows, the target for the primed
    ones); bridges get +1.
    """
    b = len(dec.bridged_src)
    if b and dec.bridges is None:
        raise ValueError("decomposition has bridged pairs but no bridges; run solve_bridges")
    gens = pauli.group_elements(dec.source, np.vstack([dec.shared, dec.bridged_src, dec.direct_src]))
    incoming = pauli.group_elements(dec.target, np.vstack([dec.bridged_tgt, dec.direct_tgt]))
    if any(op is None for op in gens + incoming):
        raise AdjacencyViolationError("a decomposition row is outside its group")
    if b:
        incoming = [PauliOp.from_vector(v) for v in dec.bridges] + incoming
    start = StabilizerCode(dec.padded_n, tuple(gens))
    steps: list[ConversionStep] = []
    for idx, row in dec.plan:
        steps.append(ConversionStep(measure=incoming[row], correct=gens[idx], replaced_index=idx))
        gens[idx] = incoming[row]
    return start, tuple(steps)


def build_path(dec: Decomposition) -> ConversionPath:
    """Emit the exchange sequence and every intermediate code.

    Constructing the path checks every step for adjacency (the incoming
    generator must anticommute with the one it replaces and commute with
    all others) and the first and last codes against the padded source
    and target as signed groups.  Violations raise
    AdjacencyViolationError since they indicate an upstream bug rather
    than bad input.
    """
    start, steps = _exchange_steps(dec)
    return ConversionPath(dec.source, dec.target, start, steps, dec.ancilla_qubits, dec.m)


@dataclass(frozen=True)
class DrawScreen:
    """Per-search tables that run verify_path's check on a draw's rows.

    letters lists the weight < d errors that commute with the shared
    block, in verify_path's order (analysis._error_letters); logicals is
    the padded source's logical_basis.  Shared rows take no part in an
    exchange and every screened error commutes with them, so the screen
    walks only the other blocks.
    """

    letters: np.ndarray
    logicals: np.ndarray

    @classmethod
    def of(cls, dec: Decomposition, d: int) -> "DrawScreen":
        letters = analysis._error_letters(dec.padded_n, d - 1)
        shared = analysis._xor_rows(analysis._letter_words(dec.shared), letters)
        return cls(letters[~shared.any(axis=1)], dec.source.logical_basis)

    def reject(self, chunk: Decomposition, start: int) -> list[Rejection]:
        """A Rejection for each draw of the chunk (draw i is retry start + i)
        before its first passing one, with the failing index and witness
        that verify_path reports for the path the draw builds, from one
        analysis.exchange_walk over the chunk's stacked non-shared rows."""
        a, b = len(chunk.shared), len(chunk.bridged_src)
        count, c, _ = chunk.direct_src.shape
        bridges = chunk.bridges if b else chunk.bridged_src
        blocks = (chunk.bridged_src, chunk.direct_src, bridges, chunk.bridged_tgt, chunk.direct_tgt)
        rows = np.concatenate([x if x.ndim == 3 else x[None].repeat(count, axis=0) for x in blocks], axis=1)
        exchanges = [(slot - a, b + c + row) for slot, row in chunk.plan]
        failing, witness = np.full(count, -1), np.zeros(count, dtype=int)
        for j, bad in enumerate(analysis.exchange_walk(rows, range(b + c), exchanges, self.logicals, self.letters)):
            new = bad.any(axis=1) & (failing < 0)
            if new.any():  # argmax raises on the empty rows d = 1 leaves (no error columns)
                failing[new], witness[new] = j, bad[new].argmax(axis=1)
            if (failing >= 0).all():
                break
        stop = next(iter(np.flatnonzero(failing < 0)), count)
        failing, witness = failing[:stop].tolist(), witness[:stop].tolist()
        keys = sorted(set(witness))
        vectors = analysis._xor_rows(analysis._single_qubit_paulis(chunk.padded_n), self.letters[keys])
        ops = dict(zip(keys, map(PauliOp.from_vector, vectors)))
        return [Rejection(start + i, f, ops[w]) for i, (f, w) in enumerate(zip(failing, witness))]


@dataclass(frozen=True)
class Rejection:
    retry: int
    failing_index: int
    witness: PauliOp


@dataclass(frozen=True)
class SearchResult:
    path: ConversionPath
    retries_used: int


def child_rng(seed: int, retry: int) -> np.random.Generator:
    """The documented child-seed derivation: spawn key = (retry,)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(retry,)))


def draw_chunk(base: Decomposition, config: RewiringConfig, retries: range) -> Decomposition:
    """Retries as one chunk: retry r randomizes, then solves bridges, with child_rng(config.seed, r)."""
    rngs = [child_rng(config.seed, r) for r in retries]
    chunk = randomize(base, rngs)
    if len(base.bridged_src):
        solved = [solve_bridges(chunk.draw(i), g, config.bridge_weight_samples).bridges for i, g in enumerate(rngs)]
        chunk = replace(chunk, bridges=np.stack(solved))
    return chunk


def search(
    source: StabilizerCode,
    target: StabilizerCode,
    config: RewiringConfig,
    on_reject: Callable[[Rejection], None] | None = None,
) -> SearchResult:
    """Randomized search for a path whose intermediates all reach the
    configured minimum distance.

    Retry r randomizes with its own child generator, and retries are
    screened on their GF(2) rows in chunks of 1, 2, 4, ... draws; the
    lowest passing retry decides and rejections come in retry order, so
    results are reproducible whatever the chunking or the retries earlier
    runs used.  Only the passing draw is built, with signs and adjacency
    checks, and re-verified by verify_path.  Raises SearchExhaustedError
    after max_retries failures, reporting the best (largest) witness
    weight observed among first-failing intermediates.
    """
    if source.k == 0:
        raise ValueError("search needs codes with k >= 1")
    ancilla = ancilla_qubits_for(source, target, config.m)
    base = decompose(*pad(source, target, config.m), m=config.m, ancilla_qubits=ancilla)
    screen = DrawScreen.of(base, config.min_distance)
    _, b, c = base.counts()
    words = -(-(3 * b + 2 * c + len(screen.logicals)) // 64)
    cap = max(1, min(_MAX_CHUNK, _MAX_SYNDROMES // max(1, words * len(screen.letters))))
    rejected = floor = 0
    size = 1
    while rejected < config.max_retries:
        retries = range(rejected, min(rejected + size, config.max_retries))
        chunk = draw_chunk(base, config, retries)
        found = screen.reject(chunk, retries.start)
        rejected += len(found)
        floor = max([floor, *(rej.witness.weight for rej in found)])
        for rej in found if on_reject is not None else ():
            on_reject(rej)
        if len(found) < len(retries):
            start, steps = _exchange_steps(chunk.draw(len(found)))
            path = ConversionPath(base.source, base.target, start, steps, ancilla, config.m, config.seed)
            if not analysis.verify_path(path, config.min_distance).ok:
                raise AdjacencyViolationError("verify_path rejects the draw that passed the row screen")
            return SearchResult(path, rejected + 1)
        size = min(2 * size, cap)
    raise SearchExhaustedError(config.max_retries, floor)


def _validate_fixture(dec: Decomposition) -> None:
    src_mat = dec.source.generator_matrix
    tgt_mat = dec.target.generator_matrix
    inter_dim = gf2.intersect_rowspaces(src_mat, tgt_mat).shape[0]
    if inter_dim != len(dec.shared):
        raise FixtureInvalidError(
            f"shared block has {len(dec.shared)} rows but the group intersection has dimension {inter_dim}"
        )
    # bridged rows must normalize the opposite group
    for rows, other, label in (
        (dec.bridged_src, tgt_mat, "bridged row {} does not normalize the target group"),
        (dec.bridged_tgt, src_mat, "bridged' row {} does not normalize the source group"),
    ):
        for v, syn in zip(rows, gf2.symplectic_products(rows, other)):
            if syn.any():
                raise FixtureInvalidError(label.format(PauliOp.from_vector(v)))
    c = len(dec.direct_src)
    if len(dec.direct_tgt) != c or len(dec.bridged_src) != len(dec.bridged_tgt):
        raise FixtureInvalidError("block sizes differ between the two columns")
    if not np.array_equal(gf2.symplectic_products(dec.direct_tgt, dec.direct_src), gf2.identity(c)):
        raise FixtureInvalidError("printed direct blocks do not pair to the identity")
    if len(dec.bridges) != len(dec.bridged_src):
        raise FixtureInvalidError("fixture needs exactly one bridge per bridged pair")
    for i, br in enumerate(dec.bridges):
        mat, rhs = _bridge_system(dec, i, dec.bridges[:i])
        if not np.array_equal(gf2.symplectic_products(mat, br)[:, 0], rhs):
            raise FixtureInvalidError(f"bridge {PauliOp.from_vector(br)} violates its constraint system")


def _rows(ops: Sequence[PauliOp], n: int) -> np.ndarray:
    return np.array([op.vector for op in ops], dtype=np.uint8).reshape(len(ops), 2 * n)


def load_fixture_decomposition(text: str) -> Decomposition:
    """Parse a printed conversion fixture.

    Grammar: '#' comments; 'm = INT'; 'sizes = N1 N2' (original qubit
    counts); 'bridge = PAULI' lines, one per bridged pair in order; and
    row lines 'KIND LEFT RIGHT' with KIND in {A, B, C} giving one
    generator of each padded code.  Rows are taken verbatim (order and
    signs included: each column's rows are its code's generators) and the
    conversion follows the printed top-to-bottom order, a bridged pair
    resolving in place via its bridge.  Bridges carry no sign.
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
    for op in bridges:
        if op.sign != +1:
            raise FixtureInvalidError(f"bridge {op} carries a sign; bridges are taken with sign +1")

    def block(kind: str, column: list[PauliOp]) -> np.ndarray:
        return _rows([op for (k, _, _), op in zip(rows, column) if k == kind], n)

    kinds = [k for k, _, _ in rows]
    a, b = kinds.count("A"), kinds.count("B")
    plan: list[tuple[int, int]] = []  # the i-th B row moves to bridge i and on to bridged' row i
    for j, kind in enumerate(kinds):
        i = kinds[:j].count(kind)
        plan += {"A": [], "B": [(a + i, i), (a + i, b + i)], "C": [(a + b + i, 2 * b + i)]}[kind]
    blocks = (block("A", left), block("B", left), block("B", right), block("C", left), block("C", right))
    dec = Decomposition(source, target, m, _ancilla_qubits(*sizes, m), *blocks, tuple(plan), _rows(bridges, n))
    _validate_fixture(dec)
    return dec
