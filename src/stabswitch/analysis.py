"""Distance verification, error classification and ancilla-overhead bounds.

Minimum distances are computed by exhaustive enumeration: Pauli errors
are listed weight by weight (supports in lexicographic order, letters
X < Y < Z per position), and the first undetectable one is the witness.
This is exponential in the weight cap and intended for desk-scale codes.
An error is undetectable when it commutes with every generator and
anticommutes with a row of StabilizerCode.logical_basis; every check
reads that off syndromes, with no group-membership elimination.
undetectable tests one code, exchange_walk every code a sequence of
exchanges reaches (a path, or a stack of search draws) from one product,
and step_subsystem_distance a step's gauge group, whose logicals are
transported across the step.

An error is listed by its letters, not its vector: entry 3q + {X: 0,
Y: 1, Z: 2} names a single-qubit Pauli, 3n the identity that pads lighter
errors (_letters, _error_letters).  Syndromes are linear, so every check
runs one kernel: the products of the single-qubit Paulis with its rows,
packed 64 rows to a uint64 word (_letter_words), then each error's words
as the XOR of its letters' words (_xor_rows), as for a witness vector.
code_distance and step_subsystem_distance read the errors _BLOCK at a
time (_quiet_syndromes) and stop at the first block holding a witness.

The failure-probability bound combines a union bound over low-weight
errors with a Chernoff estimate of their count; see failure_bound for
the exact expression.  min_ancilla inverts it numerically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import gf2, pauli
from .pauli import PauliOp, StabilizerCode


class ZeroLogicalQubitsError(ValueError):
    """Distance is undefined for codes with k = 0."""


class DomainError(ValueError):
    """Bound evaluated outside its region of validity."""


class InfeasibleError(ValueError):
    """Exhaustive enumeration would exceed its budget."""


_ENUMERATION_LOG2_BUDGET = 20  # masking_enumerate's cap on log2 of its 2^(n^2) matrices
_BLOCK = 2048  # errors per block of _quiet_syndromes: the distance checks stop at the first block with a witness


@lru_cache(maxsize=None)
def _single_qubit_paulis(n: int) -> np.ndarray:
    """The (3n + 1, 2n) table of single-qubit Paulis, row 3q + {X: 0, Y: 1, Z: 2}, then the identity."""
    xz = np.kron(gf2.identity(n), np.array([[1, 0], [1, 1], [0, 1]], dtype=np.uint8))  # columns x0 z0 x1 z1 ...
    out = np.vstack([np.hstack([xz[:, 0::2], xz[:, 1::2]]), gf2.zeros((1, 2 * n))])
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _letters(n: int, w: int) -> np.ndarray:
    """The weight-w errors on n qubits in enumeration order (supports in
    lexicographic order, then letters X < Y < Z per position), each as the
    w rows of _single_qubit_paulis(n) it multiplies; columns contiguous."""
    dtype = np.min_scalar_type(3 * n)
    supports = np.array(list(itertools.combinations(range(n), w)), dtype=dtype).reshape(math.comb(n, w), w)
    letters = np.array(list(itertools.product(range(3), repeat=w)), dtype=dtype).reshape(3**w, w)
    out = np.asfortranarray((3 * supports[:, None] + letters).reshape(len(supports) * len(letters), w))
    out.setflags(write=False)
    return out


def _padded(tables: Sequence[np.ndarray], identity: int, dtype) -> np.ndarray:
    """Letter tables stacked in order into one preallocated array, the
    lighter ones padded by the identity letter."""
    out = np.full((sum(map(len, tables)), max((t.shape[1] for t in tables), default=0)), identity, dtype, order="F")
    row = 0
    for table in tables:
        out[row : row + len(table), : table.shape[1]] = table
        row += len(table)
    return out


def _error_letters(n: int, wmax: int) -> np.ndarray:
    """The errors of weight 1..min(wmax, n), weight-ascending, as _letters
    padded to that many letters by the identity 3n: no error is heavier than n."""
    return _padded([_letters(n, w) for w in range(1, min(wmax, n) + 1)], 3 * n, np.min_scalar_type(3 * n))


def _letter_blocks(n: int, wmax: int) -> Iterator[np.ndarray]:
    """The errors of _error_letters(n, wmax) in order, _BLOCK at a time, as
    intp letters (take casts narrower indices on every call); each weight's
    table is built when the enumeration reaches it."""
    pieces, size = [], 0
    for w in range(1, wmax + 1):
        table, start = _letters(n, w), 0
        while start < len(table):
            pieces.append(table[start : start + _BLOCK - size])
            size, start = size + len(pieces[-1]), start + len(pieces[-1])
            if size == _BLOCK:
                yield _padded(pieces, 3 * n, np.intp)
                pieces, size = [], 0
    if pieces:
        yield _padded(pieces, 3 * n, np.intp)


def _xor_rows(table: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """Per row of letters, the XOR of the table rows (axis -2) it names."""
    out = np.zeros((*table.shape[:-2], len(letters), table.shape[-1]), dtype=table.dtype)
    for col in letters.T:
        out ^= table.take(col, axis=-2)
    return out


def error_vectors(n: int, wmax: int) -> np.ndarray:
    """All error vectors of weight 1..wmax on n qubits, weight-ascending."""
    return _xor_rows(_single_qubit_paulis(n), _error_letters(n, wmax))


def _words(bits: np.ndarray) -> np.ndarray:
    """The last axis of a 0/1 array as uint64 words: bit i in word i // 64."""
    padded = np.zeros((*bits.shape[:-1], -(-bits.shape[-1] // 64) * 64), dtype=np.uint8)
    padded[..., : bits.shape[-1]] = bits
    return np.packbits(padded, bitorder="little").view("<u8").reshape(*bits.shape[:-1], padded.shape[-1] // 64)


def _letter_words(rows: np.ndarray) -> np.ndarray:
    """The (..., 3n + 1, ceil(R / 64)) syndrome words of _single_qubit_paulis against rows (..., R, 2n)."""
    return _words(gf2.symplectic_products(_single_qubit_paulis(rows.shape[-1] // 2), rows))


def _quiet_syndromes(blocks: Sequence[np.ndarray], n: int, wmax: int) -> Iterator[tuple[np.ndarray, list]]:
    """The errors of weight 1..wmax in enumeration order, a _letter_blocks
    block at a time: per block, the letters of its errors commuting with
    blocks[0] and, per later block of rows, the mask of those errors
    anticommuting with a row of it.  A caller that stops at the first
    block holding a witness lists no error past that block."""
    owner = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
    masks = _words(owner == np.arange(len(blocks))[:, None])
    words = _letter_words(np.vstack(blocks))
    for letters in _letter_blocks(n, wmax):
        syn = _xor_rows(words, letters)
        quiet = np.flatnonzero(~(syn & masks[0]).any(axis=1))
        syn = syn.take(quiet, axis=0)
        yield letters[quiet], [(syn & mask).any(axis=1) for mask in masks[1:]]


@dataclass(frozen=True)
class DistanceReport:
    """Result of a distance enumeration.

    When exact, `distance` is the true minimum logical weight and
    `witness` a minimum-weight logical operator; otherwise the search
    exhausted its cap and `distance` is a strict lower bound (the true
    distance is >= distance).
    """

    distance: int
    exact: bool
    witness: PauliOp | None


def detectable(code: StabilizerCode, e: PauliOp) -> bool:
    """True iff e has a nonzero syndrome or lies in the stabilizer group
    (vector level, signs ignored)."""
    return not undetectable(code, e.vector[None])[0]


def undetectable(code: StabilizerCode, errs: np.ndarray) -> np.ndarray:
    """Mask of the rows of errs with zero syndrome that anticommute with a
    row of code.logical_basis: they lie outside the group (signs ignored)."""
    quiet = np.flatnonzero(~gf2.symplectic_products(code.generator_matrix, errs).any(axis=0))
    mask = np.zeros(len(errs), dtype=bool)
    mask[quiet] = gf2.symplectic_products(code.logical_basis, errs[quiet]).any(axis=0)
    return mask


def code_distance(code: StabilizerCode, cap: int) -> DistanceReport:
    """Exact minimum distance if it is <= cap, else a lower bound of cap + 1.

    Enumerates every Pauli of weight 1..cap and returns the first
    zero-syndrome non-member found (weight order makes it minimal).
    """
    if code.k == 0:
        raise ZeroLogicalQubitsError("distance undefined for k = 0")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    wmax = min(cap, code.n)
    blocks = [code.generator_matrix, code.logical_basis]
    for letters, (logicals,) in _quiet_syndromes(blocks, code.n, wmax):
        hits = np.flatnonzero(logicals)
        if hits.size:
            witness = PauliOp.from_vector(_xor_rows(_single_qubit_paulis(code.n), letters[hits[:1]])[0])
            return DistanceReport(witness.weight, True, witness)
    return DistanceReport(wmax + 1, False, None)


def exchange_walk(
    rows: np.ndarray,
    live: Sequence[int],
    exchanges: Sequence[tuple[int, int]],
    logicals: np.ndarray,
    letters: np.ndarray,
) -> Iterator[np.ndarray]:
    """Undetectable errors of a code and of each code its exchanges reach.

    rows (..., R, 2n) holds one stack of rows per leading index (one per
    draw of a search chunk); generator slot i of the first code holds row
    live[i], exchange (slot, row) puts row in that slot, and logicals is
    the first code's logical_basis.  Yields, for the first code and
    after each exchange, the (..., E) mask of the errors (rows of
    letters) commuting with every live generator but anticommuting with a
    carried logical.  An error's syndrome words hold a bit per row, then
    per logical; the logicals anticommuting with an incoming row take on
    the outgoing one, and their bits take on its bit.
    """
    size = rows.shape[-2]
    outs, logical, held, flips = _walk_masks(tuple(live), tuple(exchanges), size, len(logicals))
    stack = np.empty((*rows.shape[:-2], size + len(logicals), rows.shape[-1]), dtype=np.uint8)
    stack[..., :size, :], stack[..., size:, :] = rows, logicals
    syn = _xor_rows(_letter_words(stack), letters)
    carried, swapped = stack[..., size:, :], gf2.swap_xz(rows)
    for out, (_, row), mask in zip(outs, exchanges, held):
        yield (syn & logical).any(axis=-1) & ~(syn & mask).any(axis=-1)
        flip = np.bitwise_xor.reduce(carried & swapped[..., None, row, :], axis=-1)
        carried ^= flip[..., None] & rows[..., None, out, :]
        hit = (syn[..., out // 64] & np.uint64(1 << out % 64)).astype(bool)
        syn ^= hit[..., None] * (flip @ flips)[..., None, :]
    yield (syn & logical).any(axis=-1) & ~(syn & held[-1]).any(axis=-1)


@lru_cache(maxsize=64)
def _walk_masks(live: tuple, exchanges: tuple, size: int, logicals: int) -> tuple:
    """What exchange_walk reads off its plan alone, once per plan: each
    exchange's outgoing row and the word masks of all logicals, of each
    code's live rows and of each logical (bits: rows, then logicals)."""
    slots, outs, held = list(live), [], np.zeros((len(exchanges) + 1, size + logicals), dtype=bool)
    for j, (slot, row) in enumerate(exchanges):
        held[j, slots] = True
        outs.append(slots[slot])
        slots[slot] = row
    held[-1, slots] = True
    each = np.eye(logicals, size + logicals, size, dtype=bool)
    return tuple(outs), _words(each.any(axis=0)), _words(held), _words(each)


def path_walk(path, letters: np.ndarray) -> Iterator[np.ndarray]:
    """exchange_walk over a path's intermediates: the generators of
    path.start, then one row per step's measured operator."""
    g = path.start.generator_matrix
    rows = np.vstack([g, *(step.measure.vector for step in path.steps)])
    exchanges = [(step.replaced_index, len(g) + j) for j, step in enumerate(path.steps)]
    return exchange_walk(rows, range(len(g)), exchanges, path.start.logical_basis, letters)


@dataclass(frozen=True)
class PathReport:
    ok: bool
    failing_index: int | None
    witness: PauliOp | None
    reports: tuple[DistanceReport, ...]


def verify_path(path, d: int) -> PathReport:
    """Check that every intermediate code of a path has distance >= d.

    Stops at the first failing intermediate and reports its index along
    with a minimum-weight logical witness.
    """
    reports: list[DistanceReport] = []
    letters = _error_letters(path.n, d - 1)
    for idx, bad in enumerate(path_walk(path, letters)):
        if bad.any():
            witness = PauliOp.from_vector(_xor_rows(_single_qubit_paulis(path.n), letters[[bad.argmax()]])[0])
            reports.append(DistanceReport(witness.weight, True, witness))
            return PathReport(False, idx, witness, tuple(reports))
        reports.append(DistanceReport(d, False, None))
    return PathReport(True, None, None, tuple(reports))


class ErrorClass(Enum):
    """Where an error sits relative to a pair of stabilizer groups."""

    IN_BOTH_GROUPS = "in_both_groups"
    IN_S_NOT_NORMALIZER_SP = "in_s_not_normalizer_sp"
    IN_SP_NOT_NORMALIZER_S = "in_sp_not_normalizer_s"
    OUTSIDE_BOTH_NORMALIZERS = "outside_both_normalizers"
    OTHER = "other"


def classify_error(e: PauliOp, s: StabilizerCode, sp: StabilizerCode) -> ErrorClass:
    """Partition an error by membership in the two groups and normalizers."""
    if e.n != s.n or e.n != sp.n:
        raise ValueError("qubit count mismatch")
    in_s = pauli.in_group(s, e).in_group
    in_sp = pauli.in_group(sp, e).in_group
    norm_s = not pauli.syndrome(s, e).any()
    norm_sp = not pauli.syndrome(sp, e).any()
    if in_s and in_sp:
        return ErrorClass.IN_BOTH_GROUPS
    if in_s and not norm_sp:
        return ErrorClass.IN_S_NOT_NORMALIZER_SP
    if in_sp and not norm_s:
        return ErrorClass.IN_SP_NOT_NORMALIZER_S
    if not norm_s and not norm_sp:
        return ErrorClass.OUTSIDE_BOTH_NORMALIZERS
    return ErrorClass.OTHER


def step_subsystem_distance(pre_code: StabilizerCode, step) -> int:
    """Minimum weight of a dressed logical operator for one conversion step.

    The replaced generator out and the measured one in act as gauge
    operators; the other generators form the stabilizer.  A dressed
    logical commutes with the stabilizer but is not a product of
    stabilizer elements with at most one gauge operator (a product with
    both is anti-Hermitian, not a Pauli error): it anticommutes with a
    logical transported across the step, L ^ <L, in> out, or with both
    out and in, as out * in does, which bounds the value by its weight.

    A step is t-fault-tolerant precisely when this value is >= 2t + 1.
    """
    idx = step.replaced_index
    if not 0 <= idx < len(pre_code.gens):
        raise ValueError("replaced_index out of range")
    g, in_ = pre_code.generator_matrix, step.measure.vector
    out, rest = g[idx], np.delete(g, idx, axis=0)
    if not np.array_equal(out, step.correct.vector):
        raise ValueError("step.correct does not match the replaced generator")
    if gf2.symplectic_product(out, in_) != 1 or gf2.symplectic_products(rest, in_).any():
        raise ValueError("step is not adjacent to pre_code")
    logicals = pre_code.logical_basis
    carried = logicals ^ np.outer(gf2.symplectic_products(logicals, in_), out)
    bound = PauliOp.from_vector(out ^ in_).weight
    blocks = [rest, out[None], in_[None], carried]
    for letters, (o, i, c) in _quiet_syndromes(blocks, pre_code.n, bound - 1):
        hits = np.flatnonzero(c | (o & i))
        if hits.size:
            return int((letters[hits[0]] < 3 * pre_code.n).sum())
    return bound


class BoundResult(NamedTuple):
    raw: float
    effective: float


def _kl(p: float, q: float) -> float:
    """KL divergence D(p || q) in nats, with the p = 0 limit handled."""
    if p == 0.0:
        return math.log(1.0 / (1.0 - q))
    if p == 1.0:
        return math.log(1.0 / q)
    return p * math.log(p / q) + (1.0 - p) * math.log((1.0 - p) / (1.0 - q))


def failure_bound(n: int, m: int, d: int, gc: int) -> BoundResult:
    """Upper bound on the probability that a random draw leaves some error
    of weight below d undetectable in some intermediate code.

    Evaluates 4^(n+m) * exp(-D(p || 3/4) * (n+m)) * (gc+1) * 2^(-gc) in
    log space, with p = (d-1)/(n+m).  The raw value is returned
    untouched; `effective` clamps it into [0, 1].
    """
    if d < 1 or n < 1 or m < 0 or gc < 0:
        raise ValueError("need n, d >= 1 and m, gc >= 0")
    total = n + m
    p = (d - 1) / total
    if not p < 0.75:
        raise DomainError(f"bound needs {d - 1}/(n+m) < 3/4, got {p:.3f}")
    log_raw = total * math.log(4.0) - _kl(p, 0.75) * total + math.log(gc + 1.0) - gc * math.log(2.0)
    try:
        raw = math.exp(log_raw)
    except OverflowError:  # past the float range: the bound says nothing
        raw = math.inf
    return BoundResult(raw, min(1.0, max(0.0, raw)))


class MinAncillaResult(NamedTuple):
    m: int
    asymptotic_reference: float


def min_ancilla(n: int, d: int, epsilon: float) -> MinAncillaResult:
    """Smallest m >= 0 with failure_bound(n, m, d, gc=m) < epsilon.

    Scans m upward (the bound is eventually decreasing in m).  Also
    reports the scale d*ln(n/d) + ln(1/epsilon) for context.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    reference = d * math.log(n / d) - math.log(epsilon)  # 1/epsilon overflows for a tiny epsilon
    for m in range(100_001):
        if failure_bound(n, m, d, gc=m).raw < epsilon:
            return MinAncillaResult(m, reference)
    raise RuntimeError("bound failed to drop below epsilon")  # pragma: no cover - the bound decays geometrically


def masking_exact(n: int) -> Fraction:
    """Closed form for the masking probability over GL(F2, n).

    For nonzero v, w in F2^n with zero dot product and uniform invertible
    U, this is the probability that the last set bit of U v precedes the
    first set bit of (U^-1)^T w, computed as
    ((n-2) 2^(n-1) + 1) / ((2^n - 1)(2^(n-1) - 1)).  For n = 1 there are
    no such pairs and the probability is 0 by convention.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return Fraction(0)
    return Fraction((n - 2) * 2 ** (n - 1) + 1, (2**n - 1) * (2 ** (n - 1) - 1))


def _order_stats(mats: np.ndarray, invs: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Boolean mask: last set bit of U v before first set bit of (U^-1)^T w."""
    uv = (mats.astype(np.int64) @ v.astype(np.int64)) % 2
    uw = (np.transpose(invs, (0, 2, 1)).astype(np.int64) @ w.astype(np.int64)) % 2
    return (uv * np.arange(v.shape[0])).max(axis=1) < uw.argmax(axis=1)


def masking_enumerate(n: int, v, w) -> Fraction:
    """Exact masking probability by enumerating all of GL(F2, n).

    Filters every n x n bit matrix through an invertibility check, so it
    raises InfeasibleError once n^2 > _ENUMERATION_LOG2_BUDGET (n > 4).
    """
    v, w = gf2.asbits(v), gf2.asbits(w)
    if not v.any() or not w.any():
        raise ValueError("v and w must be nonzero")
    if n * n > _ENUMERATION_LOG2_BUDGET:
        raise InfeasibleError(f"2^{n * n} matrices exceeds budget 2^{_ENUMERATION_LOG2_BUDGET}")
    total = 1 << (n * n)
    bits = ((np.arange(total)[:, None] >> np.arange(n * n)[None, :]) & 1).astype(np.uint8)
    mats = bits.reshape(total, n, n)
    invs, ok = gf2.batch_invert(mats)
    hits = int(_order_stats(mats[ok], invs[ok], v, w).sum())
    return Fraction(hits, int(ok.sum()))


class MonteCarloEstimate(NamedTuple):
    estimate: float
    stderr: float
    hits: int
    trials: int


def masking_mc(n: int, v, w, trials: int, rng: np.random.Generator) -> MonteCarloEstimate:
    """Monte-Carlo estimate of the masking probability with standard error."""
    v, w = gf2.asbits(v), gf2.asbits(w)
    if not v.any() or not w.any():
        raise ValueError("v and w must be nonzero")
    hits, chunk = 0, 200_000
    for done in range(0, trials, chunk):
        mats, invs = gf2.random_gl_batch(n, min(chunk, trials - done), rng)
        hits += int(_order_stats(mats, invs, v, w).sum())
    p = hits / trials
    return MonteCarloEstimate(p, math.sqrt(p * (1 - p) / trials), hits, trials)


@dataclass(frozen=True)
class CommutativityReport:
    gc: int
    invertible: bool
    gc_ge_m: bool
    presentation_rank: int
    basis_change_ranks: tuple[int, ...]

    @property
    def ok(self) -> bool:
        ranks_match = all(r == self.gc for r in self.basis_change_ranks)
        return self.invertible and self.gc_ge_m and self.presentation_rank == self.gc and ranks_match


def commutativity_check(
    s: StabilizerCode,
    sp: StabilizerCode,
    m: int,
    rng: np.random.Generator | None = None,
    basis_trials: int = 0,
) -> CommutativityReport:
    """Check the commutativity matrix of a padded code pair.

    Runs the deterministic basis decomposition, reports whether its
    commutativity matrix is invertible with size gc >= m, and confirms
    that rank(G B G'^T) computed from the input presentations (and,
    optionally, from basis_trials random invertible re-presentations)
    equals gc.
    """
    from . import rewiring  # local import: rewiring depends on this module

    ga, gb, gc_rows, gbp, gcp = rewiring.subspace_bases(s.generator_matrix, sp.generator_matrix, normalize=False)
    h = gf2.symplectic_products(gcp, gc_rows)
    gc_size = gc_rows.shape[0]
    invertible = gf2.rank(h) == gc_size
    pres_rank = gf2.rank(gf2.symplectic_products(s.generator_matrix, sp.generator_matrix))
    ranks = []
    for _ in range(basis_trials):
        if rng is None:
            raise ValueError("basis_trials needs an rng")
        a1 = gf2.random_gl(len(s.gens), rng)[0]
        a2 = gf2.random_gl(len(sp.gens), rng)[0]
        g1 = (a1 @ s.generator_matrix) % 2
        g2 = (a2 @ sp.generator_matrix) % 2
        ranks.append(gf2.rank(gf2.symplectic_products(g1, g2)))
    return CommutativityReport(
        gc=gc_size,
        invertible=invertible,
        gc_ge_m=gc_size >= m,
        presentation_rank=pres_rank,
        basis_change_ranks=tuple(ranks),
    )
