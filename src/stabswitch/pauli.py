"""Signed n-qubit Pauli operators and stabilizer codes.

A Pauli is stored as x and z bit vectors plus a sign in {+1, -1}; the
letter on qubit q is I, X, Z or Y for (x_q, z_q) = (0,0), (1,0), (0,1),
(1,1), with Y understood as the Hermitian operator iXZ.  Strings read
left to right starting at qubit 1, e.g. "-YXXYIZZ".  Multiplication
tracks the accumulated power of i exactly and only ever exposes
Hermitian results: multiplying anticommuting operators raises.

A stabilizer code is an ordered list of independent, pairwise commuting
signed Paulis on n qubits; k = n - (number of generators).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from . import gf2


class CodeFormatError(ValueError):
    """Problem parsing a code description."""


class BadCharacterError(CodeFormatError):
    pass


class WrongLengthError(CodeFormatError):
    pass


class AnticommutingGeneratorsError(ValueError):
    pass


class DependentGeneratorsError(ValueError):
    pass


class NonHermitianProductError(ValueError):
    """Product of anticommuting Hermitian Paulis has phase +-i."""


_MINUS = {"-", "−"}
_LETTER_XZ = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_XZ_LETTER = {v: k for k, v in _LETTER_XZ.items()}


def phase_exponent(x1, z1, x2, z2) -> int:
    """Power of i (mod 4) picked up when multiplying the unsigned Paulis
    (x1|z1) * (x2|z2) written with Hermitian letters."""
    x1 = np.asarray(x1, dtype=np.int64)
    z1 = np.asarray(z1, dtype=np.int64)
    x2 = np.asarray(x2, dtype=np.int64)
    z2 = np.asarray(z2, dtype=np.int64)
    # per-qubit exponent: 0 for I; Y gives z2-x2; X gives z2(2x2-1); Z gives x2(1-2z2)
    g = (
        x1 * z1 * (z2 - x2)
        + x1 * (1 - z1) * z2 * (2 * x2 - 1)
        + z1 * (1 - x1) * x2 * (1 - 2 * z2)
    )
    return int(g.sum()) % 4


@dataclass(frozen=True)
class PauliOp:
    """A signed Hermitian Pauli operator on n qubits."""

    x: np.ndarray
    z: np.ndarray
    sign: int = +1

    def __post_init__(self):
        x = gf2.asbits(self.x)
        z = gf2.asbits(self.z)
        if x.shape != z.shape or x.ndim != 1:
            raise ValueError("x and z parts must be equal-length vectors")
        if self.sign not in (+1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        x.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

    @classmethod
    def identity(cls, n: int) -> "PauliOp":
        return cls(gf2.zeros(n), gf2.zeros(n))

    @classmethod
    def from_string(cls, s: str) -> "PauliOp":
        s = s.strip()
        if not s:
            raise WrongLengthError("empty Pauli string")
        sign = +1
        if s[0] in _MINUS or s[0] == "+":
            sign = -1 if s[0] in _MINUS else +1
            s = s[1:]
        if not s:
            raise WrongLengthError("Pauli string has a sign but no letters")
        n = len(s)
        x = gf2.zeros(n)
        z = gf2.zeros(n)
        for i, ch in enumerate(s):
            try:
                x[i], z[i] = _LETTER_XZ[ch]
            except KeyError:
                raise BadCharacterError(f"invalid Pauli letter {ch!r}") from None
        return cls(x, z, sign)

    @classmethod
    def from_vector(cls, v: np.ndarray, sign: int = +1) -> "PauliOp":
        v = gf2.asbits(v)
        n = v.shape[0] // 2
        return cls(v[:n], v[n:], sign)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.x, self.z])

    @property
    def weight(self) -> int:
        return int((self.x | self.z).sum())

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(int(q) for q in np.nonzero(self.x | self.z)[0])

    def letter(self, q: int) -> str:
        return _XZ_LETTER[(int(self.x[q]), int(self.z[q]))]

    def commutes(self, other: "PauliOp") -> bool:
        return gf2.symplectic_product(self.vector, other.vector) == 0

    def __mul__(self, other: "PauliOp") -> "PauliOp":
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        ph = phase_exponent(self.x, self.z, other.x, other.z)
        ph = (ph + (2 if self.sign < 0 else 0) + (2 if other.sign < 0 else 0)) % 4
        if ph % 2:
            raise NonHermitianProductError(
                "operands anticommute; the product is not Hermitian"
            )
        return PauliOp(self.x ^ other.x, self.z ^ other.z, +1 if ph == 0 else -1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliOp):
            return NotImplemented
        return (
            self.sign == other.sign
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )

    def __hash__(self):
        return hash((self.sign, self.x.tobytes(), self.z.tobytes()))

    def to_string(self) -> str:
        body = "".join(map("IXZY".__getitem__, (self.x + 2 * self.z).tolist()))
        return ("-" if self.sign < 0 else "") + body

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"PauliOp({self.to_string()!r})"


def product(paulis: Iterable[PauliOp], n: int | None = None) -> PauliOp:
    """Product of mutually commuting signed Paulis (identity if empty)."""
    acc = None
    for p in paulis:
        acc = p if acc is None else acc * p
    if acc is None:
        if n is None:
            raise ValueError("empty product needs an explicit qubit count")
        return PauliOp.identity(n)
    return acc


@dataclass(frozen=True)
class StabilizerCode:
    """An [[n, k]] stabilizer code given by an ordered generator list."""

    n: int
    gens: tuple[PauliOp, ...]

    def __post_init__(self):
        gens = tuple(self.gens)
        object.__setattr__(self, "gens", gens)
        if len(gens) > self.n:
            raise DependentGeneratorsError(
                f"{len(gens)} generators on {self.n} qubits cannot be independent"
            )
        for g in gens:
            if g.n != self.n:
                raise WrongLengthError(
                    f"generator {g} acts on {g.n} qubits, expected {self.n}"
                )
        if gens:
            mat = self.generator_matrix
            comm = gf2.symplectic_products(mat, mat)
            if comm.any():
                i, j = (int(t[0]) for t in np.nonzero(comm))
                raise AnticommutingGeneratorsError(
                    f"generators {gens[i]} and {gens[j]} anticommute"
                )
            if gf2.rank(mat) != len(gens):
                raise DependentGeneratorsError("generator vectors are dependent")

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "StabilizerCode":
        gens = tuple(PauliOp.from_string(s) for s in strings)
        if not gens:
            raise WrongLengthError("a code needs at least one generator line")
        lengths = {g.n for g in gens}
        if len(lengths) != 1:
            raise WrongLengthError(f"generator lengths differ: {sorted(lengths)}")
        return cls(gens[0].n, gens)

    @property
    def k(self) -> int:
        return self.n - len(self.gens)

    @cached_property
    def generator_matrix(self) -> np.ndarray:
        """(n-k) x 2n matrix whose rows are the generator vectors."""
        if not self.gens:
            return gf2.zeros((0, 2 * self.n))
        m = np.array([g.vector for g in self.gens], dtype=np.uint8)
        m.setflags(write=False)
        return m

    @cached_property
    def signs(self) -> tuple[int, ...]:
        return tuple(g.sign for g in self.gens)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StabilizerCode):
            return NotImplemented
        return self.n == other.n and self.gens == other.gens

    def __hash__(self):
        return hash((self.n, self.gens))

    def same_group(self, other: "StabilizerCode") -> bool:
        """True iff both codes generate the same signed stabilizer group."""
        if self.n != other.n or len(self.gens) != len(other.gens):
            return False
        # two eliminations for all of other's generators rather than one
        # each: on the pivot columns P of this generator matrix G, a
        # member v = c G has c = v[P] G[:, P]^-1
        g = self.generator_matrix
        pivots = gf2.rref(g)[1]
        coeffs = other.generator_matrix[:, pivots] @ gf2.invert(g[:, pivots]) % 2
        if not np.array_equal(coeffs @ g % 2, other.generator_matrix):
            return False
        return all(
            product((self.gens[i] for i in np.nonzero(c)[0]), n=self.n).sign == op.sign
            for c, op in zip(coeffs, other.gens)
        )

    def __repr__(self):
        return f"StabilizerCode[[{self.n},{self.k}]]({[str(g) for g in self.gens]})"


class Membership(NamedTuple):
    in_group: bool
    sign_match: bool | None


def syndrome(code: StabilizerCode, e: PauliOp) -> np.ndarray:
    """Commutation bits of e against the code generators (sign of e ignored)."""
    if e.n != code.n:
        raise ValueError(f"operator acts on {e.n} qubits, code on {code.n}")
    g = code.generator_matrix
    if g.shape[0] == 0:
        return gf2.zeros(0)
    return (gf2.swap_xz(g).astype(np.int64) @ e.vector.astype(np.int64) % 2).astype(np.uint8)


def group_coefficients(code: StabilizerCode, v: np.ndarray) -> np.ndarray | None:
    """Coefficients c with c @ generator_matrix = v, or None if v is outside."""
    g = code.generator_matrix
    v = gf2.asbits(v)
    if not v.any():
        return gf2.zeros(g.shape[0])
    try:
        x0, _ = gf2.solve_affine(g.T, v)
    except gf2.InconsistentSystemError:
        return None
    return x0


def group_element(code: StabilizerCode, v: np.ndarray) -> PauliOp | None:
    """The signed group element whose vector is v, or None if v is outside."""
    coeff = group_coefficients(code, v)
    if coeff is None:
        return None
    return product((code.gens[i] for i in np.nonzero(coeff)[0]), n=code.n)


def in_group(code: StabilizerCode, e: PauliOp) -> Membership:
    """Vector-level membership of e in the stabilizer group, plus sign agreement."""
    if e.n != code.n:
        raise ValueError(f"operator acts on {e.n} qubits, code on {code.n}")
    elem = group_element(code, e.vector)
    if elem is None:
        return Membership(False, None)
    return Membership(True, elem.sign == e.sign)


def normalizer_basis(code: StabilizerCode) -> list[PauliOp]:
    """Basis of N(S) as an F2 subspace: kernel of the syndrome map, dim n + k."""
    return [PauliOp.from_vector(v) for v in gf2.kernel(gf2.swap_xz(code.generator_matrix))]


def parse_code(text: str) -> StabilizerCode:
    """Parse the on-disk code format (or its JSON variant).

    Text format: '#' comment lines; every other line is an optional sign
    ('+', '-', or a unicode minus) followed by letters from {I, X, Y, Z}.
    All lines must have equal length n; k is inferred as n - line count.
    JSON variant: {"n": 7, "k": 1, "generators": ["-YXXYIZZ", ...]}.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CodeFormatError(f"invalid JSON code file: {exc}") from None
        return code_from_json(doc)
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    code = StabilizerCode.from_strings(lines)
    return code


def format_code(code: StabilizerCode) -> str:
    """Inverse of parse_code for the text format (no comments, '-' signs)."""
    return "\n".join(g.to_string() for g in code.gens) + "\n"


def code_to_json(code: StabilizerCode) -> dict:
    return {
        "n": code.n,
        "k": code.k,
        "generators": [g.to_string() for g in code.gens],
    }


def code_from_json(doc: dict) -> StabilizerCode:
    try:
        gens = doc["generators"]
    except (TypeError, KeyError):
        raise CodeFormatError("JSON code needs a 'generators' list") from None
    code = StabilizerCode.from_strings(gens)
    if "n" in doc and doc["n"] != code.n:
        raise WrongLengthError(f"declared n={doc['n']} but strings have n={code.n}")
    if "k" in doc and doc["k"] != code.k:
        raise WrongLengthError(f"declared k={doc['k']} but inferred k={code.k}")
    return code


def random_stabilizer_code(
    n: int, k: int, rng: np.random.Generator, random_signs: bool = True
) -> StabilizerCode:
    """A random valid [[n, k]] code (not uniform over all codes).

    Each generator is drawn uniformly from the vectors commuting with
    and independent of the previous ones.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    rows: list[np.ndarray] = []
    while len(rows) < n - k:
        mat = np.array(rows, dtype=np.uint8).reshape(len(rows), 2 * n)
        space = gf2.kernel(gf2.swap_xz(mat))
        for _ in range(10_000):
            coeff = rng.integers(0, 2, size=space.shape[0], dtype=np.uint8)
            v = (coeff @ space) % 2
            if not v.any() or gf2.in_rowspace(mat, v):
                continue
            rows.append(v.astype(np.uint8))
            break
        else:  # pragma: no cover - astronomically unlikely
            raise RuntimeError("failed to sample an independent commuting generator")
    gens = tuple(
        PauliOp.from_vector(v, sign=-1 if (random_signs and rng.integers(0, 2)) else +1)
        for v in rows
    )
    return StabilizerCode(n, gens)
