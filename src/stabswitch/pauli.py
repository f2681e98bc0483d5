"""Signed n-qubit Pauli operators and stabilizer codes.

A Pauli is stored as x and z bit vectors plus a sign in {+1, -1}; the
letter on qubit q is I, X, Z or Y for (x_q, z_q) = (0,0), (1,0), (0,1),
(1,1), with Y understood as the Hermitian operator iXZ.  Strings read
left to right starting at qubit 1, e.g. "-YXXYIZZ".  Multiplication
tracks the accumulated power of i exactly and only ever exposes
Hermitian results: multiplying anticommuting operators raises.

Signs of products of many rows (group elements, a stabilizer state's
eigenvalues, transported logicals) are signed_products, read in closed
form; a product of two operators (PauliOp.__mul__, a measurement's
rowsum) is phase_exponent, a table lookup per qubit.

A membership question is answered one of two ways.  Signed membership
is span_signs, the one caller of gf2.span_coefficients: it serves
group_elements, and through it same_group, in_group, a path file's
ancilla check and the eigenvalues of a stabilizer state (tableau.Tableau).
"A logical, not a stabilizer?" is read off syndromes: an operator
commuting with the generators is outside the group iff it anticommutes
with a row of StabilizerCode.logical_basis, the basis the distance
checks and tableau.logical_frame (its symplectic normal form) use.

A stabilizer code is an ordered list of independent, pairwise commuting
signed Paulis on n qubits; k = n - (number of generators).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

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


# power of i of one qubit's letter product, at x1 + 2 z1 + 4 x2 + 8 z2: XZ = -iY, ZX = iY, YX = -iZ, ...
_PHASE = np.array([0, 0, 0, 0, 0, 0, 1, 3, 0, 3, 0, 1, 0, 1, 3, 0], dtype=np.int8)


def phase_exponent(x1, z1, x2, z2):
    """Power of i (mod 4) picked up when multiplying the unsigned Paulis
    (x1|z1) * (x2|z2) written with Hermitian letters, one _PHASE lookup
    per qubit.  Sums over the last (qubit) axis and broadcasts over the
    leading ones."""
    x1, z1, x2, z2 = (np.asarray(a, dtype=np.uint8) for a in (x1, z1, x2, z2))
    return _PHASE[x1 | z1 << 1 | x2 << 2 | z2 << 3].sum(axis=-1, dtype=np.int64) % 4


def signed_products(x, z, r, selection) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ordered products of signed rows, all at once: product i multiplies,
    left to right, the rows (x[j]|z[j]) with sign (-1)^r[j] that
    selection[i] marks.  Returns each product's x and z parts and its
    power of i (mod 4): 0 or 2 when Hermitian, odd when the selected rows
    do not commute.  A row is i^(x.z) X^x Z^z, and moving the X of row l
    left of the Z of an earlier row j costs (-1)^(z_j.x_l): the power is
    the selected rows' Y count, plus 2 per selected pair j < l with
    z_j.x_l odd and per selected sign bit, less the product's Y count."""
    sel = np.asarray(selection, dtype=np.int64)
    x, z = np.asarray(x, dtype=np.int64), np.asarray(z, dtype=np.int64)
    px, pz = (sel @ x & 1).astype(np.uint8), (sel @ z & 1).astype(np.uint8)
    later = np.triu(z @ x.T & 1, 1)  # later[j, l] = z_j.x_l mod 2 for j < l
    pairs = ((sel @ later) * sel).sum(axis=-1)
    power = sel @ ((x & z).sum(axis=-1) + 2 * np.asarray(r, dtype=np.int64)) + 2 * pairs - (px & pz).sum(axis=-1)
    return px, pz, power % 4


@dataclass(frozen=True)
class PauliOp:
    """A signed Hermitian Pauli operator on n qubits.  Its read-only
    vector (x | z) is built once, on construction, and x and z are views
    of it."""

    x: np.ndarray
    z: np.ndarray
    sign: int = +1
    vector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x, z = np.asarray(self.x, dtype=np.uint8), np.asarray(self.z, dtype=np.uint8)
        if x.shape != z.shape or x.ndim != 1:
            raise ValueError("x and z parts must be equal-length vectors")
        if self.sign not in (+1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        v = np.concatenate([x, z]) & 1
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)
        object.__setattr__(self, "x", v[: len(x)])
        object.__setattr__(self, "z", v[len(x) :])

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
            raise NonHermitianProductError("operands anticommute; the product is not Hermitian")
        return PauliOp(self.x ^ other.x, self.z ^ other.z, +1 if ph == 0 else -1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliOp):
            return NotImplemented
        return self.sign == other.sign and np.array_equal(self.vector, other.vector)

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
            raise DependentGeneratorsError(f"{len(gens)} generators on {self.n} qubits cannot be independent")
        for g in gens:
            if g.n != self.n:
                raise WrongLengthError(f"generator {g} acts on {g.n} qubits, expected {self.n}")
        if gens:
            mat = self.generator_matrix
            comm = gf2.symplectic_products(mat, mat)
            if comm.any():
                i, j = (int(t[0]) for t in np.nonzero(comm))
                raise AnticommutingGeneratorsError(f"generators {gens[i]} and {gens[j]} anticommute")
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
    def logical_basis(self) -> np.ndarray:
        """Rows completing the generators to a basis of their normalizer: an
        error commuting with the generators is outside the group iff it
        anticommutes with one of these logical operators.  The kernel rows
        gf2.extend_basis(g, kernel) picks, by its insertion pass
        (gf2.greedy_rows) over [g; kernel] without its checks: the
        generators are independent and lie in the kernel."""
        g = self.generator_matrix
        stack = np.vstack([g, gf2.kernel(gf2.swap_xz(g))])
        m = stack[gf2.greedy_rows(stack, self.n + self.k)[len(g) :]]
        m.setflags(write=False)
        return m

    def __eq__(self, other) -> bool:
        if not isinstance(other, StabilizerCode):
            return NotImplemented
        return self.n == other.n and self.gens == other.gens

    def __hash__(self):
        return hash((self.n, self.gens))

    def same_group(self, other: "StabilizerCode") -> bool:
        """True iff both codes generate the same signed stabilizer group:
        every generator of other is in this group with its own sign."""
        if self.n != other.n or len(self.gens) != len(other.gens):
            return False
        power, inside = span_signs(self.generator_matrix, _sign_bits(self.gens), other.generator_matrix)
        return bool(inside.all() and (power == 2 * _sign_bits(other.gens)).all())

    def _exchanged(self, idx: int, op: PauliOp) -> "StabilizerCode":
        """This code with generator idx replaced by op, which the caller has
        checked anticommutes with it and commutes with the others.  Nothing
        can fail, so nothing is re-validated: op commutes with the rest, so
        the new set commutes; every element of their span commutes with the
        outgoing generator and op does not, so the new set is independent."""
        code = object.__new__(StabilizerCode)
        object.__setattr__(code, "n", self.n)
        object.__setattr__(code, "gens", self.gens[:idx] + (op,) + self.gens[idx + 1 :])
        m = self.generator_matrix.copy()
        m[idx] = op.vector
        m.setflags(write=False)
        code.__dict__["generator_matrix"] = m
        return code

    def __repr__(self):
        return f"StabilizerCode[[{self.n},{self.k}]]({[str(g) for g in self.gens]})"


class Membership(NamedTuple):
    in_group: bool
    sign_match: bool | None


def syndrome(code: StabilizerCode, e: PauliOp) -> np.ndarray:
    """Commutation bits of e against the code generators (sign of e ignored)."""
    if e.n != code.n:
        raise ValueError(f"operator acts on {e.n} qubits, code on {code.n}")
    return gf2.symplectic_products(code.generator_matrix, e.vector)[:, 0]


def span_signs(rows, sign_bits, vectors) -> tuple[np.ndarray, np.ndarray]:
    """Signed membership of vectors in the group generated by independent,
    pairwise commuting signed rows (x|z with sign (-1)^sign_bits): each
    vector's power of i as a product of the rows (0 or 2, read 1 - power
    as its sign in the group) and a mask of the vectors in the span.
    The powers of vectors outside the span mean nothing."""
    rows = np.atleast_2d(rows)
    n = rows.shape[1] // 2
    coeffs, inside = gf2.span_coefficients(rows, vectors)
    return signed_products(rows[:, :n], rows[:, n:], sign_bits, coeffs)[2], inside


def _sign_bits(ops: Sequence[PauliOp]) -> np.ndarray:
    """1 for each negative sign, 0 for each positive one."""
    return np.array([p.sign < 0 for p in ops], dtype=np.uint8)


def group_elements(code: StabilizerCode, rows: np.ndarray) -> list[PauliOp | None]:
    """The signed group element whose vector is each row of rows (None for
    rows outside the group): a group never holds -1, so the vector fixes
    the sign."""
    power, inside = span_signs(code.generator_matrix, _sign_bits(code.gens), rows)
    vectors = np.atleast_2d(rows)
    x, z = vectors[:, : code.n], vectors[:, code.n :]
    return [PauliOp(xi, zi, 1 - int(p)) if ok else None for xi, zi, p, ok in zip(x, z, power, inside)]


def group_element(code: StabilizerCode, v: np.ndarray) -> PauliOp | None:
    """The signed group element whose vector is v, or None if v is outside."""
    return group_elements(code, v)[0]


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
    for key, inferred in (("n", code.n), ("k", code.k)):
        # type() rejects true and 7.0, which compare equal to 1 and 7
        if key in doc and (type(doc[key]) is not int or doc[key] != inferred):
            raise WrongLengthError(f"declared {key}={doc[key]!r} but inferred {key}={inferred}")
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
    rows = gf2.zeros((0, 2 * n))
    while len(rows) < n - k:
        space = gf2.kernel(gf2.swap_xz(rows))
        v = (rng.integers(0, 2, size=space.shape[0], dtype=np.uint8) @ space) % 2
        if gf2.rank(np.vstack([rows, v])) > len(rows):  # nonzero and independent: 3 draws in 4 or more
            rows = np.vstack([rows, v])
    signs = [-1 if random_signs and rng.integers(0, 2) else +1 for _ in rows]
    return StabilizerCode(n, tuple(PauliOp.from_vector(v, sign) for v, sign in zip(rows, signs)))
