import itertools
from functools import lru_cache

import numpy as np
import pytest

from stabswitch import catalog, fixtures, gf2, rewiring
from stabswitch.catalog import PERFECT5, SHOR9, STEANE7
from stabswitch.pauli import PauliOp

I2 = np.eye(2)
XM = np.array([[0, 1], [1, 0]])
ZM = np.array([[1, 0], [0, -1]])
YM = np.array([[0, -1j], [1j, 0]])
DENSE = {"I": I2, "X": XM, "Z": ZM, "Y": YM}


def dense_matrix(op: PauliOp) -> np.ndarray:
    """Kronecker-product matrix of a signed Pauli (independent sign oracle)."""
    out = np.array([[1.0 + 0j]])
    for q in range(op.n):
        out = np.kron(out, DENSE[op.letter(q)])
    return op.sign * out


def in_rowspace(m, v) -> bool:
    """True iff v lies in the row space of m, by two rank eliminations:
    the per-row membership test the library's batched routines replaced."""
    m = np.atleast_2d(gf2.asbits(m))
    return gf2.rank(np.vstack([m, gf2.asbits(v)])) == gf2.rank(m)


def naive_distance(code, cap=None) -> int:
    """Independent distance oracle: enumerate the whole syndrome-map kernel
    (2^(n+k) elements) and take the minimum weight outside the group."""
    g = code.generator_matrix
    basis = gf2.kernel(gf2.swap_xz(g)) if g.shape[0] else gf2.identity(2 * code.n)
    dim = basis.shape[0]
    best = None
    for mask in range(1, 1 << dim):
        coeff = np.array([(mask >> i) & 1 for i in range(dim)], dtype=np.uint8)
        v = (coeff @ basis) % 2
        if not v.any() or in_rowspace(g, v):
            continue
        w = int((v[: code.n] | v[code.n :]).sum())
        best = w if best is None else min(best, w)
    return best


@lru_cache(maxsize=None)
def old_errors_at_weight(n, w):
    """All weight-w error vectors on n qubits, one per (support, letters)
    pair in loop order: the enumerator the letter tables of analysis
    replaced, kept here so that the oracles below share no code with it."""
    bits = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
    rows = []
    for supp in itertools.combinations(range(n), w):
        for letters in itertools.product("XYZ", repeat=w):
            v = np.zeros(2 * n, dtype=np.uint8)
            for q, letter in zip(supp, letters):
                v[q], v[n + q] = bits[letter]
            rows.append(v)
    out = np.array(rows, dtype=np.uint8).reshape(len(rows), 2 * n)
    out.setflags(write=False)
    return out


def old_error_vectors(n, wmax):
    """old_errors_at_weight for w = 1..wmax, weight-ascending."""
    return np.vstack([old_errors_at_weight(n, w) for w in range(1, wmax + 1)] or [np.zeros((0, 2 * n), np.uint8)])


def old_first_logical(code, errs):
    """First zero-syndrome row of errs outside the group, one rank test per
    error: the per-error loop behind verify_path and code_distance before
    they batched the membership test."""
    g = code.generator_matrix
    for v in errs[~gf2.symplectic_products(g, errs).any(axis=0)]:
        if not in_rowspace(g, v):
            return v
    return None


def old_verify_path(path, d):
    """(failing index, witness) of the first intermediate with a logical
    of weight < d, or (None, None), by the per-error loop."""
    errs = old_error_vectors(path.n, d - 1)
    for idx, code in enumerate(path.intermediates):
        hit = old_first_logical(code, errs)
        if hit is not None:
            return idx, PauliOp.from_vector(hit)
    return None, None


def old_code_distance(code, cap):
    """(distance, exact, witness) by the per-error loop."""
    for w in range(1, min(cap, code.n) + 1):
        hit = old_first_logical(code, old_errors_at_weight(code.n, w))
        if hit is not None:
            return w, True, PauliOp.from_vector(hit)
    return min(cap, code.n) + 1, False, None


def old_step_subsystem_distance(pre_code, step):
    """Dressed distance of a step, one affine solve per quiet error."""
    idx = step.replaced_index
    rest = np.delete(pre_code.generator_matrix, idx, axis=0)
    gauge = np.vstack([rest, step.correct.vector, step.measure.vector])
    for w in range(1, pre_code.n + 1):
        errs = old_errors_at_weight(pre_code.n, w)
        for v in errs[~gf2.symplectic_products(rest, errs).any(axis=0)]:
            try:
                coeff, _ = gf2.solve_affine(gauge.T, v)
            except gf2.InconsistentSystemError:
                return w
            if coeff[-1] and coeff[-2]:
                return w
    return None


@pytest.fixture(scope="session")
def steane7():
    return STEANE7


@pytest.fixture(scope="session")
def perfect5():
    return PERFECT5


@pytest.fixture(scope="session")
def shor9():
    return SHOR9


@pytest.fixture(scope="session")
def table_decompositions():
    return {
        name: rewiring.load_fixture_decomposition(text)
        for name, text in fixtures.FIXTURES.items()
    }


@pytest.fixture(scope="session")
def table_paths(table_decompositions):
    return {name: rewiring.build_path(dec) for name, dec in table_decompositions.items()}


@pytest.fixture(scope="session")
def losing_path():
    """An honest path that loses distance: no remix of the (34) pair keeps
    distance 3 without ancillas, the unmixed one included.  Its 3 codes
    include code 1, of distance 1 (witness IIIIIIZ)."""
    st34 = catalog.perm(STEANE7, "(34)")
    return rewiring.build_path(rewiring.decompose(*rewiring.pad(STEANE7, st34, 0)))


@pytest.fixture(scope="session")
def searched_steane_to_five():
    cfg = rewiring.RewiringConfig(m=0, seed=12345, max_retries=2000, min_distance=3)
    return rewiring.search(STEANE7, PERFECT5, cfg)
