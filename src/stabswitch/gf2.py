"""Dense linear algebra over GF(2).

Vectors are 1-D numpy arrays and matrices 2-D numpy arrays, both with
dtype uint8 and entries in {0, 1}.  All functions treat inputs as
immutable and return fresh arrays.  Gaussian elimination always picks
the leftmost pivot column and, within a column, the lowest remaining
row, so every basis-producing routine is deterministic.

Length-2n vectors are read as (x | z) halves and carry the symplectic
form <v, w> = v^T B w with B the block matrix [[0, I], [I, 0]].
"""

from __future__ import annotations

import numpy as np


class SingularMatrixError(ValueError):
    """Matrix inversion was requested for a rank-deficient matrix."""


class InconsistentSystemError(ValueError):
    """An affine system A x = b has no solution."""


class NotInSpaceError(ValueError):
    """A partial basis contains rows outside the target row space."""


class NotIndependentError(ValueError):
    """A partial basis contains linearly dependent rows."""


def asbits(a) -> np.ndarray:
    """Coerce to a uint8 array reduced mod 2."""
    return np.asarray(a, dtype=np.uint8) & 1


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.uint8)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.uint8)


def swap_xz(m: np.ndarray) -> np.ndarray:
    """Right-multiply row vectors by the symplectic form (swap x and z halves).

    Accepts a single length-2n vector or a stack of them.
    """
    m = asbits(m)
    n2 = m.shape[-1]
    if n2 % 2:
        raise ValueError(f"symplectic vectors must have even length, got {n2}")
    n = n2 // 2
    return np.concatenate([m[..., n:], m[..., :n]], axis=-1)


def symplectic_product(v, w) -> int:
    """<v, w> = v^T B w mod 2 for length-2n bit vectors v, w."""
    v = asbits(v)
    w = asbits(w)
    if v.shape != w.shape or v.ndim != 1 or v.shape[0] % 2:
        raise ValueError(f"need equal even-length vectors, got {v.shape} and {w.shape}")
    n = v.shape[0] // 2
    return int(v[:n] @ w[n:] + v[n:] @ w[:n]) & 1


def symplectic_products(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Matrix of pairwise symplectic products: out[i, j] = <rows_i, cols_j>."""
    rows = np.atleast_2d(asbits(rows))
    cols = np.atleast_2d(asbits(cols))
    if rows.shape[1] != cols.shape[1]:
        raise ValueError("column counts differ")
    return (swap_xz(rows).astype(np.int64) @ cols.T.astype(np.int64) % 2).astype(np.uint8)


def commuting_rows(ops: np.ndarray, errs: np.ndarray) -> np.ndarray:
    """The rows of errs that commute with every row of ops, in order."""
    errs = np.atleast_2d(errs)
    return errs[~symplectic_products(ops, errs).any(axis=0)]


def rref(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form and pivot column list."""
    m = asbits(np.atleast_2d(m))
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hit = np.nonzero(m[r:, c])[0]
        if hit.size == 0:
            continue
        p = r + int(hit[0])
        if p != r:
            m[[r, p]] = m[[p, r]]
        elim = np.nonzero(m[:, c])[0]
        for i in elim:
            if i != r:
                m[i] ^= m[r]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(m: np.ndarray) -> int:
    """GF(2) row rank."""
    return len(rref(m)[1])


def invert(m: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix; raises SingularMatrixError if rank-deficient."""
    m = np.atleast_2d(asbits(m))
    d = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix is {m.shape}, not square")
    aug, pivots = rref(np.hstack([m, identity(d)]))
    if pivots != list(range(d)):
        raise SingularMatrixError(f"rank {rank(m)} < dimension {d}")
    return aug[:, d:].copy()


def _kernel_from_rref(r: np.ndarray, pivots: list[int], cols: int) -> np.ndarray:
    """Kernel basis read off a reduced row-echelon form of the first `cols`
    columns, one row per free column in ascending order."""
    free = [c for c in range(cols) if c not in pivots]
    basis = zeros((len(free), cols))
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = r[: len(pivots)][:, free].T
    return basis


def kernel(m: np.ndarray) -> np.ndarray:
    """Basis of {x : m x = 0}, one kernel vector per row (possibly 0 rows).

    Free variables are indexed in ascending column order, making the
    basis deterministic.
    """
    r, pivots = rref(m)
    return _kernel_from_rref(r, pivots, r.shape[1])


def solve_affine(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a x = b over GF(2).

    Returns (x0, K) where x0 is the particular solution with all free
    variables zero (least under the elimination pivot ordering) and K is
    a kernel basis (rows), so the full solution set is x0 + span(K).
    Raises InconsistentSystemError if no solution exists.

    K equals kernel(a) bit for bit: pivots are picked column by column
    from the left, so the left block of rref([a | b]) is rref(a).
    """
    a = np.atleast_2d(asbits(a))
    b = asbits(b).reshape(-1)
    rows, cols = a.shape
    if b.shape[0] != rows:
        raise ValueError(f"rhs length {b.shape[0]} != row count {rows}")
    aug, pivots = rref(np.hstack([a, b.reshape(-1, 1)]))
    if cols in pivots:
        raise InconsistentSystemError("no solution: rhs outside column space")
    x0 = zeros(cols)
    x0[pivots] = aug[: len(pivots), cols]
    return x0, _kernel_from_rref(aug, pivots, cols)


def in_rowspace(m: np.ndarray, v: np.ndarray) -> bool:
    """True iff v lies in the row space of m."""
    m = np.atleast_2d(asbits(m))
    return rank(np.vstack([m, asbits(v)])) == rank(m)


def extend_basis(partial: np.ndarray, space: np.ndarray) -> np.ndarray:
    """Rows completing `partial` to a basis of the row space of `space`.

    Greedy over the rows of `space` in their given order, so the result
    is deterministic.  `partial` may have zero rows.
    """
    space = np.atleast_2d(asbits(space))
    cols = space.shape[1]
    partial = asbits(partial).reshape(-1, cols) if np.asarray(partial).size else zeros((0, cols))
    if partial.shape[0] != rank(partial):
        raise NotIndependentError("partial basis rows are dependent")
    for row in partial:
        if not in_rowspace(space, row):
            raise NotInSpaceError("partial basis row outside the target row space")
    current = partial
    picked = []
    target = rank(space)
    for row in space:
        if current.shape[0] == target:
            break
        if not in_rowspace(current, row):
            picked.append(row)
            current = np.vstack([current, row])
    return np.array(picked, dtype=np.uint8).reshape(len(picked), cols)


def intersect_rowspaces(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Basis (rows) of rowspace(a) intersected with rowspace(b), Zassenhaus style."""
    a = np.atleast_2d(asbits(a))
    b = np.atleast_2d(asbits(b))
    if a.shape[1] != b.shape[1]:
        raise ValueError("column counts differ")
    cols = a.shape[1]
    if a.shape[0] == 0 or b.shape[0] == 0:
        return zeros((0, cols))
    block = np.vstack([np.hstack([a, a]), np.hstack([b, zeros(b.shape)])])
    r, _ = rref(block)
    keep = [row[cols:] for row in r if not row[:cols].any() and row[cols:].any()]
    return np.array(keep, dtype=np.uint8).reshape(len(keep), cols)


def random_matrix(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)


def random_gl(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random invertible dim x dim matrix, by rejection sampling.

    The acceptance probability prod_{i=1..dim}(1 - 2^-i) stays above
    0.288 for every dim, so the expected number of draws is below 3.5.
    """
    if dim == 0:
        return zeros((0, 0))
    while True:
        m = random_matrix(dim, dim, rng)
        if rank(m) == dim:
            return m


def batch_invert(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert a stack of square matrices at once.

    Returns (inverses, ok) where ok[i] is False for singular inputs
    (their inverse slot is garbage).  Used for bulk sampling.
    """
    mats = asbits(mats)
    count, dim, dim2 = mats.shape
    if dim != dim2:
        raise ValueError("matrices must be square")
    if dim == 0:
        return zeros((count, 0, 0)), np.ones(count, dtype=bool)
    aug = np.concatenate([mats.copy(), np.broadcast_to(identity(dim), mats.shape).copy()], axis=2)
    ok = np.ones(count, dtype=bool)
    for c in range(dim):
        # index of the first row >= c with a 1 in column c, per matrix
        sub = aug[:, c:, c]
        has = sub.any(axis=1)
        ok &= has
        piv = c + np.argmax(sub, axis=1)
        piv = np.where(has, piv, c)
        idx = np.arange(count)
        tmp = aug[idx, piv].copy()
        aug[idx, piv] = aug[idx, c]
        aug[idx, c] = tmp
        mask = aug[:, :, c].astype(bool)
        mask[:, c] = False
        aug ^= mask[:, :, None] & aug[:, c, None, :]
    return aug[:, :, dim:], ok


def random_gl_batch(dim: int, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """`count` independent uniform GL(F2, dim) samples with their inverses.

    Same rejection scheme as random_gl, vectorized across a batch.
    Returns (mats, invs), each of shape (count, dim, dim).
    """
    if dim == 0:
        return zeros((count, 0, 0)), zeros((count, 0, 0))
    mats = []
    invs = []
    remaining = count
    while remaining > 0:
        draw = max(64, int(remaining * 3.6))
        cand = rng.integers(0, 2, size=(draw, dim, dim), dtype=np.uint8)
        inv, ok = batch_invert(cand)
        take = min(remaining, int(ok.sum()))
        sel = np.nonzero(ok)[0][:take]
        mats.append(cand[sel])
        invs.append(inv[sel])
        remaining -= take
    return np.concatenate(mats), np.concatenate(invs)
