"""Dense linear algebra over GF(2).

Vectors are 1-D numpy arrays and matrices 2-D numpy arrays, both with
dtype uint8 and entries in {0, 1}.  All functions treat inputs as
immutable and return fresh arrays.

One elimination engine runs under every routine but batch_invert: rows
packed into Python ints (column c is bit width-1-c, the width a whole
number of bytes) enter an echelon form one at a time (_insert), one XOR
per row operation.  rank counts the rows that enter, greedy_rows and
extend_basis keep them, _inverse stops at the first that does not.
Back-substitution (_reduced) gives the unique reduced row-echelon form
under rref, kernel, solve_affine and intersect_rowspaces, so their
bases are deterministic.  batch_invert is the stack path: numpy
Gauss-Jordan over a stack of square matrices at once.

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


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over GF(2), as one float32 BLAS product.

    The product is exact: every entry is a sum of at most a.shape[1] ones,
    and float32 holds every integer below 2^24.  It is reduced through
    int32, since a float-to-uint8 cast is undefined once a sum passes 255.
    """
    prod = a.astype(np.float32) @ b.astype(np.float32)
    return (prod.astype(np.int32) & 1).astype(np.uint8)


def symplectic_products(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Matrix of pairwise symplectic products: out[..., i, j] = <rows_i, cols_j>,
    by one exact `matmul` (2n < 2^24 terms per entry); leading axes of
    stacked rows or columns broadcast."""
    rows = np.atleast_2d(rows)  # swap_xz coerces it
    cols = np.atleast_2d(asbits(cols))
    if rows.shape[-1] != cols.shape[-1]:
        raise ValueError("column counts differ")
    return matmul(swap_xz(rows), cols.swapaxes(-1, -2))


def _pack(m: np.ndarray) -> tuple[list[int], int]:
    """The rows of a 0/1 matrix as Python ints, and their bit width."""
    packed = np.packbits(m, axis=1)
    return [int.from_bytes(row, "big") for row in packed.tolist()], 8 * packed.shape[1]


def _unpack(ints: list[int], cols: int) -> np.ndarray:
    """The first `cols` columns of packed rows, as a uint8 matrix."""
    nbytes = (cols + 7) // 8
    raw = np.frombuffer(b"".join(x.to_bytes(nbytes, "big") for x in ints), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(ints), nbytes), axis=1, count=cols)


def _insert(lead: dict[int, int], x: int) -> int:
    """Reduce the packed row x by an echelon form, whose rows are keyed by
    the bit length of their leading bit, until its leading bit is new,
    and add what is left (zero if x is in their span) to the form."""
    while x and x.bit_length() in lead:
        x ^= lead[x.bit_length()]
    if x:
        lead[x.bit_length()] = x
    return x


def _reduced(lead: dict[int, int]) -> list[int]:
    """Back-substitution: the rows of the reduced form of an echelon form,
    leftmost pivot first.  Taken from the rightmost pivot leftwards, each
    row clears the pivot bits of the rows already reduced."""
    done: dict[int, int] = {}
    for length in sorted(lead):
        x = lead[length]
        for bits, row in done.items():
            if x >> bits - 1 & 1:
                x ^= row
        done[length] = x
    return [done[length] for length in reversed(done)]


def greedy_rows(m: np.ndarray, rank: int | None = None) -> list[int]:
    """Indices of the rows of m independent of the rows before them, by one
    insertion pass over its packed rows, stopped at `rank` rows if given."""
    lead: dict[int, int] = {}
    kept = []
    for i, x in enumerate(_pack(np.atleast_2d(asbits(m)))[0]):
        if len(kept) == rank:
            break
        if _insert(lead, x):
            kept.append(i)
    return kept


def rref(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form and pivot column list."""
    m = asbits(np.atleast_2d(m))
    rows, width = _pack(m)
    lead: dict[int, int] = {}
    for x in rows:
        _insert(lead, x)
    reduced = _reduced(lead)
    pivots = [width - x.bit_length() for x in reduced]
    return _unpack(reduced + [0] * (len(rows) - len(reduced)), m.shape[1]), pivots


def rank(m: np.ndarray) -> int:
    """GF(2) row rank: the number of rows that enter the echelon form."""
    return len(greedy_rows(m))


def _inverse(m: np.ndarray) -> np.ndarray | None:
    """Inverse of a square matrix, or None at the first row of m in the
    span of the rows before it.  The rows of [m | I] enter one echelon
    form, which back-substitution turns into [I | m^-1]."""
    ints, width = _pack(m)
    lead: dict[int, int] = {}
    for i, x in enumerate(ints):
        if _insert(lead, x << width | 1 << width - 1 - i).bit_length() <= width:
            return None
    return _unpack([x & (1 << width) - 1 for x in _reduced(lead)], m.shape[0])


def invert(m: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix; raises SingularMatrixError if rank-deficient."""
    m = np.atleast_2d(asbits(m))
    d = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix is {m.shape}, not square")
    inv = _inverse(m)
    if inv is None:
        raise SingularMatrixError(f"rank {rank(m)} < dimension {d}")
    return inv


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


def span_coefficients(basis: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of many rows in an independent basis, and which rows
    lie in its span.

    Returns (coeffs, inside) with coeffs[i] @ basis == rows[i] wherever
    inside[i]; coeffs of a row outside the span mean nothing.  The packed
    rows of [basis | I] go into one echelon form (_insert); reducing a
    packed row v by it, highest leading bit first, clears v on the pivot
    columns P of basis and leaves v[P] basis[:, P]^-1 in the right block,
    and zero in the left one iff v is a member.
    """
    basis, rows = np.atleast_2d(asbits(basis)), np.atleast_2d(asbits(rows))
    k, cols = basis.shape
    packed, width = _pack(np.hstack([basis, identity(k)]))
    lead: dict[int, int] = {}
    if any(_insert(lead, x).bit_length() <= width - cols for x in packed):
        raise NotIndependentError("basis rows are dependent")
    queries, qwidth = _pack(rows)
    queries = [v << width - qwidth for v in queries]
    for length in sorted(lead, reverse=True):
        bit, row = 1 << length - 1, lead[length]
        queries = [v ^ row if v & bit else v for v in queries]
    # the right block sits below bit width - cols; shift its first column onto a byte's top bit
    coeffs = _unpack([(v >> width - cols - k & (1 << k) - 1) << -k % 8 for v in queries], k)
    return coeffs, np.array([not v >> width - cols for v in queries], dtype=bool)


def extend_basis(partial: np.ndarray, space: np.ndarray) -> np.ndarray:
    """Rows completing `partial` to a basis of the row space of `space`.

    Greedy over the rows of `space` in their given order, so the result
    is deterministic.  `partial` may have zero rows.  One insertion pass
    over [partial; space] (greedy_rows) picks the rows; `partial` is
    independent iff all its rows are kept, and inside the space iff the
    kept rows number rank(space).
    """
    space = np.atleast_2d(asbits(space))
    cols = space.shape[1]
    partial = asbits(partial).reshape(-1, cols) if np.asarray(partial).size else zeros((0, cols))
    p = partial.shape[0]
    stack = np.vstack([partial, space])
    kept = greedy_rows(stack)
    if kept[:p] != list(range(p)):
        raise NotIndependentError("partial basis rows are dependent")
    if len(kept) != rank(space):
        raise NotInSpaceError("partial basis row outside the target row space")
    return stack[kept[p:]]


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


def random_gl(dim: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniformly random invertible dim x dim matrix and its inverse, by
    rejection sampling; the elimination that tests each draw's rank also
    yields the inverse.

    The acceptance probability prod_{i=1..dim}(1 - 2^-i) stays above
    0.288 for every dim, so the expected number of draws is below 3.5.
    """
    while True:
        m = random_matrix(dim, dim, rng)
        inv = _inverse(m)
        if inv is not None:
            return m, inv


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
