import contextlib
import itertools

import numpy as np
import pytest

from conftest import in_rowspace
from stabswitch import gf2
from stabswitch.pauli import PauliOp


def vec(s):
    return PauliOp.from_string(s).vector


class TestAsbits:
    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int64])
    def test_fresh_uint8_mod_2(self, dtype):
        raw = np.array([[0, 1, 2, 3], [5, 4, 7, 6]]).astype(dtype)
        out = gf2.asbits(raw)
        assert out.dtype == np.uint8
        assert not np.shares_memory(out, raw)
        assert np.array_equal(out, np.array(raw, dtype=np.int64) % 2)


class TestSymplecticProduct:
    def test_x_vs_z_same_qubit(self):
        assert gf2.symplectic_product(vec("XI"), vec("ZI")) == 1

    def test_self_product_vanishes(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.integers(0, 2, size=8, dtype=np.uint8)
            assert gf2.symplectic_product(v, v) == 0

    def test_xz_vs_zx_commute(self):
        assert gf2.symplectic_product(vec("XZ"), vec("ZX")) == 0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.integers(0, 2, size=10, dtype=np.uint8)
            w = rng.integers(0, 2, size=10, dtype=np.uint8)
            assert gf2.symplectic_product(v, w) == gf2.symplectic_product(w, v)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gf2.symplectic_product(np.zeros(4, dtype=np.uint8), np.zeros(6, dtype=np.uint8))
        with pytest.raises(ValueError):
            gf2.symplectic_product(np.zeros(3, dtype=np.uint8), np.zeros(3, dtype=np.uint8))


def old_symplectic_products(rows, cols):
    """The int64 product the float32 BLAS kernel replaced."""
    rows = np.atleast_2d(rows)
    cols = np.atleast_2d(cols)
    return (gf2.swap_xz(rows).astype(np.int64) @ cols.T.astype(np.int64) % 2).astype(np.uint8)


class TestExactKernel:
    def test_matches_int64_product(self):
        """Seeded shapes with 0 rows, 0 columns, and dense rows up to
        n = 300, whose integer sums pass 255."""
        rng = np.random.default_rng(21)
        past_255 = 0
        for trial in range(1200):
            n = int(rng.integers(0, 301)) if trial % 3 == 0 else int(rng.integers(0, 20))
            r, c = int(rng.integers(0, 9)), int(rng.integers(0, 40))
            density = 0.97 if trial % 2 else 0.5
            rows = (rng.random((r, 2 * n)) < density).astype(np.uint8)
            cols = (rng.random((c, 2 * n)) < density).astype(np.uint8)
            got = gf2.symplectic_products(rows, cols)
            assert got.dtype == np.uint8 and got.shape == (r, c)
            assert np.array_equal(got, old_symplectic_products(rows, cols))
            assert np.array_equal(gf2.matmul(rows, cols.T), (rows.astype(np.int64) @ cols.T % 2).astype(np.uint8))
            if r and c:
                past_255 += int((gf2.swap_xz(rows).astype(np.int64) @ cols.T).max() > 255)
        assert past_255 > 50


class TestStackedSymplecticProducts:
    def test_stacks_match_per_slice_products(self):
        """Stacked rows, stacked columns or both: each slice's products are
        the 2-D call's."""
        rng = np.random.default_rng(30)
        for n in (1, 2, 5, 40):
            rows = rng.integers(0, 2, (2, 3, 2 * n), dtype=np.uint8)
            cols = rng.integers(0, 2, (5, 2 * n), dtype=np.uint8)
            got = gf2.symplectic_products(rows, cols)
            assert got.shape == (2, 3, 5)
            for i in range(2):
                assert np.array_equal(got[i], gf2.symplectic_products(rows[i], cols))
            stacked = rng.integers(0, 2, (2, 4, 2 * n), dtype=np.uint8)
            got = gf2.symplectic_products(rows, stacked)
            assert got.shape == (2, 3, 4)
            for i in range(2):
                assert np.array_equal(got[i], gf2.symplectic_products(rows[i], stacked[i]))
            got = gf2.symplectic_products(cols, stacked)
            assert got.shape == (2, 5, 4)
            for i in range(2):
                assert np.array_equal(got[i], old_symplectic_products(cols, stacked[i]))

    def test_column_mismatch_still_raises(self):
        with pytest.raises(ValueError, match="column counts differ"):
            gf2.symplectic_products(gf2.zeros((2, 3, 4)), gf2.zeros((5, 6)))


class TestRank:
    def test_identity(self):
        assert gf2.rank(gf2.identity(3)) == 3

    def test_zero(self):
        assert gf2.rank(gf2.zeros((3, 4))) == 0

    def test_duplicate_rows(self):
        assert gf2.rank(np.array([[1, 1], [1, 1]], dtype=np.uint8)) == 1


class TestInvert:
    def test_identity(self):
        assert np.array_equal(gf2.invert(gf2.identity(4)), gf2.identity(4))

    def test_upper_triangular_self_inverse(self):
        m = np.array([[1, 1], [0, 1]], dtype=np.uint8)
        assert np.array_equal(gf2.invert(m), m)

    def test_random_inverse_property(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = gf2.random_gl(8, rng)[0]
            minv = gf2.invert(m)
            assert np.array_equal((m @ minv) % 2, gf2.identity(8))
            assert np.array_equal((minv @ m) % 2, gf2.identity(8))

    def test_singular_raises_iff_rank_deficient(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m = rng.integers(0, 2, size=(5, 5), dtype=np.uint8)
            if gf2.rank(m) == 5:
                gf2.invert(m)
            else:
                with pytest.raises(gf2.SingularMatrixError):
                    gf2.invert(m)

    def test_empty(self):
        assert gf2.invert(gf2.zeros((0, 0))).shape == (0, 0)

    @pytest.mark.parametrize("dependent", [0, 2, 4])
    def test_first_dependent_row(self, dependent):
        """Row `dependent` (the first, a middle or the last row) is the
        first one in the span of the rows before it; row 0 is then zero."""
        m = gf2.random_gl(5, np.random.default_rng(11))[0]
        m[dependent] = m[:dependent].sum(axis=0) % 2
        assert gf2.rank(m[: dependent + 1]) == dependent and gf2.rank(m) == 4
        assert gf2._inverse(m) is None
        with pytest.raises(gf2.SingularMatrixError, match="rank 4 < dimension 5"):
            gf2.invert(m)


class TestSolveAffine:
    def test_identity_system(self):
        b = np.array([1, 0, 1], dtype=np.uint8)
        x, ker = gf2.solve_affine(gf2.identity(3), b)
        assert np.array_equal(x, b)
        assert ker.shape[0] == 0

    def test_zero_system(self):
        x, ker = gf2.solve_affine(gf2.zeros((2, 3)), gf2.zeros(2))
        assert not x.any()
        assert ker.shape[0] == 3

    def test_inconsistent(self):
        a = np.array([[1, 1], [1, 1]], dtype=np.uint8)
        with pytest.raises(gf2.InconsistentSystemError):
            gf2.solve_affine(a, np.array([0, 1], dtype=np.uint8))

    def test_solution_coset(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.integers(0, 2, size=(4, 7), dtype=np.uint8)
            x_true = rng.integers(0, 2, size=7, dtype=np.uint8)
            b = (a @ x_true) % 2
            x, ker = gf2.solve_affine(a, b)
            assert np.array_equal((a @ x) % 2, b)
            for row in ker:
                assert not ((a @ row) % 2).any()
            assert ker.shape[0] == 7 - gf2.rank(a)

    def test_kernel_equals_kernel_of_a_bit_for_bit(self):
        """solve_bridges draws coset elements from K, so seeded runs stay
        reproducible only while K is exactly kernel(a)."""
        rng = np.random.default_rng(20)
        shapes = {"wide": 0, "tall": 0, "deficient": 0}
        inconsistent = 0
        for trial in range(1200):
            kind = ("wide", "tall", "deficient")[trial % 3]
            if kind == "wide":
                rows, cols = int(rng.integers(1, 6)), int(rng.integers(6, 12))
                a = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
            elif kind == "tall":
                rows, cols = int(rng.integers(6, 12)), int(rng.integers(1, 6))
                a = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
            else:
                rows, cols = int(rng.integers(3, 10)), int(rng.integers(3, 10))
                inner = int(rng.integers(1, min(rows, cols)))
                left = rng.integers(0, 2, size=(rows, inner), dtype=np.uint8)
                right = rng.integers(0, 2, size=(inner, cols), dtype=np.uint8)
                a = (left @ right % 2).astype(np.uint8)
                assert gf2.rank(a) < min(rows, cols)
            shapes[kind] += 1
            if trial % 2:
                b = (a @ rng.integers(0, 2, size=cols, dtype=np.uint8) % 2).astype(np.uint8)
            else:
                b = rng.integers(0, 2, size=rows, dtype=np.uint8)
            solvable = gf2.rank(np.hstack([a, b.reshape(-1, 1)])) == gf2.rank(a)
            if not solvable:
                inconsistent += 1
                with pytest.raises(gf2.InconsistentSystemError):
                    gf2.solve_affine(a, b)
                continue
            x0, ker = gf2.solve_affine(a, b)
            want = gf2.kernel(a)
            assert ker.dtype == want.dtype and ker.shape == want.shape
            assert np.array_equal(ker, want)
            assert np.array_equal(a @ x0 % 2, b)
            free = [c for c in range(cols) if c not in gf2.rref(a)[1]]
            assert not x0[free].any()
        assert min(shapes.values()) == 400
        assert 100 < inconsistent < 1100


class TestSpanCoefficients:
    def test_matches_per_row_solve(self):
        """1,200 seeded independent bases (one in ten empty), each with
        members, random rows (mostly outside) and a zero row, against one
        solve_affine per row."""
        rng = np.random.default_rng(21)
        seen = {"empty basis": 0, "zero row": 0, "member": 0, "outside": 0}
        for trial in range(1200):
            cols = int(rng.integers(1, 13))
            r = 0 if trial % 10 == 0 else int(rng.integers(0, cols + 1))
            basis = gf2.random_gl(cols, rng)[0][:r]
            members = gf2.random_matrix(3, r, rng) @ basis % 2
            rows = np.vstack([members, gf2.random_matrix(3, cols, rng), gf2.zeros((1, cols))])
            coeffs, inside = gf2.span_coefficients(basis, rows)
            assert coeffs.shape == (len(rows), r) and inside.shape == (len(rows),)
            seen["empty basis"] += r == 0
            for v, c, ok in zip(rows, coeffs, inside):
                try:
                    x0, _ = gf2.solve_affine(basis.T, v)
                except gf2.InconsistentSystemError:
                    assert not ok
                    seen["outside"] += 1
                    continue
                assert ok and np.array_equal(c, x0)
                seen["zero row" if not v.any() else "member"] += 1
        assert min(seen.values()) >= 100

    def test_no_rows(self):
        coeffs, inside = gf2.span_coefficients(gf2.identity(3), gf2.zeros((0, 3)))
        assert coeffs.shape == (0, 3) and inside.shape == (0,)

    def test_dependent_basis_rejected(self):
        with pytest.raises(gf2.NotIndependentError):
            gf2.span_coefficients(np.array([[1, 1], [1, 1]], dtype=np.uint8), gf2.zeros(2))


class TestExtendBasis:
    def test_from_empty(self):
        ext = gf2.extend_basis(gf2.zeros((0, 3)), gf2.identity(3))
        assert np.array_equal(ext, gf2.identity(3))

    def test_full_partial(self):
        ext = gf2.extend_basis(gf2.identity(3), gf2.identity(3))
        assert ext.shape[0] == 0

    def test_sum_vector_partial(self):
        partial = np.array([[1, 1, 0]], dtype=np.uint8)
        space = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.uint8)
        ext = gf2.extend_basis(partial, space)
        assert ext.shape[0] == 1
        assert np.array_equal(ext[0], space[0])  # greedy takes the first row

    def test_rank_property(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            space = rng.integers(0, 2, size=(6, 8), dtype=np.uint8)
            take = gf2.rref(space)[0][: gf2.rank(space) // 2]
            ext = gf2.extend_basis(take, space)
            combined = np.vstack([take, ext]) if take.size else ext
            assert gf2.rank(combined) == gf2.rank(space)
            assert combined.shape[0] == gf2.rank(space)

    def test_not_in_space(self):
        with pytest.raises(gf2.NotInSpaceError):
            gf2.extend_basis(
                np.array([[0, 0, 1]], dtype=np.uint8),
                np.array([[1, 0, 0], [0, 1, 0]], dtype=np.uint8),
            )

    def test_not_independent(self):
        with pytest.raises(gf2.NotIndependentError):
            gf2.extend_basis(
                np.array([[1, 0, 0], [1, 0, 0]], dtype=np.uint8), gf2.identity(3)
            )


def old_extend_basis(partial, space):
    """The greedy loop extend_basis replaced: two rank tests per partial
    row and per row of space."""
    space = np.atleast_2d(gf2.asbits(space))
    cols = space.shape[1]
    partial = gf2.asbits(partial).reshape(-1, cols) if np.asarray(partial).size else gf2.zeros((0, cols))
    if partial.shape[0] != gf2.rank(partial):
        raise gf2.NotIndependentError("partial basis rows are dependent")
    for row in partial:
        if not in_rowspace(space, row):
            raise gf2.NotInSpaceError("partial basis row outside the target row space")
    current = partial
    picked = []
    target = gf2.rank(space)
    for row in space:
        if current.shape[0] == target:
            break
        if not in_rowspace(current, row):
            picked.append(row)
            current = np.vstack([current, row])
    return np.array(picked, dtype=np.uint8).reshape(len(picked), cols)


def extend_basis_outcome(fn, partial, space):
    try:
        return fn(partial, space)
    except (gf2.NotIndependentError, gf2.NotInSpaceError) as exc:
        return type(exc)


def extend_basis_cases(count, rng):
    """(partial, space) pairs: empty corners, then seeded draws with
    duplicate rows in space and dependent or outside partial rows."""
    yield gf2.zeros((0, 4)), gf2.zeros((0, 4))
    yield gf2.zeros((0, 4)), gf2.zeros((3, 4))
    yield gf2.identity(4)[:1], gf2.zeros((0, 4))
    for trial in range(count):
        cols = int(rng.integers(1, 11))
        space = rng.integers(0, 2, size=(int(rng.integers(0, 9)), cols), dtype=np.uint8)
        if space.shape[0] > 1 and trial % 3 == 0:
            space[int(rng.integers(1, space.shape[0]))] = space[0]
        basis = gf2.rref(space)[0][: gf2.rank(space)] if space.shape[0] else gf2.zeros((0, cols))
        take = int(rng.integers(0, basis.shape[0] + 1))
        partial = gf2.random_gl(basis.shape[0], rng)[0][:take] @ basis % 2
        if trial % 5 == 3 and take:
            partial = np.vstack([partial, partial[:1]])
        elif trial % 5 == 4:
            partial = np.vstack([partial, rng.integers(0, 2, size=(1, cols), dtype=np.uint8)])
        yield partial, space


class TestExtendBasisMatchesGreedyLoop:
    def test_seeded_inputs(self):
        outcomes = {"ok": 0, "empty partial": 0, "empty space": 0, gf2.NotIndependentError: 0, gf2.NotInSpaceError: 0}
        for partial, space in extend_basis_cases(1200, np.random.default_rng(808)):
            want = extend_basis_outcome(old_extend_basis, partial, space)
            got = extend_basis_outcome(gf2.extend_basis, partial, space)
            if isinstance(want, np.ndarray):
                assert isinstance(got, np.ndarray) and got.dtype == np.uint8
                assert got.shape == want.shape and np.array_equal(got, want)
                outcomes["ok"] += 1
            else:
                assert got is want
                outcomes[want] += 1
            outcomes["empty partial"] += partial.shape[0] == 0
            outcomes["empty space"] += space.shape[0] == 0
        assert min(outcomes.values()) > 50, outcomes


class TestIntersectRowspaces:
    def test_equal_spaces(self):
        a = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
        inter = gf2.intersect_rowspaces(a, a)
        assert gf2.rank(inter) == 2
        for row in inter:
            assert in_rowspace(a, row)

    def test_disjoint(self):
        a = np.array([[1, 0, 0, 0]], dtype=np.uint8)
        b = np.array([[0, 1, 0, 0]], dtype=np.uint8)
        assert gf2.intersect_rowspaces(a, b).shape[0] == 0

    def test_rank_formula_and_membership(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            a = rng.integers(0, 2, size=(4, 9), dtype=np.uint8)
            b = rng.integers(0, 2, size=(5, 9), dtype=np.uint8)
            inter = gf2.intersect_rowspaces(a, b)
            expected = gf2.rank(a) + gf2.rank(b) - gf2.rank(np.vstack([a, b]))
            assert gf2.rank(inter) == inter.shape[0] == expected
            for row in inter:
                assert in_rowspace(a, row)
                assert in_rowspace(b, row)


class TestRandomGl:
    def test_dim_zero(self):
        m, inv = gf2.random_gl(0, np.random.default_rng(0))
        assert m.shape == inv.shape == (0, 0)

    def test_dim_one(self):
        for seed in range(5):
            for mat in gf2.random_gl(1, np.random.default_rng(seed)):
                assert np.array_equal(mat, np.array([[1]], dtype=np.uint8))

    def test_always_invertible(self):
        rng = np.random.default_rng(7)
        for dim in (2, 3, 5, 8):
            for _ in range(20):
                m, inv = gf2.random_gl(dim, rng)
                assert np.array_equal(inv, gf2.invert(m))

    def test_draws_match_rank_rejection(self):
        """The rng draws are those of plain rejection on rank, so seeded
        searches stay bit for bit."""
        for dim in (0, 1, 2, 3, 6):
            rng, oracle = np.random.default_rng(dim), np.random.default_rng(dim)
            for _ in range(50):
                while True:
                    want = gf2.random_matrix(dim, dim, oracle)
                    if gf2.rank(want) == dim:
                        break
                assert np.array_equal(gf2.random_gl(dim, rng)[0], want)
            assert rng.bit_generator.state == oracle.bit_generator.state

    def test_uniformity_chi_square(self):
        # GL(F2, 2) has 6 elements; chi-square over 60000 draws at the
        # 0.01 level (df = 5, critical value 15.086), plus a 3-sigma
        # per-element frequency window around 1/6.
        rng = np.random.default_rng(8)
        counts: dict[bytes, int] = {}
        n = 60_000
        for _ in range(n):
            counts_key = gf2.random_gl(2, rng)[0].tobytes()
            counts[counts_key] = counts.get(counts_key, 0) + 1
        assert len(counts) == 6
        expected = n / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 15.086
        sigma = (n * (1 / 6) * (5 / 6)) ** 0.5
        for c in counts.values():
            assert abs(c - expected) < 3 * sigma


class TestBatchHelpers:
    def test_batch_invert_matches_single(self):
        rng = np.random.default_rng(9)
        mats = rng.integers(0, 2, size=(64, 4, 4), dtype=np.uint8)
        invs, ok = gf2.batch_invert(mats)
        for m, inv, good in zip(mats, invs, ok):
            assert good == (gf2.rank(m) == 4)
            if good:
                assert np.array_equal(inv, gf2.invert(m))

    def test_random_gl_batch(self):
        mats, invs = gf2.random_gl_batch(5, 200, np.random.default_rng(10))
        assert mats.shape == (200, 5, 5)
        for m, inv in zip(mats[:20], invs[:20]):
            assert np.array_equal((m @ inv) % 2, gf2.identity(5))


def old_eliminate(m):
    """The numpy elimination loop the packed kernel replaced: in place,
    column by column from the left, yielding whether each column got a
    pivot, until the rows run out."""
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r >= rows:
            return
        hit = np.nonzero(m[r:, c])[0]
        if hit.size == 0:
            yield False
            continue
        p = r + int(hit[0])
        if p != r:
            m[[r, p]] = m[[p, r]]
        elim = np.nonzero(m[:, c])[0]
        for i in elim:
            if i != r:
                m[i] ^= m[r]
        r += 1
        yield True


def old_rref(m):
    m = gf2.asbits(np.atleast_2d(m))
    return m, [c for c, hit in enumerate(old_eliminate(m)) if hit]


def old_inverse(m):
    d = m.shape[0]
    aug = np.hstack([m, gf2.identity(d)])
    return aug[:, d:].copy() if all(itertools.islice(old_eliminate(aug), d)) else None


def old_span_coefficients(basis, rows):
    """Two eliminations: the pivots of basis, then the inverse of its
    pivot columns."""
    basis = np.atleast_2d(gf2.asbits(basis))
    rows = np.atleast_2d(gf2.asbits(rows))
    pivots = old_rref(basis)[1]
    if len(pivots) != basis.shape[0]:
        raise gf2.NotIndependentError("basis rows are dependent")
    coeffs = rows[:, pivots] @ gf2.invert(basis[:, pivots]) % 2
    return coeffs, (coeffs @ basis % 2 == rows).all(axis=1)


def old_greedy_rows(m, rank=None):
    """The rows the transposed elimination picks: a column of rref(m^T)
    gets a pivot iff it is independent of the columns to its left."""
    return old_rref(np.atleast_2d(gf2.asbits(m)).T)[1][:rank]


@contextlib.contextmanager
def old_kernel():
    """gf2 as it was before the packed kernel: the numpy loop under rref,
    rank, greedy_rows, _inverse and span_coefficients, so every routine
    built on them (kernel, solve_affine, invert, extend_basis,
    intersect_rowspaces, random_gl) runs the old elimination.  Reaching
    the packed engine fails."""

    def unreachable(*args):
        raise AssertionError("packed engine reached under the old-kernel oracle")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf2, "_insert", unreachable)
        mp.setattr(gf2, "rref", old_rref)
        mp.setattr(gf2, "rank", lambda m: len(old_rref(m)[1]))
        mp.setattr(gf2, "greedy_rows", old_greedy_rows)
        mp.setattr(gf2, "_inverse", old_inverse)
        mp.setattr(gf2, "span_coefficients", old_span_coefficients)
        yield


def outcome(fn, *args):
    """fn(*args), or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def raised(result, exc) -> bool:
    return isinstance(result, tuple) and result[0] is exc


def assert_same(got, want, what):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), what
        assert got.dtype == want.dtype and got.shape == want.shape, what
        assert np.array_equal(got, want), what
    elif isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want), what
        for g, w in zip(got, want):
            assert_same(g, w, what)
    else:
        assert type(got) is type(want) and got == want, what


BYTE_EDGES = (7, 8, 9, 15, 16, 17, 63, 64, 65)
DENSITIES = (0.03, 0.15, 0.5, 0.85, 0.97)


def oracle_cases(count, rng):
    """Seeded 0/1 matrices, 0-40 rows by 0-70 columns, sparse to dense:
    the empty shapes first, then every fourth one square (half of those
    rank-deficient, half invertible), every fifth one at a byte-edge
    column count."""
    yield from (gf2.zeros(shape) for shape in ((0, 0), (0, 9), (5, 0), (1, 1)))
    for trial in range(count):
        rows, cols = int(rng.integers(0, 41)), int(rng.integers(0, 71))
        if trial % 5 == 1:
            cols = BYTE_EDGES[trial // 5 % len(BYTE_EDGES)]
        density = DENSITIES[trial % len(DENSITIES)]
        if trial % 4 == 0:
            cols = rows = min(rows, 24)
        m = (rng.random((rows, cols)) < density).astype(np.uint8)
        if trial % 8 == 0 and rows > 1:
            inner = int(rng.integers(0, rows))
            m = gf2.matmul(m[:, :inner], rng.integers(0, 2, size=(inner, cols), dtype=np.uint8))
        elif trial % 8 == 4:
            m = gf2.random_gl(rows, rng)[0]
        yield m


def oracle_inputs(m, rng):
    """The other operands: right-hand sides inside and (mostly) outside
    the column space, rows inside and outside the row space, a partial
    basis (with a random row appended half the time) and a second space."""
    rows, cols = m.shape
    basis = gf2.rref(m)[0][: gf2.rank(m)]
    partial = gf2.matmul(rng.integers(0, 2, size=(len(basis) // 2, len(basis)), dtype=np.uint8), basis)
    if rng.integers(0, 2):
        partial = np.vstack([partial, rng.integers(0, 2, size=(1, cols), dtype=np.uint8)])
    return {
        "basis": basis,
        "b_member": gf2.matmul(m, rng.integers(0, 2, size=(cols, 1), dtype=np.uint8)).reshape(-1),
        "b_random": rng.integers(0, 2, size=rows, dtype=np.uint8),
        "probe": np.vstack([gf2.matmul(rng.integers(0, 2, size=(4, rows), dtype=np.uint8), m),
                            rng.integers(0, 2, size=(4, cols), dtype=np.uint8), gf2.zeros((1, cols))]),
        "partial": partial,
        "other": (rng.random((int(rng.integers(0, 12)), cols)) < 0.5).astype(np.uint8),
    }


def gf2_results(m, inputs):
    """Every elimination-backed routine on m and the drawn operands."""
    return {
        "rref": gf2.rref(m),
        "rank": gf2.rank(m),
        "kernel": gf2.kernel(m),
        "invert": outcome(gf2.invert, m),
        "_inverse": gf2._inverse(m) if m.shape[0] == m.shape[1] else None,
        "solve_affine member": outcome(gf2.solve_affine, m, inputs["b_member"]),
        "solve_affine random": outcome(gf2.solve_affine, m, inputs["b_random"]),
        "span_coefficients rows": outcome(gf2.span_coefficients, m, inputs["probe"]),
        "span_coefficients basis": outcome(gf2.span_coefficients, inputs["basis"], inputs["probe"]),
        "span_coefficients no basis": outcome(gf2.span_coefficients, gf2.zeros((0, m.shape[1])), inputs["probe"]),
        "extend_basis": outcome(gf2.extend_basis, inputs["partial"], m),
        "intersect_rowspaces": gf2.intersect_rowspaces(m, inputs["other"]),
    }


class TestPackedKernelMatchesNumpyLoop:
    def test_seeded_matrices(self):
        """2,004 seeded matrices: every routine built on the elimination
        gives the old kernel's bits, and raises where it raised."""
        seen = {"singular": 0, "invertible": 0, "inconsistent": 0, "dependent basis": 0,
                "not independent": 0, "not in space": 0, "empty": 0, "byte edge": 0}
        rng = np.random.default_rng(909)
        for i, m in enumerate(oracle_cases(2000, rng)):
            inputs = oracle_inputs(m, rng)
            new = gf2_results(m, inputs)
            with old_kernel():
                old = gf2_results(m, inputs)
            for name, want in old.items():
                assert_same(new[name], want, f"{name} on case {i}, shape {m.shape}")
            if m.shape[0] == m.shape[1]:
                seen["singular" if old["_inverse"] is None else "invertible"] += 1
            seen["inconsistent"] += raised(old["solve_affine random"], gf2.InconsistentSystemError)
            seen["dependent basis"] += raised(old["span_coefficients rows"], gf2.NotIndependentError)
            seen["not independent"] += raised(old["extend_basis"], gf2.NotIndependentError)
            seen["not in space"] += raised(old["extend_basis"], gf2.NotInSpaceError)
            seen["empty"] += 0 in m.shape
            seen["byte edge"] += m.shape[1] in BYTE_EDGES
        assert min(seen.values()) >= 50, seen

    def test_random_gl_draws_inverses_and_state(self):
        for dim in range(9):
            new_rng, old_rng = np.random.default_rng(dim), np.random.default_rng(dim)
            new = [gf2.random_gl(dim, new_rng) for _ in range(60)]
            with old_kernel():
                old = [gf2.random_gl(dim, old_rng) for _ in range(60)]
            assert_same(new, old, f"random_gl at dim {dim}")
            assert new_rng.bit_generator.state == old_rng.bit_generator.state
