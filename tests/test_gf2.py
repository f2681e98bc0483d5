import numpy as np
import pytest

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
            m = gf2.random_gl(8, rng)
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


class TestCommutingRows:
    def test_matches_per_row_products(self):
        rng = np.random.default_rng(21)
        for rows in (0, 1, 3, 6):
            ops = rng.integers(0, 2, size=(rows, 8), dtype=np.uint8)
            errs = rng.integers(0, 2, size=(40, 8), dtype=np.uint8)
            want = [e for e in errs if all(gf2.symplectic_product(g, e) == 0 for g in ops)]
            got = gf2.commuting_rows(ops, errs)
            assert got.shape == (len(want), 8)
            assert np.array_equal(got, np.array(want, dtype=np.uint8).reshape(-1, 8))

    def test_empty_error_list(self):
        assert gf2.commuting_rows(gf2.identity(4), gf2.zeros((0, 4))).shape == (0, 4)


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


class TestIntersectRowspaces:
    def test_equal_spaces(self):
        a = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
        inter = gf2.intersect_rowspaces(a, a)
        assert gf2.rank(inter) == 2
        for row in inter:
            assert gf2.in_rowspace(a, row)

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
                assert gf2.in_rowspace(a, row)
                assert gf2.in_rowspace(b, row)


class TestRandomGl:
    def test_dim_zero(self):
        assert gf2.random_gl(0, np.random.default_rng(0)).shape == (0, 0)

    def test_dim_one(self):
        for seed in range(5):
            assert np.array_equal(
                gf2.random_gl(1, np.random.default_rng(seed)), np.array([[1]], dtype=np.uint8)
            )

    def test_always_invertible(self):
        rng = np.random.default_rng(7)
        for dim in (2, 3, 5, 8):
            for _ in range(20):
                gf2.invert(gf2.random_gl(dim, rng))

    def test_uniformity_chi_square(self):
        # GL(F2, 2) has 6 elements; chi-square over 60000 draws at the
        # 0.01 level (df = 5, critical value 15.086), plus a 3-sigma
        # per-element frequency window around 1/6.
        rng = np.random.default_rng(8)
        counts: dict[bytes, int] = {}
        n = 60_000
        for _ in range(n):
            counts_key = gf2.random_gl(2, rng).tobytes()
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
