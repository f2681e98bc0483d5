import hashlib
import itertools

import numpy as np
import pytest

from conftest import dense_matrix, in_rowspace
from stabswitch import analysis, gf2, pauli, rewiring
from stabswitch.pauli import PauliOp, StabilizerCode


class TestPauliOp:
    def test_string_round_trip(self):
        for s in ("XIZY", "-YXXYIZZ", "IIIII", "-Z"):
            op = PauliOp.from_string(s)
            assert op.to_string() == s.lstrip("+")

    def test_unicode_minus_and_plus(self):
        assert PauliOp.from_string("−XZ") == PauliOp.from_string("-XZ")
        assert PauliOp.from_string("+XZ") == PauliOp.from_string("XZ")

    def test_bad_character(self):
        with pytest.raises(pauli.BadCharacterError):
            PauliOp.from_string("XQZ")

    def test_weight_and_support(self):
        op = PauliOp.from_string("-IXYZI")
        assert op.weight == 3
        assert op.support == (1, 2, 3)

    def test_identity(self):
        ident = PauliOp.identity(4)
        assert ident.weight == 0
        assert ident.sign == +1


class TestMultiply:
    def test_x_squared(self):
        x = PauliOp.from_string("X")
        assert x * x == PauliOp.identity(1)

    def test_hermitian_square_is_identity(self):
        op = PauliOp.from_string("-YXXYIZZ")
        assert op * op == PauliOp.identity(7)

    def test_anticommuting_product_raises(self):
        with pytest.raises(pauli.NonHermitianProductError):
            PauliOp.from_string("X") * PauliOp.from_string("Z")

    def test_table_rows_against_dense_oracle(self):
        p = PauliOp.from_string("ZZZZIII")
        q = PauliOp.from_string("-YYXXZZI")
        r = p * q
        assert np.array_equal(r.vector, p.vector ^ q.vector)
        assert np.allclose(dense_matrix(r), dense_matrix(p) @ dense_matrix(q))

    def test_random_products_against_dense_oracle(self):
        rng = np.random.default_rng(11)
        done = 0
        while done < 60:
            n = int(rng.integers(1, 5))
            p = PauliOp(
                rng.integers(0, 2, n, dtype=np.uint8),
                rng.integers(0, 2, n, dtype=np.uint8),
                -1 if rng.integers(0, 2) else +1,
            )
            q = PauliOp(
                rng.integers(0, 2, n, dtype=np.uint8),
                rng.integers(0, 2, n, dtype=np.uint8),
                -1 if rng.integers(0, 2) else +1,
            )
            if not p.commutes(q):
                continue
            r = p * q
            assert np.allclose(dense_matrix(r), dense_matrix(p) @ dense_matrix(q))
            done += 1


def mul_chain(ops, selection, n):
    """Each selected product by the PauliOp.__mul__ chain, or None where a
    partial product anticommutes with the next factor."""
    out = []
    for row in selection:
        try:
            out.append(pauli.product([op for op, bit in zip(ops, row) if bit], n=n))
        except pauli.NonHermitianProductError:
            out.append(None)
    return out


def signed_rows(ops, n):
    """(x, z, r) rows of signed Paulis, with zero rows allowed."""
    vecs = np.array([op.vector for op in ops], dtype=np.uint8).reshape(len(ops), 2 * n)
    return vecs[:, :n], vecs[:, n:], np.array([op.sign < 0 for op in ops], dtype=np.uint8)


class TestSignedProducts:
    def test_matches_mul_chain_over_random_selections(self):
        """Commuting signed rows (random code generators plus signed
        products of them) under random selections, including none, every
        row and zero generators."""
        rng = np.random.default_rng(1206)
        seen = {"selections": 0, "empty_selection": 0, "full_selection": 0, "no_rows": 0, "no_products": 0,
                "both_factors_negative": 0}
        for trial in range(300):
            n = int(rng.integers(1, 9))
            code = pauli.random_stabilizer_code(n, int(rng.integers(0, n + 1)), rng)
            ops = list(code.gens)
            for _ in range(int(rng.integers(0, 3)) if ops else 0):
                coeff = rng.integers(0, 2, len(code.gens))
                op = pauli.product([g for g, c in zip(code.gens, coeff) if c], n=n)
                ops.insert(int(rng.integers(0, len(ops) + 1)), PauliOp(op.x, op.z, int(rng.choice([1, -1]))))
            count = 0 if trial % 25 == 0 else int(rng.integers(1, 9))
            selection = rng.integers(0, 2, (count, len(ops)), dtype=np.uint8)
            if count:
                selection[0] = 0
                selection[-1] = 1
            x, z, power = pauli.signed_products(*signed_rows(ops, n), selection)
            assert x.shape == z.shape == (count, n) and power.shape == (count,)
            for row, want, xi, zi, p in zip(selection, mul_chain(ops, selection, n), x, z, power):
                assert PauliOp(xi, zi, 1 - int(p)) == want
                picked = [op for op, bit in zip(ops, row) if bit]
                seen["both_factors_negative"] += sum(a.sign < 0 and b.sign < 0 for a, b in zip(picked, picked[1:]))
                seen["empty_selection"] += not row.any()
                seen["full_selection"] += bool(ops) and row.all()
            seen["selections"] += count
            seen["no_rows"] += not ops
            seen["no_products"] += not count
        assert seen["selections"] >= 1000
        assert min(seen.values()) > 0, seen

    def test_anticommuting_rows_against_dense_oracle(self):
        """Arbitrary signed rows: the power of i is the one the dense
        matrix product carries, odd exactly when the product is not
        Hermitian."""
        rng = np.random.default_rng(1207)
        odd = 0
        for _ in range(150):
            n, m = int(rng.integers(1, 4)), int(rng.integers(0, 6))
            ops = [
                PauliOp(rng.integers(0, 2, n), rng.integers(0, 2, n), int(rng.choice([1, -1]))) for _ in range(m)
            ]
            selection = rng.integers(0, 2, (4, m), dtype=np.uint8)
            x, z, power = pauli.signed_products(*signed_rows(ops, n), selection)
            for row, xi, zi, p in zip(selection, x, z, power):
                want = np.eye(2**n, dtype=complex)
                for op, bit in zip(ops, row):
                    if bit:
                        want = want @ dense_matrix(op)
                assert np.allclose(want, 1j ** int(p) * dense_matrix(PauliOp(xi, zi)))
                odd += int(p) % 2
        assert odd > 0

    def test_phase_exponent_broadcasts(self):
        rng = np.random.default_rng(1209)
        a, b = rng.integers(0, 2, (2, 5, 7, 2, 4))
        got = pauli.phase_exponent(a[..., 0, :], a[..., 1, :], b[..., 0, :], b[..., 1, :])
        assert got.shape == (5, 7)
        for i in range(5):
            for j in range(7):
                p, q = PauliOp(a[i, j, 0], a[i, j, 1]), PauliOp(b[i, j, 0], b[i, j, 1])
                prod = PauliOp(p.x ^ q.x, p.z ^ q.z)
                assert np.allclose(dense_matrix(p) @ dense_matrix(q), 1j ** int(got[i, j]) * dense_matrix(prod))


def old_phase_exponent(x1, z1, x2, z2):
    """The per-qubit arithmetic the 16-entry table replaced."""
    x1, z1, x2, z2 = (np.asarray(a, dtype=np.int8) for a in (x1, z1, x2, z2))
    g = x1 * z1 * (z2 - x2) + x1 * (1 - z1) * z2 * (2 * x2 - 1) + z1 * (1 - x1) * x2 * (1 - 2 * z2)
    return g.sum(axis=-1, dtype=np.int64) % 4


class TestPhaseTable:
    def test_all_letter_pairs(self):
        """Every one of the 16 single-qubit letter pairs, against the old
        arithmetic and the dense product."""
        for x1, z1, x2, z2 in itertools.product((0, 1), repeat=4):
            got = pauli.phase_exponent([x1], [z1], [x2], [z2])
            assert got == old_phase_exponent([x1], [z1], [x2], [z2])
            p, q = PauliOp([x1], [z1]), PauliOp([x2], [z2])
            prod = PauliOp(p.x ^ q.x, p.z ^ q.z)
            assert np.allclose(dense_matrix(p) @ dense_matrix(q), 1j ** int(got) * dense_matrix(prod))

    def test_broadcast_shapes_match_old_arithmetic(self):
        rng = np.random.default_rng(1210)
        shapes = [((6,), (6,)), ((3, 6), (6,)), ((6,), (4, 6)), ((2, 1, 6), (5, 6)), ((0, 6), (6,)), ((3, 0), (0,))]
        for left, right in shapes:
            for dtype in (np.uint8, bool, np.int64):
                a = rng.integers(0, 2, (2, *left)).astype(dtype)
                b = rng.integers(0, 2, (2, *right)).astype(dtype)
                got = pauli.phase_exponent(a[0], a[1], b[0], b[1])
                want = old_phase_exponent(a[0], a[1], b[0], b[1])
                assert got.shape == want.shape and got.dtype == want.dtype and np.array_equal(got, want)


def old_logical_basis(code):
    """The greedy loop logical_basis replaced: each kernel row is kept iff
    it raises the rank of the generators and the rows kept so far."""
    g = code.generator_matrix
    kept = g
    for row in gf2.kernel(gf2.swap_xz(g)):
        if gf2.rank(np.vstack([kept, row])) > len(kept):
            kept = np.vstack([kept, row])
    return kept[len(g) :]


class TestLogicalBasisMatchesExtendBasis:
    def test_random_codes(self):
        rng = np.random.default_rng(1211)
        seen = set()
        for trial in range(3000):
            n = 1 + trial % 14
            code = pauli.random_stabilizer_code(n, int(rng.integers(0, n + 1)), rng)
            got, want = code.logical_basis, old_logical_basis(code)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not got.flags.writeable
            seen.add((n, code.k))
        assert {k for n, k in seen if n == 14} == set(range(15))

    def test_catalog_and_padded_pairs(self, steane7, perfect5, shor9):
        codes = [steane7, perfect5, shor9, StabilizerCode(1, ())]
        for a, b in itertools.permutations([steane7, perfect5, shor9], 2):
            for m in range(3):
                codes += rewiring.pad(a, b, m)
        for code in codes:
            fresh = StabilizerCode(code.n, code.gens)  # nothing cached
            assert np.array_equal(fresh.logical_basis, old_logical_basis(fresh))


class TestStabilizerCode:
    def test_validation_rejects_anticommuting(self):
        with pytest.raises(pauli.AnticommutingGeneratorsError):
            StabilizerCode.from_strings(["XI", "ZI"])

    def test_validation_rejects_dependent(self):
        with pytest.raises(pauli.DependentGeneratorsError):
            StabilizerCode.from_strings(["ZZ", "ZZ"])

    def test_k_zero_allowed(self):
        code = StabilizerCode.from_strings(["ZZ", "XX"])
        assert (code.n, code.k) == (2, 0)

    def test_k_inference(self, steane7):
        assert (steane7.n, steane7.k) == (7, 1)


class TestSyndrome:
    def test_identity_error(self, steane7):
        assert not pauli.syndrome(steane7, PauliOp.identity(7)).any()

    def test_generators_have_zero_syndrome(self, steane7):
        for g in steane7.gens:
            assert not pauli.syndrome(steane7, g).any()

    def test_single_x_flags_z_checks_with_that_qubit(self, steane7):
        # a single X error flags exactly the Z-type generators whose
        # support contains that qubit (direct commutation enumeration)
        for q in range(7):
            err = PauliOp(
                np.eye(7, dtype=np.uint8)[q], gf2.zeros(7)
            )
            syn = pauli.syndrome(steane7, err)
            for i, g in enumerate(steane7.gens):
                expect = int(g.z[q])  # anticommutes iff the generator has Z/Y there
                assert syn[i] == expect

    def test_linearity(self, perfect5):
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = PauliOp(rng.integers(0, 2, 5, dtype=np.uint8), rng.integers(0, 2, 5, dtype=np.uint8))
            q = PauliOp(rng.integers(0, 2, 5, dtype=np.uint8), rng.integers(0, 2, 5, dtype=np.uint8))
            if not p.commutes(q):
                continue
            lhs = pauli.syndrome(perfect5, p * q)
            rhs = pauli.syndrome(perfect5, p) ^ pauli.syndrome(perfect5, q)
            assert np.array_equal(lhs, rhs)

    def test_basis_change_acts_on_syndromes(self, steane7):
        # replacing the generator list G by A.G maps syndromes by A
        rng = np.random.default_rng(13)
        a = gf2.random_gl(6, rng)[0]
        new_gens = []
        for row in a:
            factors = [steane7.gens[j] for j in np.nonzero(row)[0]]
            new_gens.append(pauli.product(factors, n=7))
        recoded = StabilizerCode(7, tuple(new_gens))
        for _ in range(20):
            e = PauliOp(rng.integers(0, 2, 7, dtype=np.uint8), rng.integers(0, 2, 7, dtype=np.uint8))
            lhs = pauli.syndrome(recoded, e)
            rhs = (a @ pauli.syndrome(steane7, e)) % 2
            assert np.array_equal(lhs, rhs)


class TestInGroup:
    def test_generator(self, steane7):
        member = pauli.in_group(steane7, steane7.gens[0])
        assert member.in_group and member.sign_match

    def test_identity(self, steane7):
        member = pauli.in_group(steane7, PauliOp.identity(7))
        assert member.in_group and member.sign_match

    def test_low_weight_logical_is_outside(self, perfect5):
        witness = analysis.code_distance(perfect5, cap=3).witness
        assert witness.weight == 3
        assert not pauli.in_group(perfect5, witness).in_group

    def test_sign_mismatch_reported(self, steane7):
        g = steane7.gens[0]
        flipped = PauliOp(g.x, g.z, -g.sign)
        member = pauli.in_group(steane7, flipped)
        assert member.in_group and not member.sign_match


def same_group_oracle(a, b):
    """Generator-by-generator signed membership, one solve per generator:
    the check same_group batches."""
    if a.n != b.n or len(a.gens) != len(b.gens):
        return False
    for g in b.gens:
        try:
            coeff, _ = gf2.solve_affine(a.generator_matrix.T, g.vector)
        except gf2.InconsistentSystemError:
            return False
        if pauli.product((a.gens[i] for i in np.nonzero(coeff)[0]), n=a.n).sign != g.sign:
            return False
    return True


class TestSameGroup:
    def test_matches_per_generator_oracle(self):
        rng = np.random.default_rng(11)
        verdicts = set()
        for trial in range(150):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(0, n + 1))
            code = pauli.random_stabilizer_code(n, k, rng)
            r = len(code.gens)
            # a signed re-presentation of the same group, then variants
            mix = gf2.random_gl(r, rng)[0]
            same = StabilizerCode(n, tuple(pauli.product((code.gens[i] for i in np.nonzero(row)[0]), n=n) for row in mix))
            others = [same, pauli.random_stabilizer_code(n, k, rng)]
            if r:
                j = int(rng.integers(0, r))
                flipped = PauliOp(same.gens[j].x, same.gens[j].z, -same.gens[j].sign)
                others.append(StabilizerCode(n, same.gens[:j] + (flipped,) + same.gens[j + 1 :]))
            for other in others:
                want = same_group_oracle(code, other)
                assert code.same_group(other) == want
                verdicts.add(want)
        assert verdicts == {True, False}


class TestNormalizer:
    def test_single_qubit_empty_code(self):
        code = StabilizerCode(1, ())
        basis = pauli.normalizer_basis(code)
        assert len(basis) == 2
        strings = {op.to_string() for op in basis}
        assert strings == {"X", "Z"}

    def test_dimension(self, perfect5, steane7):
        assert len(pauli.normalizer_basis(perfect5)) == 6
        assert len(pauli.normalizer_basis(steane7)) == 8

    def test_steane_transversal_logicals_in_kernel(self, steane7):
        basis = np.array([op.vector for op in pauli.normalizer_basis(steane7)], dtype=np.uint8)
        for s in ("XXXXXXX", "ZZZZZZZ"):
            assert in_rowspace(basis, PauliOp.from_string(s).vector)

    def test_contains_generator_span(self, perfect5):
        basis = np.array([op.vector for op in pauli.normalizer_basis(perfect5)], dtype=np.uint8)
        for g in perfect5.gens:
            assert in_rowspace(basis, g.vector)


class TestCodeFormat:
    def test_parse_two_qubit(self):
        code = pauli.parse_code("+ZZ\n+XX\n")
        assert (code.n, code.k) == (2, 0)

    def test_parse_comments_and_signs(self):
        text = "# a comment\n-YXXYIZZ\nZZZZIII\n"
        code = pauli.parse_code(text)
        assert code.n == 7
        assert code.gens[0].sign == -1

    def test_parse_rejects_anticommuting(self):
        with pytest.raises(pauli.AnticommutingGeneratorsError):
            pauli.parse_code("+XI\n+ZI")

    def test_round_trip(self, steane7, perfect5, shor9):
        for code in (steane7, perfect5, shor9):
            assert pauli.parse_code(pauli.format_code(code)) == code

    def test_round_trip_with_signs(self):
        code = StabilizerCode.from_strings(["-YXXYIZZ", "ZZZZIII", "-YYXXZZI"])
        assert pauli.parse_code(pauli.format_code(code)) == code

    def test_json_variant(self, steane7):
        doc = pauli.code_to_json(steane7)
        assert doc["n"] == 7 and doc["k"] == 1
        assert pauli.code_from_json(doc) == steane7
        with pytest.raises(pauli.WrongLengthError):
            pauli.code_from_json({"n": 9, "generators": ["ZZ"]})

    @pytest.mark.parametrize("key,value", [("k", True), ("k", 1.0), ("n", 7.0), ("n", True), ("n", "7")])
    def test_json_sizes_must_be_integers(self, steane7, key, value):
        doc = pauli.code_to_json(steane7)
        doc[key] = value
        with pytest.raises(pauli.CodeFormatError, match=f"declared {key}={value!r}"):
            pauli.code_from_json(doc)

    def test_wrong_length(self):
        with pytest.raises(pauli.WrongLengthError):
            pauli.parse_code("XX\nXXX")


def old_random_stabilizer_code(n, k, rng, random_signs=True):
    """The sampler random_stabilizer_code replaced: one two-rank test per
    candidate generator, same rng calls."""
    rows = []
    while len(rows) < n - k:
        mat = np.array(rows, dtype=np.uint8).reshape(len(rows), 2 * n)
        space = gf2.kernel(gf2.swap_xz(mat))
        while True:
            coeff = rng.integers(0, 2, size=space.shape[0], dtype=np.uint8)
            v = (coeff @ space) % 2
            if v.any() and not in_rowspace(mat, v):
                rows.append(v.astype(np.uint8))
                break
    gens = tuple(
        PauliOp.from_vector(v, sign=-1 if (random_signs and rng.integers(0, 2)) else +1)
        for v in rows
    )
    return StabilizerCode(n, gens)


class TestRandomStabilizerCode:
    def test_matches_per_candidate_loop(self):
        cases = np.random.default_rng(41)
        for _ in range(240):
            n = int(cases.integers(1, 9))
            k = int(cases.integers(0, n + 1))
            seed = int(cases.integers(0, 2**32))
            signs = bool(cases.integers(0, 2))
            new_rng = np.random.default_rng(seed)
            old_rng = np.random.default_rng(seed)
            got = pauli.random_stabilizer_code(n, k, new_rng, random_signs=signs)
            want = old_random_stabilizer_code(n, k, old_rng, random_signs=signs)
            assert got == want
            assert new_rng.bit_generator.state == old_rng.bit_generator.state


    def test_valid_codes(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            code = pauli.random_stabilizer_code(6, 1, rng)
            assert (code.n, code.k) == (6, 1)  # construction already validates

    def test_pinned_draws(self):
        # many oracle tests draw their inputs here, so a changed draw must show
        rng = np.random.default_rng(1618)
        h = hashlib.sha256()
        for n in range(1, 13):
            for k in range(n + 1):
                h.update(pauli.format_code(pauli.random_stabilizer_code(n, k, rng)).encode())
        assert h.hexdigest() == "aaf87fb70737c68261b1b535bd61d4f3afb2f5db3cacc43e5fb9443781f07b13"

    def test_deterministic_given_seed(self):
        a = pauli.random_stabilizer_code(5, 1, np.random.default_rng(99))
        b = pauli.random_stabilizer_code(5, 1, np.random.default_rng(99))
        assert a == b
