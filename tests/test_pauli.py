import numpy as np
import pytest

from conftest import dense_matrix
from stabswitch import analysis, gf2, pauli
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
        a = gf2.random_gl(6, rng)
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
    """Generator-by-generator signed membership, the check same_group batches."""
    if a.n != b.n or len(a.gens) != len(b.gens):
        return False
    return all(m.in_group and m.sign_match for m in (pauli.in_group(a, g) for g in b.gens))


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
            mix = gf2.random_gl(r, rng)
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
            assert gf2.in_rowspace(basis, PauliOp.from_string(s).vector)

    def test_contains_generator_span(self, perfect5):
        basis = np.array([op.vector for op in pauli.normalizer_basis(perfect5)], dtype=np.uint8)
        for g in perfect5.gens:
            assert gf2.in_rowspace(basis, g.vector)


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

    def test_wrong_length(self):
        with pytest.raises(pauli.WrongLengthError):
            pauli.parse_code("XX\nXXX")


class TestRandomStabilizerCode:
    def test_valid_codes(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            code = pauli.random_stabilizer_code(6, 1, rng)
            assert (code.n, code.k) == (6, 1)  # construction already validates

    def test_deterministic_given_seed(self):
        a = pauli.random_stabilizer_code(5, 1, np.random.default_rng(99))
        b = pauli.random_stabilizer_code(5, 1, np.random.default_rng(99))
        assert a == b
