import math
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    in_rowspace,
    naive_distance,
    old_code_distance,
    old_error_vectors,
    old_step_subsystem_distance,
    old_verify_path,
)
from stabswitch import analysis, catalog, gf2, pauli, rewiring
from stabswitch.analysis import ErrorClass
from stabswitch.pauli import PauliOp, StabilizerCode


class TestCodeDistance:
    def test_bare_qubit(self):
        code = StabilizerCode(1, ())
        rep = analysis.code_distance(code, cap=3)
        assert rep.distance == 1 and rep.exact
        assert rep.witness == PauliOp.from_string("X")  # X < Y < Z enumeration order

    def test_catalog_distances(self, perfect5, steane7, shor9):
        for code in (perfect5, steane7, shor9):
            rep = analysis.code_distance(code, cap=3)
            assert rep.exact and rep.distance == 3
            assert rep.witness.weight == 3
            assert not pauli.syndrome(code, rep.witness).any()
            assert not pauli.in_group(code, rep.witness).in_group

    def test_cap_reached_reports_lower_bound(self, perfect5):
        rep = analysis.code_distance(perfect5, cap=2)
        assert not rep.exact and rep.distance == 3 and rep.witness is None

    def test_k_zero_rejected(self):
        code = StabilizerCode.from_strings(["ZZ", "XX"])
        with pytest.raises(analysis.ZeroLogicalQubitsError):
            analysis.code_distance(code, cap=2)

    def test_cap_below_one_rejected(self, steane7):
        with pytest.raises(ValueError, match="cap"):
            analysis.code_distance(steane7, cap=0)

    def test_agrees_with_naive_oracle(self, perfect5, steane7):
        rng = np.random.default_rng(17)
        codes = [perfect5, steane7]
        codes += [pauli.random_stabilizer_code(6, 1, rng) for _ in range(5)]
        codes += [pauli.random_stabilizer_code(4, 2, rng) for _ in range(3)]
        for code in codes:
            rep = analysis.code_distance(code, cap=code.n)
            assert rep.exact
            assert rep.distance == naive_distance(code)


class TestVerifyPath:
    def test_empty_path(self, steane7):
        path = rewiring.build_path(rewiring.decompose(steane7, steane7))
        assert analysis.verify_path(path, 3).ok

    def test_table_fixtures_pass(self, table_paths):
        for name in ("table1", "table2", "table3"):
            assert analysis.verify_path(table_paths[name], 3).ok

    def test_failure_reports_index_and_witness(self, losing_path):
        assert len(losing_path.intermediates) == 3
        report = analysis.verify_path(losing_path, 3)
        assert not report.ok
        assert report.failing_index == 1
        assert report.witness.to_string() == "IIIIIIZ"
        assert not analysis.detectable(losing_path.intermediates[1], report.witness)

    def test_d1_always_passes(self, table_paths):
        assert analysis.verify_path(table_paths["table2"], 1).ok

    def test_equivalence_with_detectability(self, table_paths):
        # pass at d=3 is the same statement as weight<=2 detectability
        path = table_paths["table1"]
        for code in path.intermediates:
            for v in analysis.error_vectors(path.n, 2):
                assert analysis.detectable(code, PauliOp.from_vector(v))


def random_walk(code, slots, rng):
    """Rows, exchanges and reached codes of a walk from code that exchanges
    the given generator slots in turn, each incoming row drawn at random
    among those anticommuting with that slot's generator and no other."""
    g = code.generator_matrix
    rows, live, exchanges, codes = list(g), list(range(len(g))), [], [code]
    for slot in slots:
        rhs = (np.arange(len(g)) == slot).astype(np.uint8)
        x0, ker = gf2.solve_affine(gf2.swap_xz(np.array([rows[s] for s in live])), rhs)
        exchanges.append((int(slot), len(rows)))
        live[slot] = len(rows)
        rows.append(((x0 + rng.integers(0, 2, len(ker)) @ ker) % 2).astype(np.uint8))
        codes.append(StabilizerCode(code.n, tuple(PauliOp.from_vector(rows[s]) for s in live)))
    return np.array(rows), exchanges, codes


def walk_rows(path):
    """The rows path_walk stacks: path.start's generators, then one
    measured operator per step."""
    return np.vstack([path.start.generator_matrix, *(s.measure.vector for s in path.steps)])


class TestExchangeWalk:
    """exchange_walk's masks against analysis.undetectable on every code
    the walk reaches."""

    def test_zero_exchanges_is_the_membership_test(self, steane7, perfect5, losing_path):
        rng = np.random.default_rng(4)
        codes = [steane7, perfect5, losing_path.intermediates[1], StabilizerCode(1, ())]
        codes += [pauli.random_stabilizer_code(6, k, rng) for k in (1, 2, 3)]
        for code in codes:
            g, w = code.generator_matrix, min(3, code.n)
            errs, letters = analysis.error_vectors(code.n, w), analysis._error_letters(code.n, w)
            masks = list(analysis.exchange_walk(g, range(len(g)), [], code.logical_basis, letters))
            assert len(masks) == 1
            assert np.array_equal(masks[0], analysis.undetectable(code, errs))

    def test_random_exchange_sequences(self):
        """Random walks that exchange the same slots again and again, so an
        outgoing generator may anticommute with a later incoming one."""
        rng = np.random.default_rng(9)
        hits = 0
        for trial in range(40):
            n = 5
            code = pauli.random_stabilizer_code(n, 1 + trial % 2, rng)
            rows, exchanges, codes = random_walk(code, rng.integers(len(code.gens), size=6), rng)
            errs, letters = analysis.error_vectors(n, 3), analysis._error_letters(n, 3)
            walk = analysis.exchange_walk(rows, range(len(code.gens)), exchanges, code.logical_basis, letters)
            for mask, c in zip(walk, codes, strict=True):
                want = analysis.undetectable(c, errs)
                assert np.array_equal(mask, want)
                hits += int(want.sum())
        assert hits > 0

    def test_zero_error_rows(self, table_paths, steane7, perfect5):
        # min_distance = 1 screens no error at all: every draw passes
        path = table_paths["table2"]
        letters = analysis._error_letters(path.n, 0)
        rows, g = walk_rows(path), path.start.generator_matrix
        exchanges = [(s.replaced_index, len(g) + j) for j, s in enumerate(path.steps)]
        for stack in (rows, np.stack([rows, rows])):
            masks = list(analysis.exchange_walk(stack, range(len(g)), exchanges, path.start.logical_basis, letters))
            assert [m.shape for m in masks] == [stack.shape[:-2] + (0,)] * len(path.intermediates)
        assert analysis.verify_path(path, 1).ok
        base = rewiring.decompose(*rewiring.pad(steane7, perfect5, 0))
        chunk = rewiring.draw_chunk(base, rewiring.RewiringConfig(), range(3))
        assert rewiring.DrawScreen.of(base, 1).reject(chunk, 0) == []

    def test_two_draws_failing_at_different_steps(self, steane7, perfect5):
        base = rewiring.decompose(*rewiring.pad(steane7, perfect5, 0))
        paths = [
            rewiring.build_path(rewiring.solve_bridges(rewiring.randomize(base, [np.random.default_rng(s)]).draw(0)))
            for s in range(12)
        ]
        first = [analysis.verify_path(p, 3).failing_index for p in paths]
        i = next(i for i, f in enumerate(first) if f is not None)
        j = next(j for j, f in enumerate(first) if f not in (None, first[i]))
        pair = (paths[i], paths[j])
        g = pair[0].start.generator_matrix
        exchanges = [(s.replaced_index, len(g) + k) for k, s in enumerate(pair[0].steps)]
        assert exchanges == [(s.replaced_index, len(g) + k) for k, s in enumerate(pair[1].steps)]
        errs, letters = analysis.error_vectors(base.padded_n, 2), analysis._error_letters(base.padded_n, 2)
        rows = np.stack([walk_rows(p) for p in pair])
        masks = list(analysis.exchange_walk(rows, range(len(g)), exchanges, pair[0].start.logical_basis, letters))
        assert len(masks) == len(pair[0].intermediates)
        for step, mask in enumerate(masks):
            for draw, path in enumerate(pair):
                assert np.array_equal(mask[draw], analysis.undetectable(path.intermediates[step], errs))
        assert [next(k for k, m in enumerate(masks) if m[draw].any()) for draw in (0, 1)] == [first[i], first[j]]


@pytest.fixture(scope="module")
def checked_paths(table_paths, searched_steane_to_five, steane7, perfect5, shor9):
    """The three fixtures, four searched paths and one path that loses
    distance (the unmixed (34) pair at m=0)."""
    st34 = catalog.perm(steane7, "(34)")
    paths = list(table_paths.values()) + [searched_steane_to_five.path]
    for src, tgt, m, seed in ((perfect5, steane7, 0, 5), (st34, shor9, 0, 77), (steane7, st34, 2, 3)):
        cfg = rewiring.RewiringConfig(m=m, seed=seed, max_retries=20000, min_distance=3)
        paths.append(rewiring.search(src, tgt, cfg).path)
    paths.append(rewiring.build_path(rewiring.decompose(*rewiring.pad(steane7, st34, 0))))
    return paths


class TestBatchedMembershipMatchesPerErrorLoops:
    """verify_path, code_distance and step_subsystem_distance test all the
    quiet errors of a weight at once; the per-error loops they replaced
    must give the same reports."""

    def test_verify_path(self, checked_paths):
        failures = 0
        for path in checked_paths:
            for cap in (1, 2, 3):
                report = analysis.verify_path(path, cap + 1)
                want_index, want_witness = old_verify_path(path, cap + 1)
                assert (report.failing_index, report.witness) == (want_index, want_witness)
                assert report.ok == (want_witness is None)
                failures += not report.ok
        assert failures > 0

    def test_code_distance(self, checked_paths):
        for path in checked_paths:
            for code in path.intermediates:
                for cap in (1, 2, 3):
                    rep = analysis.code_distance(code, cap)
                    assert (rep.distance, rep.exact, rep.witness) == old_code_distance(code, cap)

    def test_undetectable_mask(self, checked_paths):
        hidden = 0
        for path in checked_paths:
            errs = analysis.error_vectors(path.n, 2)
            for code in path.intermediates:
                mask = analysis.undetectable(code, errs)
                g = code.generator_matrix
                want = [not gf2.symplectic_products(g, v).any() and not in_rowspace(g, v) for v in errs]
                assert mask.tolist() == want
                hidden += int(mask.sum())
        assert hidden > 0

    def test_step_subsystem_distance(self, checked_paths):
        for path in checked_paths:
            for i, step in enumerate(path.steps):
                pre = path.intermediates[i]
                dist = analysis.step_subsystem_distance(pre, step)
                assert dist == old_step_subsystem_distance(pre, step)
                assert dist <= PauliOp.from_vector(step.measure.vector ^ step.correct.vector).weight


def random_step(code, rng):
    """A random adjacent exchange on code: a generator slot and an incoming
    operator anticommuting with that generator and no other."""
    g = code.generator_matrix
    slot = int(rng.integers(len(g)))
    rhs = (np.arange(len(g)) == slot).astype(np.uint8)
    x0, ker = gf2.solve_affine(gf2.swap_xz(g), rhs)
    incoming = (x0 + rng.integers(0, 2, len(ker)) @ ker) % 2
    return rewiring.ConversionStep(PauliOp.from_vector(incoming), code.gens[slot], slot)


class TestSyndromeTestMatchesOraclesOnRandomCodes:
    """undetectable, code_distance and step_subsystem_distance read
    generator and logical syndromes; on seeded random codes (n 2..8, k
    0..3, some with no generators) they must agree with the membership
    oracles of conftest."""

    @pytest.fixture(scope="class")
    def codes(self):
        rng = np.random.default_rng(2015)
        out = []
        for i in range(350):
            n = 2 + i % 7
            out.append(pauli.random_stabilizer_code(n, min((i // 7) % 4, n), rng))
        return out

    def test_codes_cover_the_range(self, codes):
        assert len(codes) >= 300
        assert {c.n for c in codes} == set(range(2, 9)) and {c.k for c in codes} == set(range(4))
        assert any(not c.gens for c in codes)

    def test_undetectable(self, codes):
        hidden = 0
        for code in codes:
            g, errs = code.generator_matrix, analysis.error_vectors(code.n, 2)
            quiet = ~gf2.symplectic_products(g, errs).any(axis=0)
            want = [bool(q) and not in_rowspace(g, v) for q, v in zip(quiet, errs)]
            mask = analysis.undetectable(code, errs)
            assert mask.tolist() == want
            hidden += int(mask.sum())
        assert hidden > 0

    def test_code_distance(self, codes):
        rng = np.random.default_rng(7)
        for code in codes:
            if code.k == 0:
                with pytest.raises(analysis.ZeroLogicalQubitsError):
                    analysis.code_distance(code, code.n)
                continue
            rep = analysis.code_distance(code, code.n)
            assert rep.exact and rep.distance == naive_distance(code)
            for cap in (code.n, int(rng.integers(1, code.n + 1))):
                rep = analysis.code_distance(code, cap)
                assert (rep.distance, rep.exact, rep.witness) == old_code_distance(code, cap)

    def test_step_subsystem_distance(self, codes):
        rng = np.random.default_rng(11)
        steps = 0
        for code in codes:
            if not code.gens:
                continue
            step = random_step(code, rng)
            dist = analysis.step_subsystem_distance(code, step)
            assert dist == old_step_subsystem_distance(code, step)
            assert dist <= PauliOp.from_vector(step.measure.vector ^ step.correct.vector).weight
            steps += 1
        assert steps >= 300


    @pytest.mark.parametrize("block", [1, 10**9])
    def test_block_size_changes_no_result(self, codes, block, monkeypatch):
        """The distance checks stop at the first block of errors holding a
        witness; one error per block, or every error in one block, gives
        the same distances and witnesses."""
        rng = np.random.default_rng(12)
        cases = []
        for code in codes:
            cap = int(rng.integers(1, code.n + 1))
            step = random_step(code, rng) if code.gens else None
            cases.append((code, cap, step))

        def results():
            return [
                (
                    analysis.code_distance(code, cap) if code.k else None,
                    analysis.step_subsystem_distance(code, step) if step else None,
                )
                for code, cap, step in cases
            ]

        want = results()
        monkeypatch.setattr(analysis, "_BLOCK", block)
        assert results() == want


def test_distance_checks_stop_at_the_first_witness_block(steane7, monkeypatch):
    """Steane's code padded to n = 17 has its first weight-3 logical in the
    first block of errors, so its distance check lists that block alone,
    not the ten blocks of weight <= 3."""
    code = rewiring.pad(steane7, steane7, 10)[0]
    listed = []
    real = analysis._letter_blocks

    def counted(n, wmax):
        for block in real(n, wmax):
            listed.append(len(block))
            yield block

    monkeypatch.setattr(analysis, "_letter_blocks", counted)
    assert analysis.code_distance(code, 3).distance == 3
    assert listed == [analysis._BLOCK]
    assert len(list(real(17, 3))) == 10


class TestErrorTables:
    """The letter tables list the errors of the loop enumerator, in its order."""

    @pytest.mark.parametrize("n, w", [(1, 1), (7, 2), (12, 3), (17, 3), (25, 2)])
    def test_match_loop_enumerator(self, n, w):
        vectors = analysis.error_vectors(n, w)
        assert vectors.dtype == np.uint8 and np.array_equal(vectors, old_error_vectors(n, w))

    def test_letters(self):
        assert analysis._letters(85, 2).dtype == np.uint8 and analysis._letters(86, 2).dtype == np.uint16
        assert analysis._letters(86, 2).max() == 3 * 86 - 1
        assert not analysis._letters(7, 2).flags.writeable
        assert analysis._letters(3, 4).shape == (0, 4)
        assert analysis.error_vectors(5, 0).shape == (0, 10)
        # lighter errors are padded with the identity, row 3n of the single-qubit table
        letters = analysis._error_letters(7, 3)
        assert letters.shape == (21 + 189 + 945, 3) and letters.dtype == np.uint8
        assert (letters[:21, 1:] == 21).all() and (letters[21:210, 2] == 21).all() and (letters[210:] < 21).all()
        assert not analysis._single_qubit_paulis(7)[21].any()
        assert analysis._error_letters(5, 0).shape == (0, 0)


def after_bell_pairs(code, pairs):
    """code on the last qubits after `pairs` Bell pairs (generators XX, ZZ),
    whose generators come first: code's generators and logicals sit past
    row 64 of the syndrome words once pairs >= 32."""
    n = 2 * pairs + code.n
    rows = []
    for p in range(pairs):
        for half in (0, n):
            v = np.zeros(2 * n, dtype=np.uint8)
            v[[half + 2 * p, half + 2 * p + 1]] = 1
            rows.append(v)
    for g in code.generator_matrix:
        v = np.zeros(2 * n, dtype=np.uint8)
        v[2 * pairs : n], v[n + 2 * pairs :] = g[: code.n], g[code.n :]
        rows.append(v)
    return StabilizerCode(n, tuple(PauliOp.from_vector(v) for v in rows))


class TestSyndromeWordsMatchOracles:
    """code_distance and step_subsystem_distance read each error's syndrome
    words as the XOR of its letters' words; on seeded random codes (n 1..12,
    every k, some with no generators) and on codes with n + k > 64, whose
    rows fill more than one word, they must agree with the loop oracles."""

    @pytest.fixture(scope="class")
    def codes(self):
        rng = np.random.default_rng(1609)
        out = []
        for i in range(396):
            n = 1 + i % 12
            out.append(pauli.random_stabilizer_code(n, (i // 12) % (n + 1), rng))
        return out

    @pytest.fixture(scope="class")
    def wide_codes(self, perfect5, steane7):
        rng = np.random.default_rng(66)
        c422 = StabilizerCode.from_strings(["XXXX", "ZZZZ"])
        out = [after_bell_pairs(c422, 32), after_bell_pairs(perfect5, 31), after_bell_pairs(steane7, 30)]
        out += [pauli.random_stabilizer_code(n, k, rng) for n, k in ((66, 1), (67, 3), (68, 30), (69, 65), (70, 68))]
        return out

    def test_codes_cover_the_range(self, codes, wide_codes):
        assert len(codes) >= 300
        assert {(c.n, c.k) for c in codes} == {(n, k) for n in range(1, 13) for k in range(n + 1)}
        assert all(c.n + c.k > 64 for c in wide_codes) and len(wide_codes) >= 5

    def test_code_distance(self, codes):
        rng = np.random.default_rng(3)
        for code in codes:
            if code.k == 0:
                with pytest.raises(analysis.ZeroLogicalQubitsError):
                    analysis.code_distance(code, code.n)
                continue
            rep = analysis.code_distance(code, code.n)
            assert rep.exact
            if code.n + code.k <= 11:  # naive_distance walks all 2^(n+k) normalizer elements
                assert rep.distance == naive_distance(code)
            for cap in (code.n, int(rng.integers(1, code.n + 1))):
                rep = analysis.code_distance(code, cap)
                assert (rep.distance, rep.exact, rep.witness) == old_code_distance(code, cap)

    def test_step_subsystem_distance(self, codes):
        rng = np.random.default_rng(5)
        steps = 0
        for code in codes:
            if not code.gens:
                continue
            step = random_step(code, rng)
            assert analysis.step_subsystem_distance(code, step) == old_step_subsystem_distance(code, step)
            steps += 1
        assert steps >= 300

    def test_wide_code_distance(self, wide_codes):
        exact = 0
        for code in wide_codes:
            for cap in (1, 2):
                rep = analysis.code_distance(code, cap)
                assert (rep.distance, rep.exact, rep.witness) == old_code_distance(code, cap)
                exact += rep.exact
        assert analysis.code_distance(wide_codes[0], 2).distance == 2  # [[4,2,2]]'s rows sit past row 64
        assert exact and exact < 2 * len(wide_codes)

    def test_wide_exchange_walk(self, wide_codes):
        """exchange_walk against undetectable after every exchange of random
        walks on the wide codes, whose rows and logicals fill more than
        one word, for one draw and for a stack of two draws that exchange
        the same slots with different incoming rows.  Each walk exchanges
        two slots twice, so the outgoing rows of the last two exchanges
        are incoming rows, past row 64 on the codes with 64+ generators."""
        rng = np.random.default_rng(28)
        hits = 0
        for code in wide_codes:
            errs, letters = analysis.error_vectors(code.n, 2), analysis._error_letters(code.n, 2)
            live, slots = range(len(code.gens)), np.tile(rng.choice(len(code.gens), size=2, replace=False), 2)
            walks = [random_walk(code, slots, rng) for _ in range(3)]
            exchanges = walks[0][1]
            assert len(walks[0][0]) + 2 * code.k > 64
            stacked = np.stack([rows for rows, _, _ in walks[1:]])
            for rows, draws in ((walks[0][0], walks[:1]), (stacked, walks[1:])):
                masks = list(analysis.exchange_walk(rows, live, exchanges, code.logical_basis, letters))
                assert len(masks) == len(slots) + 1
                for step, mask in enumerate(masks):
                    mask = mask.reshape(len(draws), len(letters))
                    for draw, (_, _, codes) in enumerate(draws):
                        want = analysis.undetectable(codes[step], errs)
                        assert np.array_equal(mask[draw], want)
                        hits += int(want.sum())
        assert hits > 0

    def test_wide_step_subsystem_distance(self, wide_codes):
        c422 = wide_codes[0]
        x_block = PauliOp.from_string("I" * 64 + "XIII")
        z_pair = PauliOp.from_string("Z" + "I" * 67)
        steps = [
            (c422, rewiring.ConversionStep(x_block, c422.gens[65], 65)),  # replaces ZZZZ: dressed X on the block
            (c422, rewiring.ConversionStep(z_pair, c422.gens[0], 0)),  # replaces a Bell XX by one of its Z's
        ]
        rng = np.random.default_rng(9)
        steps += [(code, random_step(code, rng)) for code in wide_codes if len(code.gens) <= 4]
        dists = []
        for code, step in steps:
            assert len(code.gens) + 1 + 2 * code.k > 64
            dists.append(analysis.step_subsystem_distance(code, step))
            assert dists[-1] == old_step_subsystem_distance(code, step)
        assert dists[:2] == [1, 2] and len(steps) == 4


class TestDetectable:
    def test_group_member(self, steane7):
        assert analysis.detectable(steane7, steane7.gens[3])

    def test_distance_witness_is_undetectable(self, perfect5):
        witness = analysis.code_distance(perfect5, cap=3).witness
        assert not analysis.detectable(perfect5, witness)


class TestClassifyError:
    def test_shared_generator(self, table_decompositions):
        dec = table_decompositions["table1"]
        assert (
            analysis.classify_error(PauliOp.from_vector(dec.shared[0]), dec.source, dec.target)
            == ErrorClass.IN_BOTH_GROUPS
        )

    def test_identity(self, table_decompositions):
        dec = table_decompositions["table1"]
        e = PauliOp.identity(dec.padded_n)
        assert analysis.classify_error(e, dec.source, dec.target) == ErrorClass.IN_BOTH_GROUPS

    def test_weight1_x_outside_both_normalizers(self, table_decompositions):
        dec = table_decompositions["table1"]
        e = PauliOp.from_string("XIIIIII")
        assert (
            analysis.classify_error(e, dec.source, dec.target)
            == ErrorClass.OUTSIDE_BOTH_NORMALIZERS
        )

    def test_classes_partition_consistently(self, table_decompositions):
        dec = table_decompositions["table2"]
        for v in analysis.error_vectors(dec.padded_n, 2)[::7]:
            e = PauliOp.from_vector(v)
            cls = analysis.classify_error(e, dec.source, dec.target)
            in_s = pauli.in_group(dec.source, e).in_group
            in_sp = pauli.in_group(dec.target, e).in_group
            if in_s and in_sp:
                assert cls == ErrorClass.IN_BOTH_GROUPS
            elif cls == ErrorClass.OUTSIDE_BOTH_NORMALIZERS:
                assert pauli.syndrome(dec.source, e).any()
                assert pauli.syndrome(dec.target, e).any()

    def test_shared_block_errors_detectable_everywhere(self, table_paths, table_decompositions):
        # an error inside the shared span stays inside every intermediate group
        for name in ("table1", "table3"):
            dec = table_decompositions[name]
            path = table_paths[name]
            e = PauliOp.from_vector(dec.shared.sum(axis=0) % 2)
            for code in path.intermediates:
                assert analysis.detectable(code, e)
                assert pauli.in_group(code, e).in_group


class TestStepSubsystemDistance:
    def test_single_qubit_gauge(self):
        pre = StabilizerCode.from_strings(["Z"])
        step = rewiring.ConversionStep(
            measure=PauliOp.from_string("X"),
            correct=PauliOp.from_string("Z"),
            replaced_index=0,
        )
        # the only non-gauge Pauli is Y (it needs both gauge generators)
        assert analysis.step_subsystem_distance(pre, step) == 1

    def test_table1_steps_report_positive_distance(self, table_paths):
        path = table_paths["table1"]
        for i, step in enumerate(path.steps):
            dist = analysis.step_subsystem_distance(path.intermediates[i], step)
            assert dist is not None and dist >= 1

    def test_weight1_error_anticommuting_only_with_measured(self):
        # measuring X on one qubit of the ZZ code: a Z error there flips
        # only that measurement, so the -1 explanations are indistinguishable
        pre = StabilizerCode.from_strings(["ZZ"])
        step = rewiring.ConversionStep(
            measure=PauliOp.from_string("XI"),
            correct=PauliOp.from_string("ZZ"),
            replaced_index=0,
        )
        e = PauliOp.from_string("ZI")
        assert not e.commutes(step.measure)
        assert e.commutes(step.correct)
        assert analysis.step_subsystem_distance(pre, step) == 1

    def test_rejects_non_adjacent(self, steane7):
        # IXXIIXX commutes with generator 0; IIIIZII anticommutes with it
        # but also with generator 2
        for measure in ("IXXIIXX", "IIIIZII"):
            step = rewiring.ConversionStep(
                measure=PauliOp.from_string(measure), correct=steane7.gens[0], replaced_index=0
            )
            with pytest.raises(ValueError):
                analysis.step_subsystem_distance(steane7, step)


def decimal_bound(n: int, m: int, d: int, gc: int) -> Decimal:
    """Arbitrary-precision re-evaluation of the failure bound."""
    getcontext().prec = 60
    total = n + m
    p = Decimal(d - 1) / Decimal(total)
    q = Decimal(3) / Decimal(4)
    if p == 0:
        kl = (1 / (1 - q)).ln()
    else:
        kl = p * (p / q).ln() + (1 - p) * ((1 - p) / (1 - q)).ln()
    log_raw = (
        Decimal(total) * Decimal(4).ln()
        - kl * Decimal(total)
        + Decimal(gc + 1).ln()
        - Decimal(gc) * Decimal(2).ln()
    )
    return log_raw.exp()


class TestFailureBound:
    def test_d1_collapse(self):
        for n, m, gc in ((3, 0, 0), (5, 2, 4), (9, 1, 3)):
            got = analysis.failure_bound(n, m, 1, gc)
            assert got.raw == pytest.approx((gc + 1) * 2.0**-gc, rel=1e-12)

    def test_against_decimal_oracle_spot(self):
        got = analysis.failure_bound(7, 0, 3, 5)
        want = decimal_bound(7, 0, 3, 5)
        assert got.raw == pytest.approx(float(want), rel=1e-12)

    def test_monotone_decreasing_in_gc(self):
        values = [analysis.failure_bound(7, 0, 3, gc).raw for gc in range(1, 8)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_effective_clamped(self):
        res = analysis.failure_bound(7, 0, 3, 0)
        assert res.raw > 1.0
        assert res.effective == 1.0

    def test_past_the_float_range_is_inf(self):
        assert analysis.failure_bound(1000, 0, 600, 0) == (math.inf, 1.0)

    def test_domain_error(self):
        with pytest.raises(analysis.DomainError):
            analysis.failure_bound(4, 0, 4, 2)

    def test_weight_d_variant(self):
        base = analysis.failure_bound(9, 0, 3, 2).raw
        shifted = analysis.failure_bound(9, 0, 3, 2, count_weight_d=True).raw
        assert shifted > base  # including weight-d errors can only grow the count


class TestMinAncilla:
    def test_d1_epsilon1(self):
        # (m+1) 2^-m dips below 1 first at m = 2
        res = analysis.min_ancilla(3, 1, 1.0)
        assert res.m == 2

    def test_scan_oracle(self):
        res = analysis.min_ancilla(7, 3, 0.5)
        assert analysis.failure_bound(7, res.m, 3, gc=res.m).raw < 0.5
        for m in range(res.m):
            assert analysis.failure_bound(7, m, 3, gc=m).raw >= 0.5

    def test_scan_past_overflowing_bounds(self):
        res = analysis.min_ancilla(1000, 600, 0.01)
        assert res.m == 3519 and math.isfinite(res.asymptotic_reference)

    def test_monotone_in_epsilon(self):
        ms = [analysis.min_ancilla(7, 3, eps).m for eps in (1.0, 0.5, 0.1, 0.01, 0.001)]
        assert all(a <= b for a, b in zip(ms, ms[1:]))


class TestMasking:
    def test_closed_form_values(self):
        assert analysis.masking_exact(1) == 0
        assert analysis.masking_exact(2) == Fraction(1, 3)
        assert analysis.masking_exact(3) == Fraction(5, 21)
        assert analysis.masking_exact(5) == Fraction(49, 465)

    def test_enumerate_matches_closed_form_n3(self):
        v = np.array([1, 0, 0], dtype=np.uint8)
        w = np.array([0, 0, 1], dtype=np.uint8)
        assert analysis.masking_enumerate(3, v, w) == Fraction(5, 21)

    def test_orthogonal_pair_invariance(self):
        # the result depends only on <v, w>, not the particular pair
        pairs3 = [((1, 0, 0), (0, 1, 0)), ((1, 1, 0), (0, 0, 1)), ((1, 1, 1), (1, 1, 0)), ((0, 1, 0), (1, 0, 1))]
        for v, w in pairs3:
            assert sum(a * b for a, b in zip(v, w)) % 2 == 0
            assert analysis.masking_enumerate(3, v, w) == Fraction(5, 21)
        pairs4 = [((1, 0, 0, 0), (0, 0, 0, 1)), ((1, 1, 0, 0), (0, 0, 1, 1))]
        results = {analysis.masking_enumerate(4, v, w) for v, w in pairs4}
        assert len(results) == 1
        assert results.pop() == analysis.masking_exact(4)

    def test_overlapping_pair_gives_zero(self):
        v = np.array([1, 0, 0], dtype=np.uint8)
        assert analysis.masking_enumerate(3, v, v) == 0
        w = np.array([1, 1, 0], dtype=np.uint8)
        u = np.array([1, 0, 1], dtype=np.uint8)
        assert sum(int(a) * int(b) for a, b in zip(w, u)) % 2 == 1
        assert analysis.masking_enumerate(3, w, u) == 0

    def test_bound_holds_for_n_ge_3(self):
        for n in (3, 4):
            assert analysis.masking_exact(n) <= Fraction(n - 1, 2**n)

    def test_n2_exceeds_reference_bound(self):
        # enumerated truth at n = 2 is 1/3, above (n-1) 2^-n = 1/4
        v = np.array([1, 0], dtype=np.uint8)
        w = np.array([0, 1], dtype=np.uint8)
        got = analysis.masking_enumerate(2, v, w)
        assert got == Fraction(1, 3)
        assert got > Fraction(1, 4)

    def test_enumerate_budget(self):
        v = np.zeros(5, dtype=np.uint8)
        w = np.zeros(5, dtype=np.uint8)
        v[0] = w[4] = 1
        with pytest.raises(analysis.InfeasibleError):
            analysis.masking_enumerate(5, v, w)

    def test_mc_matches_enumeration_n3(self):
        v = np.array([1, 0, 0], dtype=np.uint8)
        w = np.array([0, 0, 1], dtype=np.uint8)
        est = analysis.masking_mc(3, v, w, 40_000, np.random.default_rng(18))
        assert abs(est.estimate - 5 / 21) < 4 * est.stderr


class TestCommutativityCheck:
    def test_identical_codes(self, steane7):
        report = analysis.commutativity_check(steane7, steane7, 0)
        assert report.gc == 0 and report.ok

    def test_table1_pair(self, table_decompositions):
        dec = table_decompositions["table1"]
        report = analysis.commutativity_check(dec.source, dec.target, 0)
        assert report.gc == 5
        assert report.invertible
        assert report.presentation_rank == 5

    def test_random_pairs_with_basis_changes(self):
        rng = np.random.default_rng(19)
        for trial in range(10):
            a = pauli.random_stabilizer_code(6, 1, rng)
            b = pauli.random_stabilizer_code(6, 1, rng)
            m = trial % 4
            pa, pb = rewiring.pad(a, b, m)
            report = analysis.commutativity_check(pa, pb, m, rng=rng, basis_trials=5)
            assert report.ok
