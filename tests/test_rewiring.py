import dataclasses
import json

import numpy as np
import pytest

from stabswitch import analysis, catalog, fixtures, gf2, pauli, rewiring
from stabswitch.pauli import PauliOp, StabilizerCode


def rowspace_key(code: StabilizerCode) -> bytes:
    return gf2.rref(code.generator_matrix)[0].tobytes()


def swap_decomposition(dec: rewiring.Decomposition) -> rewiring.Decomposition:
    """The same prepared blocks viewed from the target side.

    Building the swapped decomposition walks the identical set of
    intermediate groups in the opposite direction (the direct blocks are
    reversed to keep the pairing matrix the identity).  Ancilla metadata
    is dropped: the swap exists to exercise the symmetry property, not to
    drive a simulation.
    """
    order = None
    if dec.step_order is not None:
        c = len(dec.direct_src)
        flip = {"bridge_in": "bridge_out", "bridge_out": "bridge_in", "direct": "direct"}
        order = tuple(
            (flip[kind], c - 1 - i if kind == "direct" else i)
            for kind, i in reversed(dec.step_order)
        )
    return dataclasses.replace(
        dec,
        source=dec.target,
        target=dec.source,
        ancilla_qubits=(),
        bridged_src=dec.bridged_tgt,
        bridged_tgt=dec.bridged_src,
        direct_src=tuple(reversed(dec.direct_tgt)),
        direct_tgt=tuple(reversed(dec.direct_src)),
        step_order=order,
    )


class TestPad:
    def test_equal_sizes_m0_is_identity(self, steane7):
        a, b = rewiring.pad(steane7, steane7, 0)
        assert a == steane7 and b == steane7

    def test_smaller_code_gains_z_stabilizers(self, perfect5, steane7):
        a, b = rewiring.pad(perfect5, steane7, 0)
        assert a.n == b.n == 7
        assert b == steane7
        assert a.gens[-2:] == (
            PauliOp.from_string("IIIIIZI"),
            PauliOp.from_string("IIIIIIZ"),
        )

    def test_m2_padding_types(self, steane7):
        st34 = catalog.perm(steane7, "(34)")
        a, b = rewiring.pad(steane7, st34, 2)
        assert a.n == b.n == 9
        assert a.gens[-2:] == (
            PauliOp.from_string("IIIIIIIZI"),
            PauliOp.from_string("IIIIIIIIZ"),
        )
        assert b.gens[-2:] == (
            PauliOp.from_string("IIIIIIIXI"),
            PauliOp.from_string("IIIIIIIIX"),
        )

    def test_mismatched_k(self, steane7):
        with pytest.raises(rewiring.MismatchedLogicalCountError):
            rewiring.pad(steane7, StabilizerCode.from_strings(["ZZ", "XX"]), 0)

    def test_ancilla_metadata(self, steane7, perfect5):
        assert rewiring.ancilla_qubits_for(steane7, perfect5, 0) == (5, 6)
        assert rewiring.ancilla_qubits_for(perfect5, steane7, 0) == ()
        assert rewiring.ancilla_qubits_for(steane7, steane7, 2) == (7, 8)


class TestDecompose:
    def test_identical_codes(self, steane7):
        dec = rewiring.decompose(steane7, steane7)
        a, b, c = dec.counts()
        assert (a, b, c) == (6, 0, 0)
        span = np.array([op.vector for op in dec.shared], dtype=np.uint8)
        assert gf2.rank(np.vstack([span, steane7.generator_matrix])) == 6

    def test_table1_block_sizes(self, table_decompositions):
        dec = rewiring.decompose(
            table_decompositions["table1"].source, table_decompositions["table1"].target
        )
        assert dec.counts() == (1, 0, 5)

    def test_table2_block_sizes(self, table_decompositions):
        dec = rewiring.decompose(
            table_decompositions["table2"].source, table_decompositions["table2"].target
        )
        assert dec.counts() == (2, 1, 5)

    def test_pairing_matrix_is_identity(self, steane7, perfect5):
        pa, pb = rewiring.pad(steane7, perfect5, 0)
        dec = rewiring.decompose(pa, pb)
        src = np.array([op.vector for op in dec.direct_src], dtype=np.uint8)
        tgt = np.array([op.vector for op in dec.direct_tgt], dtype=np.uint8)
        assert np.array_equal(gf2.symplectic_products(tgt, src), gf2.identity(len(src)))

    def test_all_blocks_carry_group_signs(self, steane7, perfect5):
        pa, pb = rewiring.pad(steane7, perfect5, 1)
        dec = rewiring.decompose(pa, pb)
        for op in dec.shared + dec.bridged_src + dec.direct_src:
            member = pauli.in_group(pa, op)
            assert member.in_group and member.sign_match
        for op in dec.shared + dec.bridged_tgt + dec.direct_tgt:
            member = pauli.in_group(pb, op)
            assert member.in_group and member.sign_match

    def test_sign_mismatch_detected(self):
        plus = StabilizerCode.from_strings(["ZZ", "XX"])
        minus = StabilizerCode.from_strings(["-ZZ", "XX"])
        with pytest.raises(rewiring.SignMismatchError):
            rewiring.decompose(plus, minus)


class TestRandomize:
    def test_identity_mix_is_noop(self, steane7, perfect5):
        pa, pb = rewiring.pad(steane7, perfect5, 0)
        dec = rewiring.decompose(pa, pb)
        c, b = len(dec.direct_src), len(dec.bridged_src)
        same = rewiring._mix(gf2.zeros((c, b)), gf2.identity(c), dec.bridged_src, dec.direct_src, dec.padded_n)
        assert same == dec.direct_src

    def test_pairing_preserved_and_groups_unchanged(self, steane7, perfect5):
        pa, pb = rewiring.pad(steane7, perfect5, 1)
        dec = rewiring.decompose(pa, pb)
        for seed in range(5):
            mixed = rewiring.randomize(dec, np.random.default_rng(seed))
            for op in mixed.direct_src:
                member = pauli.in_group(pa, op)
                assert member.in_group and member.sign_match
            for op in mixed.direct_tgt:
                member = pauli.in_group(pb, op)
                assert member.in_group and member.sign_match


class TestSolveBridges:
    def test_no_bridged_pairs_is_noop(self, table_decompositions):
        dec = rewiring.decompose(
            table_decompositions["table1"].source, table_decompositions["table1"].target
        )
        out = rewiring.solve_bridges(dec)
        assert out.bridges == ()

    def bridge_constraints_hold(self, dec):
        for i, bridge in enumerate(dec.bridges):
            for op in dec.shared + dec.direct_src + dec.direct_tgt:
                assert bridge.commutes(op)
            for j in range(len(dec.bridged_src)):
                src, tgt = dec.bridged_src[j], dec.bridged_tgt[j]
                if j > i:
                    assert bridge.commutes(src) and bridge.commutes(tgt)
                elif j == i:
                    assert not bridge.commutes(src) and not bridge.commutes(tgt)
            for j in range(i):
                assert bridge.commutes(dec.bridges[j])

    def test_constraint_oracle(self, steane7, perfect5):
        pa, pb = rewiring.pad(steane7, perfect5, 0)
        dec = rewiring.decompose(pa, pb)
        assert len(dec.bridged_src) == 1
        for seed in range(5):
            mixed = rewiring.randomize(dec, np.random.default_rng(seed))
            solved = rewiring.solve_bridges(mixed)
            self.bridge_constraints_hold(solved)

    def test_weight_sampling_never_worse(self, steane7, perfect5):
        pa, pb = rewiring.pad(steane7, perfect5, 0)
        dec = rewiring.randomize(rewiring.decompose(pa, pb), np.random.default_rng(3))
        plain = rewiring.solve_bridges(dec)
        light = rewiring.solve_bridges(dec, np.random.default_rng(4), weight_samples=64)
        self.bridge_constraints_hold(light)
        assert light.bridges[0].weight <= plain.bridges[0].weight


class TestBuildPath:
    def test_identical_codes_give_empty_path(self, steane7):
        path = rewiring.build_path(rewiring.decompose(steane7, steane7))
        assert path.steps == ()
        assert len(path.intermediates) == 1

    def test_table1_shape(self, table_paths):
        path = table_paths["table1"]
        assert len(path.steps) == 5
        assert len(path.intermediates) == 6

    def test_table3_shape(self, table_paths):
        path = table_paths["table3"]
        assert len(path.steps) == 4
        assert len(path.intermediates) == 5

    def test_endpoints_match_padded_inputs_as_signed_groups(self, table_paths):
        for path in table_paths.values():
            assert path.intermediates[0].same_group(path.source)
            assert path.intermediates[-1].same_group(path.target)

    def test_consecutive_codes_differ_in_one_generator(self, table_paths):
        for path in table_paths.values():
            for i, step in enumerate(path.steps):
                pre = path.intermediates[i].gens
                post = path.intermediates[i + 1].gens
                diff = [j for j in range(len(pre)) if pre[j] != post[j]]
                assert diff == [step.replaced_index]
                assert not step.measure.commutes(step.correct)
                for j, g in enumerate(pre):
                    if j != step.replaced_index:
                        assert step.measure.commutes(g)

    def test_missing_bridges_rejected(self, table_decompositions):
        dec = dataclasses.replace(table_decompositions["table2"], bridges=None)
        with pytest.raises(ValueError):
            rewiring.build_path(dec)


class TestSymmetry:
    def test_reversed_build_walks_the_same_groups(self, table_decompositions):
        for name in ("table1", "table2", "table3"):
            dec = table_decompositions[name]
            fwd = rewiring.build_path(dec)
            rev = rewiring.build_path(swap_decomposition(dec))
            fwd_spaces = {rowspace_key(c) for c in fwd.intermediates}
            rev_spaces = {rowspace_key(c) for c in rev.intermediates}
            assert fwd_spaces == rev_spaces

    def test_reversed_build_on_randomized_decomposition(self, steane7, perfect5):
        pa, pb = rewiring.pad(steane7, perfect5, 0)
        dec = rewiring.solve_bridges(
            rewiring.randomize(rewiring.decompose(pa, pb), np.random.default_rng(8))
        )
        fwd = rewiring.build_path(dec)
        rev = rewiring.build_path(swap_decomposition(dec))
        assert {rowspace_key(c) for c in fwd.intermediates} == {
            rowspace_key(c) for c in rev.intermediates
        }


class TestSearch:
    def test_identical_codes_succeed_immediately(self, steane7):
        cfg = rewiring.RewiringConfig(m=0, seed=0, max_retries=3, min_distance=3)
        res = rewiring.search(steane7, steane7, cfg)
        assert res.retries_used == 1
        assert res.path.steps == ()

    def test_steane_to_five_succeeds(self, searched_steane_to_five):
        res = searched_steane_to_five
        assert analysis.verify_path(res.path, 3).ok
        assert res.path.seed == 12345

    def test_deterministic_given_seed(self, steane7, perfect5, searched_steane_to_five):
        cfg = rewiring.RewiringConfig(m=0, seed=12345, max_retries=2000, min_distance=3)
        again = rewiring.search(steane7, perfect5, cfg)
        assert again.retries_used == searched_steane_to_five.retries_used
        assert json.dumps(again.path.to_json()) == json.dumps(searched_steane_to_five.path.to_json())

    def test_permuted_steane_to_shor(self, steane7, shor9):
        # nine-qubit target: a distance-preserving draw exists at m = 0 and
        # the general invertible remix finds it quickly
        st34 = catalog.perm(steane7, "(34)")
        cfg = rewiring.RewiringConfig(m=0, seed=77, max_retries=20000, min_distance=3)
        res = rewiring.search(st34, shor9, cfg)
        assert analysis.verify_path(res.path, 3).ok
        assert res.path.n == 9

    def test_five_to_steane_direction(self, perfect5, steane7):
        # source smaller: the equalization block pads the source side and
        # nothing is discarded at the end
        cfg = rewiring.RewiringConfig(m=0, seed=5, max_retries=3000, min_distance=3)
        res = rewiring.search(perfect5, steane7, cfg)
        assert res.path.ancilla_qubits == ()
        assert analysis.verify_path(res.path, 3).ok
        from stabswitch import tableau

        frame = tableau.logical_frame(res.path.source)
        carried = tableau.transport_logicals(frame, res.path)
        t = tableau.encode(res.path.source, frame, "+Z")
        tableau.run_path(t, res.path, np.random.default_rng(0))
        assert t.stabilizes(res.path.target)
        assert t.contains(carried.logical_z[0])

    def test_exhaustion_raises_with_report(self, steane7):
        st34 = catalog.perm(steane7, "(34)")
        cfg = rewiring.RewiringConfig(m=0, seed=7, max_retries=40, min_distance=3)
        with pytest.raises(rewiring.SearchExhaustedError) as err:
            rewiring.search(steane7, st34, cfg)
        assert err.value.retries == 40
        assert err.value.best_distance_floor >= 1

    def test_rejection_callback(self, steane7):
        st34 = catalog.perm(steane7, "(34)")
        seen = []
        cfg = rewiring.RewiringConfig(m=0, seed=7, max_retries=5, min_distance=3)
        with pytest.raises(rewiring.SearchExhaustedError):
            rewiring.search(steane7, st34, cfg, on_reject=seen.append)
        assert len(seen) == 5
        assert all(r.witness.weight < 3 for r in seen)


# steane7 -> perm(steane7,(34)) at m=1, seed 7, 40 retries, distance 3:
# every (retry, failing index, witness) and the best floor, as produced
# by the signed per-draw loop the row screen replaced
PINNED_M1_SEED7 = [
    (0, 1, "IIIIIIZI"), (1, 1, "IIIIIIXI"), (2, 2, "IIIIIIYI"), (3, 1, "IIIIIIXI"),
    (4, 1, "IIIIIIYI"), (5, 2, "IIIIIIYI"), (6, 1, "IIIIIIXI"), (7, 1, "IIIIIIZX"),
    (8, 1, "IIIIIIYI"), (9, 2, "IIIIIIXI"), (10, 1, "IIIIIIZX"), (11, 1, "IIIIIIXI"),
    (12, 1, "IIIIIIZI"), (13, 1, "IIIIIIZX"), (14, 1, "IIIIIIXI"), (15, 1, "IIIIIIZI"),
    (16, 1, "IIIIIIXI"), (17, 1, "IIIIIIYX"), (18, 1, "IIIIIIYX"), (19, 1, "IIIIIIYI"),
    (20, 1, "IIIIIIYI"), (21, 1, "IIIIIIZX"), (22, 1, "IIIIIIXX"), (23, 1, "IIIIIIZI"),
    (24, 2, "IIIIIIZI"), (25, 1, "IIIIIIYX"), (26, 1, "IIIIIIXI"), (27, 2, "IIIIIIXI"),
    (28, 1, "IIIIIIXX"), (29, 1, "IIIIIIXI"), (30, 1, "IIIIIIZI"), (31, 1, "IIIIIIXX"),
    (32, 1, "IIIIIIZI"), (33, 1, "IIIIIIXX"), (34, 1, "IIIIIIYI"), (35, 1, "IIIIIIYI"),
    (36, 1, "IIIIIIYX"), (37, 1, "IIIIIIYI"), (38, 1, "IIIIIIZI"), (39, 1, "IIIIIIXX"),
]


def test_pinned_rejections(steane7):
    st34 = catalog.perm(steane7, "(34)")
    seen = []
    cfg = rewiring.RewiringConfig(m=1, seed=7, max_retries=40, min_distance=3)
    with pytest.raises(rewiring.SearchExhaustedError) as err:
        rewiring.search(steane7, st34, cfg, on_reject=seen.append)
    assert [(r.retry, r.failing_index, r.witness.to_string()) for r in seen] == PINNED_M1_SEED7
    assert err.value.best_distance_floor == 2


def _oracle_randomize(dec, rng):
    """The signed randomization the row draw replaced."""
    a, b, c = dec.counts()
    v = gf2.random_matrix(c, b, rng)
    vp = gf2.random_matrix(c, b, rng)
    u = gf2.random_gl(c, rng)
    uit = gf2.invert(u).T
    new_src = rewiring._mix((u @ v) % 2, u, dec.bridged_src, dec.direct_src, dec.padded_n)
    new_tgt = rewiring._mix((uit @ vp) % 2, uit, dec.bridged_tgt, dec.direct_tgt, dec.padded_n)
    return dataclasses.replace(dec, direct_src=new_src, direct_tgt=new_tgt, bridges=None)


def _oracle_solve_bridges(dec, rng, weight_samples):
    """The signed bridge solve the row solve replaced."""
    n = dec.padded_n
    solved = []
    for i in range(len(dec.bridged_src)):
        rows = [op.vector for op in dec.shared + dec.direct_src + dec.direct_tgt]
        rows += [op.vector for op in dec.bridged_src[i + 1 :] + dec.bridged_tgt[i + 1 :]]
        rows += [op.vector for op in solved]
        rhs = [0] * len(rows) + [1, 1]
        rows += [dec.bridged_src[i].vector, dec.bridged_tgt[i].vector]
        mat = np.array(rows, dtype=np.uint8).reshape(len(rows), 2 * n)
        x0, ker = gf2.solve_affine(gf2.swap_xz(mat), np.array(rhs, dtype=np.uint8))
        best = x0

        def score(vec):
            return int((vec[:n] | vec[n:]).sum()), tuple(int(t) for t in vec)

        for _ in range(weight_samples):
            if ker.shape[0] == 0:
                break
            cand = (x0 + rng.integers(0, 2, size=ker.shape[0], dtype=np.uint8) @ ker) % 2
            if score(cand) < score(best):
                best = cand.astype(np.uint8)
        solved.append(PauliOp.from_vector(best))
    return dataclasses.replace(dec, bridges=tuple(solved))


def _oracle_search(source, target, cfg):
    """Signed path and verify_path on every draw: the loop search replaced.
    Returns (rejections, retries used or None, best floor, path JSON)."""
    pa, pb = rewiring.pad(source, target, cfg.m)
    base = rewiring.decompose(pa, pb, m=cfg.m, ancilla_qubits=rewiring.ancilla_qubits_for(source, target, cfg.m))
    rejections, best = [], None
    for retry in range(cfg.max_retries):
        rng = rewiring.child_rng(cfg.seed, retry)
        dec = _oracle_solve_bridges(_oracle_randomize(base, rng), rng, cfg.bridge_weight_samples)
        path = rewiring.build_path(dec)
        report = analysis.verify_path(path, cfg.min_distance)
        if report.ok:
            doc = dataclasses.replace(path, seed=cfg.seed).to_json()
            return rejections, retry + 1, best, json.dumps(doc)
        rejections.append((retry, report.failing_index, report.witness.to_string()))
        found = report.reports[report.failing_index].distance
        best = found if best is None else max(best, found)
    return rejections, None, best, None


ORACLE_CASES = [
    ("steane7", "perm(steane7,(34))", 0, 0),
    ("steane7", "perm(steane7,(34))", 1, 0),
    ("steane7", "perm(steane7,(34))", 2, 0),
    ("steane7", "perfect5", 0, 0),
    ("steane7", "perfect5", 0, 3),
    ("steane7", "perfect5", 4, 0),
    ("steane7", "perfect5", 4, 3),
    ("perfect5", "steane7", 0, 0),
]


@pytest.mark.parametrize("src,tgt,m,samples", ORACLE_CASES)
def test_search_matches_signed_oracle(src, tgt, m, samples):
    """25 seeds per case, 200 searches in all: the row screen must give the
    signed loop's rejections, retry count, best floor and path bytes."""
    source, target = catalog.resolve(src), catalog.resolve(tgt)
    outcomes = set()
    for seed in range(25):
        cfg = rewiring.RewiringConfig(
            m=m, seed=seed, max_retries=12, min_distance=3, bridge_weight_samples=samples
        )
        rejections, used, best, doc = _oracle_search(source, target, cfg)
        seen = []
        try:
            res = rewiring.search(source, target, cfg, on_reject=seen.append)
        except rewiring.SearchExhaustedError as exc:
            got = (None, exc.best_distance_floor, None)
        else:
            got = (res.retries_used, best, json.dumps(res.path.to_json()))
            assert [(r.retry, r.failing_index, r.witness.to_string()) for r in res.rejections] == rejections
        assert got == (used, best, doc)
        assert [(r.retry, r.failing_index, r.witness.to_string()) for r in seen] == rejections
        outcomes.add(used is not None)
    # both branches are compared: no (34) path exists below m = 2, and
    # with more ancillas some draws are accepted
    if tgt == "perm(steane7,(34))" and m < 2:
        assert outcomes == {False}
    if m >= 2:
        assert True in outcomes


def _direct_mix_from_u(dec, u):
    """Deterministic remix of the direct blocks by an explicit invertible u."""
    c = len(dec.direct_src)
    uit = gf2.invert(u).T
    new_src = rewiring._mix(gf2.zeros((c, 0)), u, (), dec.direct_src, dec.padded_n)
    new_tgt = rewiring._mix(gf2.zeros((c, 0)), uit, (), dec.direct_tgt, dec.padded_n)
    return dataclasses.replace(dec, direct_src=new_src, direct_tgt=new_tgt, bridges=())


class TestExhaustiveMinimalAncilla:
    """Stronger than the randomized acceptance check: with no bridged pairs
    the draw is determined by the invertible mix alone, so small cases can
    be enumerated completely."""

    def all_invertible(self, dim):
        total = 1 << (dim * dim)
        bits = ((np.arange(total)[:, None] >> np.arange(dim * dim)[None, :]) & 1).astype(np.uint8)
        mats = bits.reshape(total, dim, dim)
        _, ok = gf2.batch_invert(mats)
        return mats[ok]

    @pytest.mark.parametrize("m,expect_any", [(0, False), (1, False)])
    def test_no_mix_preserves_distance_below_two_ancillas(self, steane7, m, expect_any):
        st34 = catalog.perm(steane7, "(34)")
        pa, pb = rewiring.pad(steane7, st34, m)
        dec = rewiring.decompose(pa, pb)
        assert len(dec.bridged_src) == 0
        found = False
        for u in self.all_invertible(len(dec.direct_src)):
            cand = _direct_mix_from_u(dec, u)
            path = rewiring.build_path(cand)
            if analysis.verify_path(path, 3).ok:
                found = True
                break
        assert found == expect_any


class TestFixtures:
    def test_table1_shared_row(self, table_decompositions):
        dec = table_decompositions["table1"]
        assert [op.to_string() for op in dec.shared] == ["-YXXYIZZ"]
        assert dec.counts() == (1, 0, 5)

    def test_table2_bridged_pair_and_bridge(self, table_decompositions):
        dec = table_decompositions["table2"]
        assert [op.to_string() for op in dec.bridged_src] == ["ZZZZIIIZI"]
        assert [op.to_string() for op in dec.bridged_tgt] == ["ZZIIIIZZI"]
        assert [op.to_string() for op in dec.bridges] == ["IIIIIIIXX"]
        # the bridge is the product of the two complementary logicals
        prod = PauliOp.from_string("XXXXXXXXX") * PauliOp.from_string("XXXXXXXII")
        assert dec.bridges[0] == prod

    def test_table3_shared_rows(self, table_decompositions):
        dec = table_decompositions["table3"]
        assert len(dec.shared) == 4
        assert dec.m == 2 and dec.ancilla_qubits == (7, 8)

    def test_fixture_rejects_corrupt_bridge(self):
        text = fixtures.TABLE2.replace("bridge = IIIIIIIXX", "bridge = XXXXXXXXX")
        with pytest.raises(rewiring.FixtureInvalidError):
            rewiring.load_fixture_decomposition(text)

    def test_fixture_rejects_missing_sizes(self):
        text = "\n".join(
            ln for ln in fixtures.TABLE1.splitlines() if not ln.startswith("sizes")
        )
        with pytest.raises(rewiring.FixtureInvalidError):
            rewiring.load_fixture_decomposition(text)

    def test_fixture_rejects_mismatched_shared_rows(self):
        text = fixtures.TABLE1.replace("A  -YXXYIZZ  -YXXYIZZ", "A  -YXXYIZZ  YXXYIZZ")
        with pytest.raises(rewiring.FixtureInvalidError):
            rewiring.load_fixture_decomposition(text)


class TestPathJson:
    def test_round_trip(self, table_paths, searched_steane_to_five):
        for path in list(table_paths.values()) + [searched_steane_to_five.path]:
            doc = path.to_json()
            again = rewiring.ConversionPath.from_json(doc)
            assert again == path
            assert json.dumps(again.to_json()) == json.dumps(doc)

    def test_round_trip_derives_intermediates(self, table_paths):
        doc = table_paths["table1"].to_json()
        again = rewiring.ConversionPath.from_json(doc)
        assert again.intermediates == table_paths["table1"].intermediates

    def tampered(self, table_paths, edit):
        doc = json.loads(json.dumps(table_paths["table1"].to_json()))
        edit(doc)
        with pytest.raises(rewiring.PathIntegrityError) as err:
            rewiring.ConversionPath.from_json(doc)
        return str(err.value)

    def test_rejects_non_adjacent_steps(self, table_paths):
        def edit(doc):
            for step in doc["steps"]:
                step["measure"], step["correct"] = "IIIIIIZ", "IIIIIIX"

        assert "not generator" in self.tampered(table_paths, edit)

    def test_rejects_measure_anticommuting_with_untouched_generator(self, table_paths):
        def edit(doc):
            doc["steps"][0]["measure"] = "XIIIIII"

        assert "anticommutes with untouched generator" in self.tampered(table_paths, edit)

    def test_rejects_measure_commuting_with_replaced_generator(self, table_paths):
        def edit(doc):
            doc["steps"][0]["measure"] = "ZIIIIII"

        assert "commutes with the generator it replaces" in self.tampered(table_paths, edit)

    def test_rejects_flipped_stored_sign(self, table_paths):
        def edit(doc):
            gens = doc["intermediates"][3]["generators"]
            gens[-1] = gens[-1][1:] if gens[-1].startswith("-") else "-" + gens[-1]

        assert "stored intermediates differ" in self.tampered(table_paths, edit)

    def test_rejects_first_code_outside_source_group(self, table_paths):
        def edit(doc):
            for code in doc["intermediates"]:
                code["generators"][0] = code["generators"][0].lstrip("-")

        assert "source group" in self.tampered(table_paths, edit)

    def test_rejects_final_code_outside_target_group(self, table_paths):
        def edit(doc):
            gens = doc["target"]["generators"]
            gens[-1] = gens[-1][1:] if gens[-1].startswith("-") else "-" + gens[-1]

        assert "target group" in self.tampered(table_paths, edit)

    def test_schema_keys(self, table_paths):
        doc = table_paths["table3"].to_json()
        assert list(doc) == [
            "n",
            "ancilla_qubits",
            "source",
            "target",
            "steps",
            "intermediates",
            "seed",
            "m",
        ]
        assert doc["n"] == 9 and doc["m"] == 2
        assert doc["ancilla_qubits"] == [7, 8]
        step = doc["steps"][0]
        assert set(step) == {"measure", "correct", "replaced_index"}
