import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import old_error_vectors, old_verify_path
from stabswitch import analysis, catalog, fixtures, gf2, pauli, rewiring
from stabswitch.pauli import PauliOp, StabilizerCode

ROOT = Path(__file__).resolve().parents[1]


def rowspace_key(code: StabilizerCode) -> bytes:
    return gf2.rref(code.generator_matrix)[0].tobytes()


def swap_decomposition(dec: rewiring.Decomposition) -> rewiring.Decomposition:
    """The same prepared blocks viewed from the target side.

    Building the swapped decomposition walks the identical set of
    intermediate groups in the opposite direction (the direct blocks are
    reversed to keep the pairing matrix the identity, and the plan runs
    backwards: a bridge's two exchanges trade places and direct slot i
    becomes slot c - 1 - i).  Ancilla metadata is dropped: the swap
    exists to exercise the symmetry property, not to drive a simulation.
    """
    a, b, c = dec.counts()

    def mirror(slot, row):
        if row >= 2 * b:  # a direct exchange
            return 2 * (a + b) + c - 1 - slot, 4 * b + c - 1 - row
        return slot, (row + b) % (2 * b)

    return dataclasses.replace(
        dec,
        source=dec.target,
        target=dec.source,
        ancilla_qubits=(),
        bridged_src=dec.bridged_tgt,
        bridged_tgt=dec.bridged_src,
        direct_src=dec.direct_tgt[::-1],
        direct_tgt=dec.direct_src[::-1],
        plan=tuple(mirror(*step) for step in reversed(dec.plan)),
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
        assert gf2.rank(np.vstack([dec.shared, steane7.generator_matrix])) == 6

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
        assert np.array_equal(
            gf2.symplectic_products(dec.direct_tgt, dec.direct_src), gf2.identity(len(dec.direct_src))
        )

    def test_all_blocks_carry_group_signs(self, steane7, perfect5):
        # every row lies in its group, which fixes its sign, and a shared
        # row has the same sign in both groups
        pa, pb = rewiring.pad(steane7, perfect5, 1)
        dec = rewiring.decompose(pa, pb)
        for code, rows in (
            (pa, np.vstack([dec.shared, dec.bridged_src, dec.direct_src])),
            (pb, np.vstack([dec.shared, dec.bridged_tgt, dec.direct_tgt])),
        ):
            assert all(op is not None for op in _oracle_sign(code, rows))
        assert _oracle_sign(pa, dec.shared) == _oracle_sign(pb, dec.shared)

    def test_canonical_plan(self, steane7, perfect5):
        dec = rewiring.decompose(*rewiring.pad(steane7, perfect5, 0))
        assert dec.counts() == (0, 1, 5)
        # slot 0 takes bridge 0 (row 0), slots 1..5 take direct' rows 2..6,
        # then slot 0 takes bridged' row 1
        assert dec.plan == ((0, 0), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 1))

    def test_sign_mismatch_detected(self):
        plus = StabilizerCode.from_strings(["ZZ", "XX"])
        minus = StabilizerCode.from_strings(["-ZZ", "XX"])
        with pytest.raises(rewiring.SignMismatchError):
            rewiring.decompose(plus, minus)


class TestRandomize:
    def test_pairing_preserved_and_groups_unchanged(self, steane7, perfect5):
        pa, pb = rewiring.pad(steane7, perfect5, 1)
        dec = rewiring.decompose(pa, pb)
        for seed in range(5):
            mixed = rewiring.randomize(dec, [np.random.default_rng(seed)]).draw(0)
            c = len(mixed.direct_src)
            assert np.array_equal(gf2.symplectic_products(mixed.direct_tgt, mixed.direct_src), gf2.identity(c))
            assert all(op is not None for op in _oracle_sign(pa, mixed.direct_src))
            assert all(op is not None for op in _oracle_sign(pb, mixed.direct_tgt))


class TestSolveBridges:
    def test_no_bridged_pairs_is_noop(self, table_decompositions):
        dec = rewiring.decompose(
            table_decompositions["table1"].source, table_decompositions["table1"].target
        )
        out = rewiring.solve_bridges(dec)
        assert out.bridges.shape == (0, 2 * dec.padded_n)

    def bridge_constraints_hold(self, dec):
        def commutes(v, w):
            return gf2.symplectic_product(v, w) == 0

        for i, bridge in enumerate(dec.bridges):
            for row in np.vstack([dec.shared, dec.direct_src, dec.direct_tgt]):
                assert commutes(bridge, row)
            for j in range(len(dec.bridged_src)):
                src, tgt = dec.bridged_src[j], dec.bridged_tgt[j]
                if j > i:
                    assert commutes(bridge, src) and commutes(bridge, tgt)
                elif j == i:
                    assert not commutes(bridge, src) and not commutes(bridge, tgt)
            for j in range(i):
                assert commutes(bridge, dec.bridges[j])

    def test_constraint_oracle(self, steane7, perfect5):
        pa, pb = rewiring.pad(steane7, perfect5, 0)
        dec = rewiring.decompose(pa, pb)
        assert len(dec.bridged_src) == 1
        for seed in range(5):
            mixed = rewiring.randomize(dec, [np.random.default_rng(seed)]).draw(0)
            solved = rewiring.solve_bridges(mixed)
            self.bridge_constraints_hold(solved)

    def test_weight_sampling_never_worse(self, steane7, perfect5):
        pa, pb = rewiring.pad(steane7, perfect5, 0)
        dec = rewiring.randomize(rewiring.decompose(pa, pb), [np.random.default_rng(3)]).draw(0)
        plain = rewiring.solve_bridges(dec)
        light = rewiring.solve_bridges(dec, np.random.default_rng(4), weight_samples=64)
        self.bridge_constraints_hold(light)
        assert PauliOp.from_vector(light.bridges[0]).weight <= PauliOp.from_vector(plain.bridges[0]).weight


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

    def test_steps_that_do_not_produce_the_codes_are_rejected(self, table_paths):
        path = table_paths["table1"]
        forged = rewiring.ConversionStep(
            measure=PauliOp.from_string("IIIIIIZ"), correct=PauliOp.from_string("IIIIIIX"), replaced_index=1
        )
        with pytest.raises(rewiring.AdjacencyViolationError):
            dataclasses.replace(path, steps=(forged,) + path.steps[1:])


def old_same_group(a, b):
    return a.n == b.n and len(a.gens) == len(b.gens) and pauli.group_elements(a, b.generator_matrix) == list(b.gens)


def old_walk_steps(start, steps, source, target):
    """The per-step reconstruction _walk_steps replaced: one syndrome
    product per step, and every code built by the validating constructor."""
    if not old_same_group(start, source):
        raise rewiring.AdjacencyViolationError("the first code does not present the source group")
    codes = [start]
    for step in steps:
        code, idx = codes[-1], step.replaced_index
        if not 0 <= idx < len(code.gens) or code.gens[idx] != step.correct:
            raise rewiring.AdjacencyViolationError(f"step correction {step.correct} is not generator {idx} of its code")
        syn = pauli.syndrome(code, step.measure)
        if not syn[idx]:
            raise rewiring.AdjacencyViolationError(f"{step.measure} commutes with the generator it replaces")
        if syn.sum() != 1:
            other = code.gens[next(j for j in np.nonzero(syn)[0] if j != idx)]
            raise rewiring.AdjacencyViolationError(f"{step.measure} anticommutes with untouched generator {other}")
        gens = list(code.gens)
        gens[idx] = step.measure
        codes.append(StabilizerCode(code.n, tuple(gens)))
    if not old_same_group(codes[-1], target):
        raise rewiring.AdjacencyViolationError("final code does not match the padded target group")
    return tuple(codes)


def walk_outcome(walk, *args):
    try:
        return walk(*args)
    except (rewiring.AdjacencyViolationError, ValueError) as exc:
        return type(exc), str(exc)


def operator_with_syndrome(code, bits, rng, sign):
    """A random signed operator whose commutation bits against code's
    generators are `bits`."""
    x0, ker = gf2.solve_affine(gf2.swap_xz(code.generator_matrix), np.asarray(bits, dtype=np.uint8))
    return PauliOp.from_vector((x0 + rng.integers(0, 2, len(ker)) @ ker) % 2, sign)


def representation(code, rng):
    """The same signed group under a random invertible remix of its generators."""
    mix = gf2.random_gl(len(code.gens), rng)[0]
    return StabilizerCode(code.n, tuple(pauli.product((code.gens[i] for i in np.nonzero(row)[0]), n=code.n) for row in mix))


def flipped(code, j):
    g = code.gens[j]
    return StabilizerCode(code.n, code.gens[:j] + (PauliOp(g.x, g.z, -g.sign),) + code.gens[j + 1 :])


class TestWalkStepsMatchesPerStepCodes:
    """_walk_steps derives each code by exchange from one syndrome product;
    on random exchange sequences, valid and broken at each check, it must
    give the old per-step walk's codes and generator matrices, or raise
    its error with its message."""

    def sequences(self, rng):
        codes = [catalog.STEANE7, catalog.PERFECT5, catalog.SHOR9]
        codes += [rewiring.pad(a, b, m)[i] for a, b, m in ((catalog.STEANE7, catalog.PERFECT5, 1),
                                                            (catalog.PERFECT5, catalog.SHOR9, 2)) for i in (0, 1)]
        while len(codes) < 160:
            n = int(rng.integers(2, 11))
            code = pauli.random_stabilizer_code(n, int(rng.integers(0, n)), rng)
            codes.append(code)
        for code in codes:
            chain, steps = [code], []
            for _ in range(int(rng.integers(0, 9))):
                cur = chain[-1]
                slot = int(rng.integers(len(cur.gens)))
                op = operator_with_syndrome(cur, np.arange(len(cur.gens)) == slot, rng, int(rng.choice([1, -1])))
                steps.append(rewiring.ConversionStep(op, cur.gens[slot], slot))
                chain.append(StabilizerCode(cur.n, cur.gens[:slot] + (op,) + cur.gens[slot + 1 :]))
            yield chain, steps

    def broken(self, chain, steps, rng):
        """(kind, start, steps, source, target) cases: the valid walk under
        re-presented endpoints, then one case per check that can fail."""
        start, end = chain[0], chain[-1]
        yield "valid", start, steps, representation(start, rng), representation(end, rng)
        j = int(rng.integers(len(start.gens)))
        yield "source", start, steps, flipped(start, j), end
        yield "target", start, steps, start, flipped(end, j)
        if not steps:
            return
        at = int(rng.integers(len(steps)))
        code, step, r = chain[at], steps[at], len(chain[at].gens)

        def replace(**edit):
            return steps[:at] + [dataclasses.replace(step, **edit)] + steps[at + 1 :]

        yield "correction", start, replace(replaced_index=int(rng.choice([-1, r]))), start, end
        yield "correction", start, replace(correct=PauliOp(step.correct.x, step.correct.z, -step.correct.sign)), start, end
        yield "commutes", start, replace(measure=operator_with_syndrome(code, np.zeros(r), rng, 1)), start, end
        if r > 1:
            other = (step.replaced_index + int(rng.integers(1, r))) % r
            bits = np.isin(np.arange(r), [step.replaced_index, other])
            yield "untouched", start, replace(measure=operator_with_syndrome(code, bits, rng, 1)), start, end
        wide = PauliOp.from_string("X" * (code.n + 1))
        yield "length", start, replace(measure=wide), start, end

    def test_random_exchange_sequences(self):
        rng = np.random.default_rng(1709)
        kinds = {}
        for chain, steps in self.sequences(rng):
            for kind, start, walk, source, target in self.broken(chain, steps, rng):
                got = walk_outcome(rewiring._walk_steps, start, walk, source, target)
                want = walk_outcome(old_walk_steps, start, walk, source, target)
                if isinstance(want, tuple) and isinstance(want[0], type):
                    assert got == want, kind
                    kinds.setdefault(kind, set()).add(want[1].split(" ")[0] if kind == "length" else want[0])
                    continue
                assert kind == "valid" and got == want
                for new, old in zip(got, want):
                    assert np.array_equal(new.generator_matrix, old.generator_matrix)
                    assert not new.generator_matrix.flags.writeable
                kinds.setdefault(kind, set()).add(len(walk))
        assert set(kinds) == {"valid", "source", "target", "correction", "commutes", "untouched", "length"}
        assert kinds["length"] == {"operator"}
        assert len(kinds["valid"]) == 9  # 0 to 8 steps


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
            rewiring.randomize(rewiring.decompose(pa, pb), [np.random.default_rng(8)]).draw(0)
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

    def test_path_carries_seed_and_round_trips(self, searched_steane_to_five):
        path = searched_steane_to_five.path
        assert path.seed == 12345
        assert rewiring.ConversionPath.from_json(path.to_json()) == path

    def test_accepted_path_is_walked_once(self, monkeypatch, steane7, perfect5):
        walks = []
        walk = rewiring._walk_steps

        def counted(*args):
            walks.append(len(args[1]))
            return walk(*args)

        monkeypatch.setattr(rewiring, "_walk_steps", counted)
        cfg = rewiring.RewiringConfig(m=0, seed=12345, max_retries=2000, min_distance=3)
        res = rewiring.search(steane7, perfect5, cfg)
        assert walks == [len(res.path.steps)]

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


def _oracle_sign(code, rows):
    """The signed group element of each row, one solve per row (None for a
    row outside the group): how the signed decomposition got its signs."""
    out = []
    for v in rows:
        try:
            coeff, _ = gf2.solve_affine(code.generator_matrix.T, v)
        except gf2.InconsistentSystemError:
            out.append(None)
        else:
            out.append(pauli.product((code.gens[i] for i in np.nonzero(coeff)[0]), n=code.n))
    return tuple(out)


@dataclasses.dataclass(frozen=True)
class _SignedBlocks:
    """The signed decomposition the row-only one replaced."""

    source: StabilizerCode
    target: StabilizerCode
    m: int
    ancilla_qubits: tuple
    shared: tuple
    bridged_src: tuple
    bridged_tgt: tuple
    direct_src: tuple
    direct_tgt: tuple
    bridges: tuple | None = None


def _oracle_decompose(source, target, m):
    pa, pb = rewiring.pad(source, target, m)
    ga, gb, gc, gbp, gcp = rewiring.subspace_bases(pa.generator_matrix, pb.generator_matrix)
    return _SignedBlocks(
        pa, pb, m, rewiring.ancilla_qubits_for(source, target, m),
        _oracle_sign(pa, ga), _oracle_sign(pa, gb), _oracle_sign(pb, gbp), _oracle_sign(pa, gc), _oracle_sign(pb, gcp),
    )


def _mix(coeff_bridged, coeff_direct, bridged, direct, n):
    """Rows of products selected by two coefficient matrices (sign-exact)."""
    out = []
    for rb, rc in zip(coeff_bridged, coeff_direct):
        factors = [bridged[j] for j in np.nonzero(rb)[0]]
        factors += [direct[j] for j in np.nonzero(rc)[0]]
        out.append(pauli.product(factors, n=n))
    return tuple(out)


def _oracle_randomize(dec, rng):
    """The signed randomization the row draw replaced."""
    b, c = len(dec.bridged_src), len(dec.direct_src)
    n = dec.source.n
    v = gf2.random_matrix(c, b, rng)
    vp = gf2.random_matrix(c, b, rng)
    u = gf2.random_gl(c, rng)[0]
    uit = gf2.invert(u).T
    new_src = _mix((u @ v) % 2, u, dec.bridged_src, dec.direct_src, n)
    new_tgt = _mix((uit @ vp) % 2, uit, dec.bridged_tgt, dec.direct_tgt, n)
    return dataclasses.replace(dec, direct_src=new_src, direct_tgt=new_tgt, bridges=None)


def _oracle_solve_bridges(dec, rng, weight_samples):
    """The signed bridge solve the row solve replaced."""
    n = dec.source.n
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


def _oracle_build(dec):
    """The signed exchange sequence in canonical order (bridged pairs move
    to their bridges, the direct block swaps over, the bridges resolve in
    reverse), built with the signs the blocks carry."""
    a, b, c = len(dec.shared), len(dec.bridged_src), len(dec.direct_src)
    n = dec.source.n
    gens = list(dec.shared + dec.bridged_src + dec.direct_src)
    codes, steps = [StabilizerCode(n, tuple(gens))], []
    moves = [(a + i, dec.bridges[i]) for i in range(b)]
    moves += [(a + b + i, dec.direct_tgt[i]) for i in range(c)]
    moves += [(a + i, dec.bridged_tgt[i]) for i in reversed(range(b))]
    for idx, op in moves:
        steps.append(rewiring.ConversionStep(measure=op, correct=gens[idx], replaced_index=idx))
        gens[idx] = op
        codes.append(StabilizerCode(n, tuple(gens)))
    path = rewiring.ConversionPath(dec.source, dec.target, codes[0], tuple(steps), dec.ancilla_qubits, dec.m)
    assert path.intermediates == tuple(codes)
    return path


def _oracle_search(source, target, cfg):
    """Signed path and the per-error distance loop on every draw: the loop
    search replaced.  Returns (rejections, retries used or None, best
    floor, path JSON)."""
    base = _oracle_decompose(source, target, cfg.m)
    rejections, best = [], None
    for retry in range(cfg.max_retries):
        rng = rewiring.child_rng(cfg.seed, retry)
        dec = _oracle_solve_bridges(_oracle_randomize(base, rng), rng, cfg.bridge_weight_samples)
        path = _oracle_build(dec)
        failing_index, witness = old_verify_path(path, cfg.min_distance)
        if witness is None:
            doc = dataclasses.replace(path, seed=cfg.seed).to_json()
            return rejections, retry + 1, best, json.dumps(doc)
        rejections.append((retry, failing_index, witness.to_string()))
        best = witness.weight if best is None else max(best, witness.weight)
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
        assert got == (used, best, doc)
        assert [(r.retry, r.failing_index, r.witness.to_string()) for r in seen] == rejections
        outcomes.add(used is not None)
    # both branches are compared: no (34) path exists below m = 2, and
    # with more ancillas some draws are accepted
    if tgt == "perm(steane7,(34))" and m < 2:
        assert outcomes == {False}
    if m >= 2:
        assert True in outcomes


def _per_draw_randomize(dec, rng):
    """randomize as it ran before retries were screened in chunks: one
    draw, V and V' drawn even when empty."""
    _, b, c = dec.counts()
    v = gf2.random_matrix(c, b, rng)
    vp = gf2.random_matrix(c, b, rng)
    u, u_inv = gf2.random_gl(c, rng)
    uit = u_inv.T
    direct_src = ((u @ v) % 2 @ dec.bridged_src + u @ dec.direct_src) % 2
    direct_tgt = ((uit @ vp) % 2 @ dec.bridged_tgt + uit @ dec.direct_tgt) % 2
    if not np.array_equal(gf2.symplectic_products(direct_tgt, direct_src), gf2.identity(c)):
        raise rewiring.AdjacencyViolationError("randomization broke the direct pairing")
    return dataclasses.replace(dec, direct_src=direct_src, direct_tgt=direct_tgt, bridges=None)


def _first_failure(screen, dec):
    """(failing index, witness) of one unstacked draw, by screening it as
    a chunk of one, or None if every intermediate passes."""
    one = dataclasses.replace(dec, direct_src=dec.direct_src[None], direct_tgt=dec.direct_tgt[None])
    return next(((r.failing_index, r.witness) for r in screen.reject(one, 0)), None)


def _per_draw_first_failure(screen, dec):
    """The draw screen as it ran before the chunked walk: one draw, one
    generator list carried step by step, over the error vectors of the
    loop enumerator that commute with the shared block (the screen's
    letters give only the weight cap d - 1)."""
    a = len(dec.shared)
    errors = old_error_vectors(dec.padded_n, screen.letters.shape[1])
    errors = errors[~gf2.symplectic_products(dec.shared, errors).any(axis=0)]
    incoming = np.vstack([dec.bridges, dec.bridged_tgt, dec.direct_tgt])
    steps = [(idx, incoming[row]) for idx, row in dec.plan]
    gens = np.vstack([dec.bridged_src, dec.direct_src, *(inc for _, inc in steps)])
    syn = gf2.symplectic_products(gens, errors)
    live = len(gens) - len(steps)
    cur, cur_syn = gens[:live].copy(), syn[:live].copy()
    logicals = screen.logicals.copy()
    log_syn = gf2.symplectic_products(logicals, errors)
    for j in range(len(steps) + 1):
        bad = log_syn.any(axis=0) & ~cur_syn.any(axis=0)
        if bad.any():
            return j, PauliOp.from_vector(errors[int(np.argmax(bad))])
        if j < len(steps):
            idx, inc = steps[j]
            k = idx - a
            flip = gf2.symplectic_products(logicals, inc)[:, 0].astype(bool)
            logicals[flip] ^= cur[k]
            log_syn[flip] ^= cur_syn[k]
            cur[k], cur_syn[k] = inc, syn[live + j]
    return None


def _per_draw_search(source, target, cfg):
    """The retry loop before chunking: randomize, solve_bridges and the
    draw screen one retry at a time.  Returns (rejections, retries used
    or None, best floor, path JSON or None)."""
    ancilla = rewiring.ancilla_qubits_for(source, target, cfg.m)
    base = rewiring.decompose(*rewiring.pad(source, target, cfg.m), m=cfg.m, ancilla_qubits=ancilla)
    screen = rewiring.DrawScreen.of(base, cfg.min_distance)
    rejections, best = [], None
    for retry in range(cfg.max_retries):
        rng = rewiring.child_rng(cfg.seed, retry)
        dec = rewiring.solve_bridges(_per_draw_randomize(base, rng), rng, cfg.bridge_weight_samples)
        failure = _per_draw_first_failure(screen, dec)
        if failure is None:
            path = dataclasses.replace(rewiring.build_path(dec), seed=cfg.seed)
            return rejections, retry + 1, best, json.dumps(path.to_json())
        rejections.append((retry, failure[0], failure[1].to_string()))
        best = failure[1].weight if best is None else max(best, failure[1].weight)
    return rejections, None, best, None


def _bench_code(name):
    return str(ROOT / "bench" / "codes" / f"{name}.txt")


# source, target, m, bridge weight samples
CHUNK_CASES = [
    ("steane7", "perm(steane7,(34))", 0, 0),
    ("steane7", "perm(steane7,(34))", 1, 0),
    ("steane7", "perm(steane7,(34))", 2, 0),
    ("steane7", "perfect5", 0, 0),
    ("steane7", "perfect5", 0, 3),
    ("steane7", "perfect5", 4, 0),
    ("steane7", "perfect5", 4, 3),
    ("perfect5", "steane7", 0, 0),
    ("steane7", "rm15", 2, 0),
    ("surf9", "perfect5", 3, 0),
    ("surf9", "perfect5", 3, 2),
]


def _chunk_starts(cap, budget):
    """The first retry of each chunk search screens with chunk cap `cap`."""
    starts, size, retry = set(), 1, 0
    while retry < budget:
        starts.add(retry)
        retry, size = retry + size, min(2 * size, cap)
    return starts


@pytest.mark.parametrize("src,tgt,m,samples", CHUNK_CASES)
def test_chunked_search_matches_per_draw_loop(monkeypatch, src, tgt, m, samples):
    """30 seeds per case, 330 searches with 150 retries each: chunked
    screening gives the per-draw loop's retry count, path bytes,
    rejections, on_reject sequence and best floor, and so it does with
    the chunk cap at 1 and at 7 on every third seed."""
    resolve = {"rm15": _bench_code("rm15"), "surf9": _bench_code("surf9")}
    source, target = (catalog.resolve(resolve.get(name, name)) for name in (src, tgt))
    budget, default_cap = 150, rewiring._MAX_CHUNK
    accepted = {cap: set() for cap in (default_cap, 1, 7)}
    for seed in range(30):
        cfg = rewiring.RewiringConfig(m=m, seed=seed, max_retries=budget, min_distance=3, bridge_weight_samples=samples)
        want = _per_draw_search(source, target, cfg)
        for cap in accepted if seed % 3 == 0 else [default_cap]:
            monkeypatch.setattr(rewiring, "_MAX_CHUNK", cap)
            seen = []
            try:
                res = rewiring.search(source, target, cfg, on_reject=seen.append)
            except rewiring.SearchExhaustedError as exc:
                assert exc.retries == budget
                got = (None, exc.best_distance_floor, None)
            else:
                got = (res.retries_used, want[2], json.dumps(res.path.to_json()))
                accepted[cap].add(res.retries_used - 1)
            assert got == want[1:]
            assert [(r.retry, r.failing_index, r.witness.to_string()) for r in seen] == want[0]
    if tgt == "perm(steane7,(34))" and m < 2:
        assert not any(accepted.values())
    else:
        assert accepted[1]
    if (src, tgt, m) == ("steane7", "perm(steane7,(34))", 2):
        # accepted retries both open a chunk and sit inside one
        for cap in (default_cap, 7):
            starts = _chunk_starts(cap, budget)
            assert accepted[cap] & starts and accepted[cap] - starts


@pytest.mark.parametrize("src,tgt,m", [("steane7", "perm(steane7,(34))", 1), ("steane7", "perfect5", 4)])
def test_randomize_and_screen_match_per_draw_code(src, tgt, m):
    """Batch-of-one randomize and screen against the per-draw code
    on 200 draws: same rows, same generator state afterwards (b = 0 skips
    the empty V and V' draws), same failing index and witness."""
    source, target = catalog.resolve(src), catalog.resolve(tgt)
    base = rewiring.decompose(*rewiring.pad(source, target, m))
    screen = rewiring.DrawScreen.of(base, 3)
    outcomes = set()
    for seed in range(200):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = rewiring.randomize(base, [rng]).draw(0), _per_draw_randomize(base, oracle_rng)
        assert np.array_equal(got.direct_src, want.direct_src) and np.array_equal(got.direct_tgt, want.direct_tgt)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        dec = rewiring.solve_bridges(got, rng, 2)
        failure, oracle = _first_failure(screen, dec), _per_draw_first_failure(screen, dec)
        assert (failure and (failure[0], failure[1].to_string())) == (oracle and (oracle[0], oracle[1].to_string()))
        outcomes.add(failure is None)
    assert outcomes == ({False} if m < 2 else {False, True})


def test_wrong_inverse_inside_a_chunk_raises(monkeypatch, steane7):
    """A bad U^-1 on retry 5, inside the chunk of retries 3..6, fails the
    chunk's pairing check."""
    st34 = catalog.perm(steane7, "(34)")
    draws = []
    real = gf2.random_gl

    def random_gl(dim, rng):
        u, u_inv = real(dim, rng)
        draws.append(u)
        if len(draws) == 6:
            u_inv = u_inv ^ gf2.identity(dim)
        return u, u_inv

    monkeypatch.setattr(gf2, "random_gl", random_gl)
    cfg = rewiring.RewiringConfig(m=1, seed=7, max_retries=40, min_distance=3)
    seen = []
    with pytest.raises(rewiring.AdjacencyViolationError, match="pairing"):
        rewiring.search(steane7, st34, cfg, on_reject=seen.append)
    assert len(draws) == 7 and [r.retry for r in seen] == [0, 1, 2]


def _direct_mix_from_u(dec, u):
    """Deterministic remix of the direct blocks by an explicit invertible u."""
    uit = gf2.invert(u).T
    return dataclasses.replace(
        dec,
        direct_src=u @ dec.direct_src % 2,
        direct_tgt=uit @ dec.direct_tgt % 2,
        bridges=gf2.zeros((0, 2 * dec.padded_n)),
    )


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
        assert [op.to_string() for op in pauli.group_elements(dec.source, dec.shared)] == ["-YXXYIZZ"]
        assert dec.counts() == (1, 0, 5)
        # build_path reads the printed sign back off the group
        assert rewiring.build_path(dec).intermediates[0].gens[0].to_string() == "-YXXYIZZ"

    def test_table2_bridged_pair_and_bridge(self, table_decompositions):
        dec = table_decompositions["table2"]
        assert [PauliOp.from_vector(v).to_string() for v in dec.bridged_src] == ["ZZZZIIIZI"]
        assert [PauliOp.from_vector(v).to_string() for v in dec.bridged_tgt] == ["ZZIIIIZZI"]
        # the bridge is the product of the two complementary logicals
        prod = PauliOp.from_string("XXXXXXXXX") * PauliOp.from_string("XXXXXXXII")
        assert prod.to_string() == "IIIIIIIXX"
        assert np.array_equal(dec.bridges, [prod.vector])

    def test_table2_plan_follows_printed_rows(self, table_decompositions):
        dec = table_decompositions["table2"]
        assert dec.counts() == (2, 1, 5)
        # a C row (slot 3 takes direct' row 2), the B row (slot 2 takes the
        # bridge, row 0, then bridged' row 1), then four C rows
        assert dec.plan == ((3, 2), (2, 0), (2, 1), (4, 3), (5, 4), (6, 5), (7, 6))

    def test_table3_shared_rows(self, table_decompositions):
        dec = table_decompositions["table3"]
        assert len(dec.shared) == 4
        assert dec.m == 2 and dec.ancilla_qubits == (7, 8)

    def test_fixture_rejects_corrupt_bridge(self):
        text = fixtures.TABLE2.replace("bridge = IIIIIIIXX", "bridge = XXXXXXXXX")
        with pytest.raises(rewiring.FixtureInvalidError):
            rewiring.load_fixture_decomposition(text)

    def test_fixture_rejects_signed_bridge(self):
        # bridges are rows with sign +1; a printed sign would be dropped
        text = fixtures.TABLE2.replace("bridge = IIIIIIIXX", "bridge = -IIIIIIIXX")
        with pytest.raises(rewiring.FixtureInvalidError, match="carries a sign"):
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

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("n", 3, "declared n=3"),
            ("n", "7", "declared n='7'"),
            ("m", -5, "m must be an integer >= 0"),
            ("m", 1.5, "m must be an integer >= 0"),
            ("m", True, "m must be an integer >= 0"),
            ("ancilla_qubits", [99], "ancilla_qubits must be distinct integers in 0..6"),
            ("ancilla_qubits", [-1], "ancilla_qubits must be distinct integers"),
            ("ancilla_qubits", ["x"], "ancilla_qubits must be distinct integers"),
            ("ancilla_qubits", [5, 5], "ancilla_qubits must be distinct integers"),
            ("ancilla_qubits", 5, "ancilla_qubits must be distinct integers"),
            ("ancilla_qubits", [0], "the target fixes no single-qubit Z or X on ancilla qubit 0"),
            ("ancilla_qubits", [6, 4], "the target fixes no single-qubit Z or X on ancilla qubit 4"),
            ("seed", "abc", "seed must be null or an integer >= 0, got 'abc'"),
            ("seed", -5, "seed must be null or an integer >= 0"),
            ("seed", 1.5, "seed must be null or an integer >= 0"),
            ("seed", True, "seed must be null or an integer >= 0"),
            (("steps", 0, "replaced_index"), 1.7, "replaced_index must be an integer, got 1.7"),
            (("steps", 0, "replaced_index"), True, "replaced_index must be an integer, got True"),
            (("steps", 2, "replaced_index"), "1", "replaced_index must be an integer, got '1'"),
            (("steps", 4, "replaced_index"), None, "replaced_index must be an integer, got None"),
            ("n", 7.0, "declared n=7.0"),
            ("n", True, "declared n=True"),
        ],
    )
    def test_rejects_bad_metadata(self, table_paths, key, value, message):
        def edit(doc):
            *outer, last = key if isinstance(key, tuple) else (key,)
            for k in outer:
                doc = doc[k]
            doc[last] = value

        assert message in self.tampered(table_paths, edit)

    @pytest.mark.parametrize("key,value", [("k", True), ("k", 1.0), ("n", 7.0), ("n", True)])
    def test_rejects_non_integer_code_sizes(self, table_paths, key, value):
        doc = json.loads(json.dumps(table_paths["table1"].to_json()))
        for code in [doc["source"], doc["target"], *doc["intermediates"]]:
            code[key] = value
        with pytest.raises(pauli.CodeFormatError, match=f"declared {key}={value!r}"):
            rewiring.ConversionPath.from_json(doc)

    def test_accepts_valid_metadata(self, table_paths):
        doc = table_paths["table1"].to_json()
        doc["m"], doc["ancilla_qubits"] = 2, [6, 5]
        again = rewiring.ConversionPath.from_json(doc)
        assert again.m == 2 and again.ancilla_qubits == (6, 5)
        for seed in (None, 0, 2**63):
            doc["seed"] = seed
            assert rewiring.ConversionPath.from_json(doc).to_json()["seed"] == seed

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
