"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion and prints a
PASS/FAIL line (run with `pytest -s` to see them).  All value checks are
exact; the quoted runtimes are expectations, printed for reference.
"""

import time
import zlib
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest

from stabswitch import analysis, catalog, fixtures, gadgets, pauli, rewiring, tableau
from stabswitch.pauli import PauliOp


def report(number: int, label: str, started: float) -> None:
    print(f"ACCEPTANCE {number}: PASS ({label}, {time.time() - started:.2f}s)")


def fixture_path(name: str) -> rewiring.ConversionPath:
    return rewiring.build_path(
        rewiring.load_fixture_decomposition(fixtures.fixture_text(name))
    )


def test_01_table1_reproduction():
    t0 = time.time()
    path = fixture_path("table1")
    assert len(path.intermediates) == 6  # endpoints + 4 strict intermediates
    for code in path.intermediates:
        rep = analysis.code_distance(code, cap=3)
        assert rep.exact and rep.distance == 3
    assert gadgets.gate_count(path) == 17
    report(1, "table1: six codes at distance exactly 3, 17 multi-qubit gates", t0)


def test_02_table2_reproduction():
    t0 = time.time()
    dec = rewiring.load_fixture_decomposition(fixtures.fixture_text("table2"))
    # the bridge is the product of the two complementary logical operators
    bridge = PauliOp.from_string("XXXXXXXXX") * PauliOp.from_string("XXXXXXXII")
    assert np.array_equal(dec.bridges, [bridge.vector]) and bridge.sign == +1
    path = rewiring.build_path(dec)
    assert path.n == 9
    assert analysis.verify_path(path, 3).ok
    report(2, "table2: bridged conversion distance-preserving at d=3 on 9 qubits", t0)


def test_03_table3_reproduction():
    t0 = time.time()
    path = fixture_path("table3")
    assert path.m == 2
    assert path.ancilla_qubits == (7, 8)
    assert analysis.verify_path(path, 3).ok
    report(3, "table3: m=2 conversion distance-preserving at d=3", t0)


def test_04_minimal_ancilla_statistical():
    t0 = time.time()
    st34 = catalog.perm(catalog.STEANE7, "(34)")
    budget = 10_000
    for m in (0, 1):
        cfg = rewiring.RewiringConfig(m=m, seed=999, max_retries=budget, min_distance=3)
        with pytest.raises(rewiring.SearchExhaustedError) as err:
            rewiring.search(catalog.STEANE7, st34, cfg)
        assert err.value.retries == budget
    cfg = rewiring.RewiringConfig(m=2, seed=999, max_retries=budget, min_distance=3)
    result = rewiring.search(catalog.STEANE7, st34, cfg)
    assert result.retries_used <= budget
    assert analysis.verify_path(result.path, 3).ok
    report(
        4,
        f"(34)-permutation pair: no path at m=0,1 over {budget} retries each; "
        f"m=2 succeeds at retry {result.retries_used}",
        t0,
    )


def test_05_masking_probability_oracles():
    t0 = time.time()
    closed3 = analysis.masking_exact(3)
    assert closed3 == Fraction(5, 21)
    orthogonal_pairs = [
        ((1, 0, 0), (0, 1, 0)),
        ((1, 0, 0), (0, 0, 1)),
        ((1, 1, 0), (0, 0, 1)),
        ((1, 1, 1), (1, 1, 0)),
        ((0, 1, 1), (1, 1, 1)),
    ]
    for v, w in orthogonal_pairs:
        assert sum(a * b for a, b in zip(v, w)) % 2 == 0
        assert analysis.masking_enumerate(3, v, w) == closed3
    overlapping_pairs = [((1, 0, 0), (1, 0, 0)), ((1, 1, 0), (0, 1, 0)), ((1, 1, 1), (0, 0, 1))]
    for v, w in overlapping_pairs:
        assert sum(a * b for a, b in zip(v, w)) % 2 == 1
        assert analysis.masking_enumerate(3, v, w) == 0
    # the n = 2 truth exceeds the (n-1) 2^-n reference value
    assert analysis.masking_enumerate(2, (1, 0), (0, 1)) == Fraction(1, 3)
    assert Fraction(1, 3) > Fraction(1, 4)
    # n = 5: two independent million-sample estimators agree within 4 SE,
    # and the closed form they estimate sits below the reference bound
    v5 = np.array([1, 0, 0, 0, 0], dtype=np.uint8)
    w5 = np.array([0, 0, 0, 0, 1], dtype=np.uint8)
    est1 = analysis.masking_mc(5, v5, w5, 1_000_000, np.random.default_rng(51))
    est2 = analysis.masking_mc(5, v5, w5, 1_000_000, np.random.default_rng(52))
    combined = (est1.stderr**2 + est2.stderr**2) ** 0.5
    assert abs(est1.estimate - est2.estimate) <= 4 * combined
    truth = float(analysis.masking_exact(5))
    assert abs(est1.estimate - truth) <= 4 * est1.stderr
    assert abs(est2.estimate - truth) <= 4 * est2.stderr
    assert analysis.masking_exact(5) <= Fraction(4, 32)
    report(5, "masking probability: enumeration = closed form = 5/21, MC consistent", t0)


def test_06_commutativity_property_suite():
    t0 = time.time()
    rng = np.random.default_rng(6060)
    for trial in range(100):
        s = pauli.random_stabilizer_code(6, 1, rng)
        sp = pauli.random_stabilizer_code(6, 1, rng)
        m = trial % 4
        padded_s, padded_sp = rewiring.pad(s, sp, m)
        rep = analysis.commutativity_check(padded_s, padded_sp, m, rng=rng, basis_trials=5)
        assert rep.invertible
        assert rep.gc_ge_m
        assert rep.presentation_rank == rep.gc
        assert all(r == rep.gc for r in rep.basis_change_ranks)
    report(6, "100 random [[6,1]] pairs, m in 0..3: pairing matrix invertible, rank invariant", t0)


def test_07_channel_semantics_both_branches():
    t0 = time.time()
    path = fixture_path("table1")
    frame = tableau.logical_frame(path.source)
    for spec in ("+Z", "+X"):
        for i, step in enumerate(path.steps):
            for branch in (+1, -1):
                t = tableau.encode(path.source, frame, spec)
                # advance to the pre-step code deterministically
                for j in range(i):
                    tableau.run_step(t, path.steps[j], forced=+1)
                tableau.run_step(t, step, forced=branch)
                assert t.stabilizes(path.intermediates[i + 1])
    report(7, "every table1 step stabilizes the post-step code on both outcome branches", t0)


def test_08_logical_information_preservation():
    t0 = time.time()
    total = 0
    for name in ("table1", "table2", "table3"):
        path = fixture_path(name)
        frame = tableau.logical_frame(path.source)
        carried = tableau.transport_logicals(frame, path)
        for spec, ops in (("+Z", carried.logical_z), ("+X", carried.logical_x)):
            for seed in range(20):
                t = tableau.encode(path.source, frame, spec)
                tableau.run_path(t, path, np.random.default_rng(zlib.crc32(name.encode()) ^ seed))
                assert t.stabilizes(path.target)  # includes ancilla disentanglement
                for op in ops:
                    assert t.contains(op)
                total += 1
    assert total == 120
    report(8, "120/120 trials preserved encoded logical eigenvalues across all fixtures", t0)


def test_09_cross_module_oracle(losing_path):
    t0 = time.time()
    for name in ("table1", "table2", "table3"):
        path = fixture_path(name)
        assert analysis.verify_path(path, 3).ok
        inj = tableau.inject_and_check(path, 2)
        assert inj.ok and inj.syndrome_mismatches == 0
    # negative control: an honest path whose code 1 has distance 1
    ver = analysis.verify_path(losing_path, 3)
    assert not ver.ok and (ver.failing_index, ver.witness.to_string()) == (1, "IIIIIIZ")
    inj = tableau.inject_and_check(losing_path, 2)
    assert not inj.ok
    assert (inj.failures[0][0], inj.failures[0][1].to_string()) == (1, "IIIIIIZ")
    report(9, "verify_path(d=3) and inject_and_check(cap=2) agree on all paths", t0)


def _decimal_bound(n: int, m: int, d: int, gc: int) -> Decimal:
    getcontext().prec = 60
    total = n + m
    p = Decimal(d - 1) / Decimal(total)
    q = Decimal(3) / Decimal(4)
    kl = (1 / (1 - q)).ln() if p == 0 else p * (p / q).ln() + (1 - p) * ((1 - p) / (1 - q)).ln()
    return (
        Decimal(total) * Decimal(4).ln()
        - kl * Decimal(total)
        + Decimal(gc + 1).ln()
        - Decimal(gc) * Decimal(2).ln()
    ).exp()


def test_10_bound_oracles():
    t0 = time.time()
    grid = [(n, m, 3) for n in (5, 7, 9, 12, 20) for m in (0, 2, 5, 8)]
    assert len(grid) == 20
    for n, m, d in grid:
        got = analysis.failure_bound(n, m, d, gc=m).raw
        want = float(_decimal_bound(n, m, d, gc=m))
        assert got == pytest.approx(want, rel=5e-12)  # 12 significant digits
    ms = [analysis.min_ancilla(9, 3, eps).m for eps in (1.0, 0.3, 0.1, 0.03, 0.01)]
    assert all(a <= b for a, b in zip(ms, ms[1:]))
    for eps in (1.0, 0.3, 0.1):
        m = analysis.min_ancilla(9, 3, eps).m
        assert analysis.failure_bound(9, m, 3, gc=m).raw < eps
        if m > 0:
            assert analysis.failure_bound(9, m - 1, 3, gc=m - 1).raw >= eps
    report(10, "failure bound matches 60-digit oracle to 12 digits; ancilla scan consistent", t0)
