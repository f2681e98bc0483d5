"""Simulating the measure-and-correct channel on stabilizer states.

Encodes logical eigenstates of the source code, runs every conversion
step (measure the incoming generator, correct on a sign mismatch), and
confirms the target code stabilizes the result with the logical
information intact on both measurement branches.
"""

import numpy as np

from stabswitch import fixtures, rewiring, tableau

path = rewiring.build_path(
    rewiring.load_fixture_decomposition(fixtures.fixture_text("table1"))
)
frame = tableau.logical_frame(path.source)
carried = tableau.transport_logicals(frame, path)
print(f"logical Z travels {frame.logical_z[0]} -> {carried.logical_z[0]}")

rng = np.random.default_rng(7)
t = tableau.encode(path.source, frame, "+Z")
record = []
tableau.run_path(t, path, rng, record=record)
for entry in record:
    print(
        f"step {entry['step']}: outcome {entry['outcome']:+d}"
        + (" -> correction applied" if entry["corrected"] else "")
    )
print(f"target code stabilizes the result: {t.stabilizes(path.target)}")
print(f"logical +Z preserved: {t.contains(carried.logical_z[0])}")

# Forcing every outcome exercises the correction branch deterministically.
for forced in (+1, -1):
    t = tableau.encode(path.source, frame, "+X")
    tableau.run_path(t, path, forced=[forced] * len(path.steps))
    ok = t.stabilizes(path.target) and t.contains(carried.logical_x[0])
    print(f"all outcomes forced to {forced:+d}: logical +X preserved = {ok}")

# Exhaustive fault injection: every weight <= 2 error stays detectable in
# every intermediate code, and an encoded state of each intermediate carries
# every generator with its printed sign.
report = tableau.inject_and_check(path, error_weight_cap=2)
print(f"\ninjected {report.errors_checked} errors: all detectable = {report.ok}")
