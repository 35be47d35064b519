"""Growing a database in place: exact weight transfer, then unfolding.

No unitary can add an entry to an UNKNOWN database (see demo 06), but a
database whose build circuit is in hand can be grown exactly: reflect about
the prepared state to pump amplitude into the all-zero reservoir, then split
the loaded reservoir across fresh index patterns.
"""

import json
import math

from qdbsim import extend, plan_transfer, prepare_general, transfer, unfold

# The transfer plan is closed-form arithmetic: m = floor(m*) standard
# amplification steps at (phi, rho) = (pi, pi), then ONE shorter step whose
# phases are chosen to turn the state by exactly the remaining angle, so the
# reservoir amplitude lands on its target, then a global-phase fix on the
# zero string.
plan = plan_transfer(4, 2)
print("plan for k=4, l=2:")
print(json.dumps(plan.to_report(), indent=2))

# Run it: the reservoir ends at sqrt((l+1)/(k+l)) - weight for l new
# entries plus the reserve slot it keeps for itself.
db = prepare_general(4, data={1: "1", 3: "1"})
db, _ = transfer(db, 2)
print(f"\nreservoir after transfer: {abs(db.reservoir_amplitude()):.9f} "
      f"(target {math.sqrt(3/6):.9f})")

# Unfold splits the loaded reservoir into l new empty entries.
db = unfold(db)
print(f"after unfold: k={db.k}, labels {db.layout.labels}, "
      f"n_qubits={db.n_qubits}")
db.check()

# extend() chains transfer+unfold rounds, at most k new entries per round.
db2 = prepare_general(3, data={2: "1"})
plans = []
db2 = extend(db2, 7, plan_sink=plans.append)
print(f"\nextend k=3 by 7: rounds of {[p.l for p in plans]}, "
      f"final k={db2.k} on {db2.n_qubits} qubits")
db2.check()
print("all ten entries uniform:",
      all(abs(abs(db2.amplitude(j)) - math.sqrt(1/10)) < 1e-8
          for j in db2.layout.labels))
print("old data survived:", dict(db2.descriptor.data))
