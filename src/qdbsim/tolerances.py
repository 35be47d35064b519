"""Numerical tolerances used across the library.

Every comparison threshold lives here so the contract is visible in one place;
operations must not invent ad-hoc epsilons.
"""

# Norm drift allowed after any single gate application.
NORM_TOL = 1e-10

# Default tolerance for state-equality checks (up to global phase).
STATE_TOL = 1e-9

# Singular values below this count as zero when computing Schmidt rank.
SCHMIDT_CUTOFF = 1e-9

# Projections with probability below this are treated as projections onto
# nothing and rejected.
PROJECTION_ZERO_TOL = 1e-14

# Amplitude dumps omit basis states whose magnitude |amp| is at most this.
DUMP_THRESHOLD = 1e-12

# An entry whose weight, the sum of |amp|^2 over its index pattern, is at
# most this carries no amplitude: it counts as unoccupied, and writes, reads
# and removals refuse it. A weight, not a magnitude: an entry of one basis
# state with |amp| = 1e-7 is dumped, yet carries no amplitude.
EMPTY_ENTRY_WEIGHT = 1e-12

# Amplitude agreement demanded of transfer results and preflight checks.
TRANSFER_AMP_TOL = 1e-8

# Residual allowed when solving the final amplification step.
PLAN_RESIDUAL_TOL = 1e-10

# Agreement demanded between circuit simulation and dense-operator oracle.
ORACLE_TOL = 1e-12

# Distance from 1 allowed in the sensor's purity after a write that keeps it.
WRITE_PURITY_TOL = 1e-10
