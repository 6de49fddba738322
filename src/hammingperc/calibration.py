"""Frozen constants behind report thresholds and inequality checks.

Two kinds of entries live here.  Acceptance-pinned values are part of the
pass/fail contract and never move.  Empirically calibrated ceilings stand in
for constants that theory only guarantees to exist: each was computed on the
recorded reference grid, multiplied by 1.5, and frozen.  Recalibrating means
rerunning the recorded recipe and bumping CALIBRATION_VERSION.
"""

CALIBRATION_VERSION = 1

# P(ell <= F <= 2*ell) * sqrt(ell) stays below this for supercritical laws.
# Grid: N=2000, eps=0.05, ell in {1e2, 1e3, 1e4}; observed max 0.18980.
INTERVAL_SQRT_CONSTANT = 0.285

# |tail gap| / (|eps gap| + 1/(N*sqrt(ell)) + ell**-3) ceiling for two laws
# sharing p.  Grid: N=2000 vs N-{5,10,50,100}, eps=0.05 at N=2000,
# ell in {10, 1e2, 1e3, 1e4}; observed max 1.815.
TAIL_DIFFERENCE_CONSTANT = 2.73

# Ceiling on max-per-line occupancy of a capped exploration, as a multiple of
# eta*n.  Grid: d=2 n=300, eps=0.04, eta=sqrt(eps)*V**(-1/6), cap=ceil(eta*V),
# 2000 pilot runs at master seed 314159; observed max multiple 4.80.
LINE_OCCUPANCY_CEILING = 7.2

# Acceptance-pinned thresholds (part of the pass/fail contract).
Z_CONCENTRATION_THRESHOLD = 0.15          # sd(Z_{>=k}) / (eps*V)
GIANT_MEDIAN_BAND = 0.10                  # median cmax/V vs survival prob
GIANT_RATIO_BRACKET = (0.8, 1.05)         # median cmax / (2*eps*V)
CHI_SUBCRITICAL_TOLERANCE = 0.15          # relative, against 1/|eps|
CRITICAL_WINDOW_BRACKET = (0.1, 10.0)     # cmax / V**(2/3) at eps = 0
CRITICAL_WINDOW_FRACTION = 0.9
SPRINKLE_MERGE_FRACTION = 0.95
GOOD_LINE_REPLICA_FRACTION = 0.95
