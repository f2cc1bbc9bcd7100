"""Numerical slack constants and budgets shared across the package.

Each threshold that validation code compares against is named once here.
The values are fixed: no config file or argument changes them.
"""

# relative entrywise tolerance when deciding a matrix is symmetric
SYMMETRY_REL = 1e-12
# allowed negative slack on the smallest eigenvalue of a matrix accepted as
# positive semidefinite, and the default slack for Loewner-order comparisons
PSD_SLACK = 1e-9
# absolute tolerance on prior weights summing to one at construction
PRIOR_WEIGHT_SUM_ABS = 1e-12
# allowed excess over 1 for action and support-point Euclidean norms, and
# over [0, 1] for Bernoulli reward means
NORM_SLACK = 1e-12
# default slack when checking analytic inequalities numerically
INEQUALITY_SLACK = 1e-9
# allowed excess of the ridge potential sum over its log-det bound (eq. 1)
RIDGE_POTENTIAL_SLACK = 1e-8
# standard errors a Monte Carlo mean may exceed a one-sided bound by
MONTE_CARLO_SLACK_SE = 3.0
# allowed negative slack on per-round instantaneous regret
REGRET_SLACK = 1e-12
# relative gap below the leading eigenvalue within which the adversarial
# action rule treats eigenvalues as tied
EIGEN_TIE_REL = 1e-10
# share of Monte Carlo replications allowed to fail before a run is refused
REPLICATION_FAILURE_SHARE = 0.01
