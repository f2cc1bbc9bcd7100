"""Bayesian linear bandit simulator.

Numerically verifies log-det potential inequalities for posterior
covariances under general priors and noise, and runs replicated
posterior-sampling bandit experiments against the resulting regret
bounds.

Import each name from the submodule that defines it; the package root
exports only ``__version__``.
"""

__version__ = "0.1.0"
