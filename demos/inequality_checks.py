"""Randomized verification of the matrix inequalities.

Six checks, each fuzzing one inequality over random instances:

  classical-potential   quadratic-form sum vs the log-det telescoping
  logdet-concavity      Jensen gap of log det on PSD mixtures
  logdet-variational    log det(I + S^1/2 L S^1/2) <= log det(I + x S) for
                        every PSD L <= x I, with equality at L = x I
  logdet-shift          log(1 + v'S v) + log det(I + x S_v) <= log det(I + (x + v'v) S),
                        S_v being S conditioned on one unit-noise observation along v
  variance-reduction    expected posterior covariance contraction
  trace-cauchy-schwarz  E[x.z]^2 <= d tr(E[xx^T] E[zz^T])

Here S is a random PSD matrix, L a PSD matrix, x > 0 a budget and v a
vector of norm at most 1.

A check passes when the worst violation over all instances stays under
its tolerance. Everything is seeded, so reruns reproduce exactly.
"""
from ellipsim.reporting import lemma_table
from ellipsim.verify import run_all_checks

reports = run_all_checks(seed=0)
print(lemma_table(reports))

worst = max(reports, key=lambda r: r.max_violation)
print()
print(f"largest violation anywhere: {worst.max_violation:.3e} ({worst.name})")
print("negative numbers mean the inequality held with room to spare")
