# The vector analogue: entrywise hard thresholding for k-sparse regression,
# with the certificate 2 r_K < 1 checked on the realized design before the
# run, and desparsified coordinate intervals afterwards.
import numpy as np

from lowrank_iht import (
    SparseConfig,
    build_decorrelator,
    gen_sparse_instance,
    largest_feasible_k,
    sparse_confidence_intervals,
    sparse_iht_run,
)

n, p, k = 4000, 100, 3
inst = gen_sparse_instance(n, p, k, noise_std=1.0, seed=11)
dec = build_decorrelator(inst.x)

k_cap = largest_feasible_k(dec, 2 * k)
print(f"certified sparsity level K={k_cap} (2 r_K = {2 * dec.r_k(k_cap):.3f})")

theta_r, thresholds = sparse_iht_run(inst, dec, SparseConfig(k_cap=k_cap))
support_true = np.flatnonzero(inst.theta_truth)
support_hat = np.flatnonzero(theta_r)
print(f"{len(thresholds)} iterations, final threshold {thresholds[-1]:.3f}")
print(f"true support {support_true.tolist()}, "
      f"recovered {support_hat.tolist()}")

# one call desparsifies theta_r and reads sigma off the same residual
intervals = sparse_confidence_intervals(theta_r, inst, dec)
print("coordinate intervals on the support:")
for j in support_true:
    print(f"  j={j}: truth {inst.theta_truth[j]:+.3f}, "
          f"[{intervals.lower[j]:+.3f}, {intervals.upper[j]:+.3f}]")
covered = intervals.covers(inst.theta_truth)
print(f"overall coverage: {covered.mean():.3f}")
