# Noiseless recovery on the orthonormal basis design: with an exact isometry
# the thresholded iteration lands on the true matrix to machine precision,
# and the iteration count stays under the closed-form schedule bound.
import numpy as np

from lowrank_iht import (
    IhtConfig,
    gen_basis_design,
    gen_low_rank_theta,
    run_iht,
    schedule_iteration_bound,
    simulate_observations,
)

d, k = 16, 2
theta = gen_low_rank_theta(d, k, seed=1)
batch = gen_basis_design(d)
obs = simulate_observations(batch, theta, noise_std=0.0, seed=2)

# tiny fixed floor: the schedule halves the threshold until it crosses it;
# T_0 starts from the residual scale of the zero matrix, ||y|| / sqrt(n)
sigma1 = np.linalg.norm(obs.values) / np.sqrt(batch.n)
config = IhtConfig(upsilon=1e-9, t0=sigma1 + 1e-9)
estimate, state = run_iht(batch, obs, config)

rel_err = np.linalg.norm(estimate - theta) / np.linalg.norm(theta)
bound = schedule_iteration_bound(config.t0, config.upsilon)
print(f"relative frobenius error: {rel_err:.3e}")
print(f"iterations: {state.iteration} (schedule bound {bound:.1f})")
print(f"recovered rank: {state.rank}")
for rec in state.trace[:5]:
    print(f"  iter {rec.iteration}: threshold {rec.threshold:.4f}, "
          f"rank {rec.rank}")
print("  ...")
