# Entrywise inference on a noisy Gaussian-design instance. The data-driven
# run estimates the noise scale as it goes; debiasing the final iterate gives
# per-entry confidence intervals whose empirical coverage we can count
# against the known truth.
import numpy as np

from lowrank_iht import (
    confidence_intervals,
    gen_gaussian_design,
    gen_low_rank_theta,
    run_iht,
    simulate_observations,
)

d, k, n = 16, 2, 3000
theta = gen_low_rank_theta(d, k, seed=7)
batch = gen_gaussian_design(n, d, seed=8)
obs = simulate_observations(batch, theta, noise_std=1.0, seed=9)

estimate, state = run_iht(batch, obs)
print(f"converged in {state.iteration} iterations, "
      f"estimated rank {state.rank}, sigma {state.final_sigma:.3f}")

# level is the two-sided coverage each interval aims at; 95% intervals are
# wider than 90% ones and cover more
for level in (0.90, 0.95):
    result = confidence_intervals(batch, obs, estimate, level=level, state=state)
    print(f"level {level:.2f}: quantile {result.quantile:.3f} "
          f"-> coverage {result.coverage_rate(theta):.3f}")

a, b = (int(i) for i in np.unravel_index(np.argmax(np.abs(theta)), theta.shape))
print(f"largest entry ({a}, {b}): truth {theta[a, b]:+.4f}, "
      f"95% interval [{result.lower[a, b]:+.4f}, {result.upper[a, b]:+.4f}]")
