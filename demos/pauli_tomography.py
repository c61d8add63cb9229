# Tomography of a random 3-qubit state from Pauli measurements: sample
# settings, measure repeatedly, rescale the parity averages into trace
# regression rows, and hand them to the matrix estimator.
import numpy as np

from lowrank_iht import gen_density_matrix, run_iht, simulate_dataset

m, k = 3, 1
d = 2 ** m
theta = gen_density_matrix(d, k, seed=5)

dataset = simulate_dataset(theta, n_settings=40, repetitions=80, seed=6)
print(f"dataset: {len(dataset.settings)} settings x 2^{m} subsets "
      f"= {dataset.n} rows")

# what one setting's statistics look like: one rescaled parity mean per
# subset of qubits left out, the last (every qubit left out) a constant
letters = "".join("IXYZ"[q] for q in dataset.settings[0])
print(f"setting {letters}: rows {np.round(dataset.y[:d], 3)}")

batch, obs = dataset.to_trace_regression()
estimate, state = run_iht(batch, obs)

err = np.linalg.norm(estimate - theta)
print(f"frobenius error {err:.4f} after {state.iteration} iterations, "
      f"rank {state.rank}")
print(f"trace of estimate: {np.trace(estimate).real:.4f}")
