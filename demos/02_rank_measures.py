"""The rank-based measures that predict which query scheme wins.

For a codeword difference matrix delta, performance under the unitary
query is driven by the per-slot matrices E_t = diag(delta[:, t]) G and
under the uniform query by D = (G_1 delta | ... | G_N delta). Their ranks
are deterministic functions of delta with probability one over G, and
the resulting scalar measures order the schemes at high SNR:

    r_unitary = sum_t min(N, L*_t)        r_uniform = rank(D)

with L*_t the nonzero count of column t. rank(D) is at most
min(N rank(delta), L*), L* the count of nonzero rows, but can fall below
it, so it is taken numerically on one fixed draw of G. D's columns are
those of (E_1 | ... | E_T), regrouped, so r_uniform <= r_unitary.
"""

import json

import numpy as np

from mlnsim import compare_queries, empirical_rank_check, make_rng
from mlnsim.presets import PRESET_NAMES, get_preset

rng = make_rng(11)

for name in PRESET_NAMES:
    p = get_preset(name)
    d = p.dims
    print(f"\n=== {name}: {d.M}x{d.L}x{d.N} channel, T={d.T}, codebook {p.codebook_name} ===")
    print("delta =\n", np.round(p.delta, 3))
    report = compare_queries(p.delta, d.N)
    print(json.dumps(report.to_dict(), indent=2))

    check = empirical_rank_check(p.delta, d.N, trials=1000, rng=rng)
    print(
        f"almost-sure rank predictions over {check.trials} sampled G: "
        f"per-slot fractions {check.per_slot_fractions}, D fraction {check.d_fraction} "
        f"-> {'OK' if check.passed else 'MISMATCH'}"
    )

print("\nA planted zero column kills that slot for the unitary measure:")
delta = np.array([[1.0, 0.0], [1.0, 0.0]])
print("delta =\n", delta)
print(json.dumps(compare_queries(delta, 2).to_dict(), indent=2))
