"""Pairwise error probability, decay exponents, and the scheme ratio.

Two estimators per scheme: the exact error integral averaged over both
fading stages ("q-function-mc") and the conditional eigenvalue product
averaged over the backscatter stage only ("eigen-product-mc", a
Chernoff-style upper bound with the same asymptotic slope). The fitted
decay exponent is guarded: when the scaled average gbar^R * pep keeps
growing instead of converging, the configuration is reported divergent
rather than given a misleading exponent.
"""

import numpy as np

from mlnsim import (
    DivergentAverageError,
    compare_queries,
    decay_exponent_checked,
    make_rng,
    pep_eigen_product_curve,
    pep_eigen_product_mc,
    pep_qfunction_mc,
    pep_ratio_curve,
)
from mlnsim.presets import get_preset

TRIALS = 50_000
EXPONENT_GRID = (25.0, 30.0, 35.0, 40.0, 45.0)

for pi, name in enumerate(("example1", "example3")):
    p = get_preset(name)
    measures = compare_queries(p.delta, p.dims.N)
    print(f"\n=== {name}: nominal measures r_unitary={measures.r_unitary}, "
          f"r_uniform={measures.r_uniform} ===")

    print("both estimators at 15 dB (eigen product upper-bounds the exact value):")
    for scheme in ("unitary", "uniform"):
        exact = pep_qfunction_mc(scheme, p.delta, p.dims, 15.0, TRIALS, make_rng(1, (pi, 0)))
        bound = pep_eigen_product_mc(scheme, p.delta, p.dims, 15.0, TRIALS, make_rng(1, (pi, 1)))
        print(f"  {scheme:8s} exact {exact.value:.3e}  eigen-product {bound.value:.3e}")

    for si, scheme in enumerate(("unitary", "uniform")):
        nominal = measures.r_unitary if scheme == "unitary" else measures.r_uniform
        # one set of G draws scores every point of the curve
        ests = pep_eigen_product_curve(scheme, p.delta, p.dims, EXPONENT_GRID, TRIALS, make_rng(3, (si,)))
        try:
            fitted = decay_exponent_checked(ests, nominal)
            print(f"  {scheme:8s} decay exponent {fitted:.2f} (nominal {nominal})")
        except DivergentAverageError as exc:
            print(f"  {scheme:8s} divergent: {exc}")

print("\nRatio unitary/uniform over SNR separates the regimes:")
grid = [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]
for name in ("example1", "example2"):
    p = get_preset(name)
    pts = pep_ratio_curve(p.delta, p.dims, grid, TRIALS, make_rng(4, (len(name),)))
    trend = " -> ".join(f"{pt.ratio:.3g}" for pt in pts)
    print(f"  {name}: {trend}")
print("example1 collapses toward zero (unitary dominates);")
print("example2 stays in a bounded band (the measures tie).")
