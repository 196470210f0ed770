"""Walk through the channel model and the two query schemes.

The received block is R = ((Q H) o C) G + W: the query matrix Q shapes
what the tag's antennas see. A uniform query collapses the forward stage
to one static row for the whole block; a unitary query re-mixes the same
physical channel into a fresh effective row every slot.
"""

import numpy as np

from mlnsim import (
    SystemDims,
    backscatter_transmit,
    effective_forward,
    make_rng,
    numeric_rank,
    sample_channel,
    uniform_query,
    unitary_query,
)

rng = make_rng(7)
dims = SystemDims(M=2, L=2, N=2, T=2)
ch = sample_channel(dims, rng)

print("One quasi-static channel draw")
print("forward stage H:\n", np.round(ch.H, 3))
print("backscatter stage G:\n", np.round(ch.G, 3))

uniform = uniform_query(dims.T, dims.M)
dft = unitary_query(dims.M, "dft")
print("\nuniform query (all antennas send the same constant):\n", np.round(uniform, 3))
print("DFT unitary query (orthonormal rows):\n", np.round(dft, 3))

print("\nEffective forward process Q @ H seen by the tag:")
yu = effective_forward(uniform, ch.H)
xu = effective_forward(dft, ch.H)
print("uniform -> identical rows, rank", numeric_rank(yu))
print(np.round(yu, 3))
print("unitary -> slot-varying rows, rank", numeric_rank(xu))
print(np.round(xu, 3))

print("\nThe slot variation is the whole game: across many draws the")
print("unitary query's slot-1 and slot-2 effective gains are uncorrelated.")
draws = np.array(
    [effective_forward(dft, sample_channel(dims, rng).H)[:, 0] for _ in range(20_000)]
)
corr = np.mean(draws[:, 0] * np.conj(draws[:, 1]))
print(f"empirical slot cross-correlation: {abs(corr):.4f} (~0)")

print("\nTransmit one coded block at 10 dB SNR:")
code = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)  # any T x L matrix works
r = backscatter_transmit(dft, ch, code, noise_std=np.sqrt(0.1), rng=rng)
print(np.round(r, 3))
