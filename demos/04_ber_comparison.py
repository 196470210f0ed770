"""End-to-end BER comparison between the query schemes.

Runs the coded link simulation for the three stock settings and reports
the horizontal dB gain the unitary query buys at BER 1e-2 / 1e-3, writing
one CSV per (setting, scheme) next to this script.
"""

import pathlib

from mlnsim import LevelNotCrossedError, SnrSweepConfig, gain_at_ber, simulate_bers
from mlnsim.presets import PRESET_NAMES, get_preset

OUT = pathlib.Path(__file__).resolve().parent / "ber_curves"
OUT.mkdir(exist_ok=True)

GRID = tuple(float(s) for s in range(0, 25, 2))

for name in PRESET_NAMES:
    p = get_preset(name)
    print(f"\n=== {name}: {p.dims.M}x{p.dims.L}x{p.dims.N}, codebook {p.codebook_name} ===")
    kinds = ("dft", "uniform")
    # both schemes on the same blocks (common random numbers), each block drawn once
    sweeps = [
        SnrSweepConfig(
            dims=p.dims,
            query_kind=kind,
            codebook=p.codebook,
            snr_grid_db=GRID,
            max_trials_per_point=1_000_000,
            target_error_events=200,
            seed=2024,
        )
        for kind in kinds
    ]
    curves = dict(zip(kinds, simulate_bers(sweeps)))
    for kind, curve in curves.items():
        path = OUT / f"{name}_{kind}.csv"
        path.write_text(curve.to_csv())
        print(f"wrote {path}")

    print(f"{'snr_db':>7} {'unitary':>12} {'uniform':>12}")
    for pu, pf in zip(curves["dft"].points, curves["uniform"].points):
        mark = "" if pu.resolved and pf.resolved else "  (under-resolved)"
        print(f"{pu.snr_db:7.1f} {pu.ber:12.3e} {pf.ber:12.3e}{mark}")

    for level in (1e-2, 1e-3):
        try:
            g = gain_at_ber(curves["dft"], curves["uniform"], level)
            print(f"unitary gain at BER {level:g}: {g:.2f} dB")
        except LevelNotCrossedError as exc:
            print(f"gain at BER {level:g}: {exc}")
