"""Simulation laboratory for the M x L x N MIMO backscatter channel.

The package compares two reader query schemes over a two-stage (dyadic)
fading channel with a space-time coded tag in the middle: the uniform
query, which repeats one constant signal and leaves the channel static
for a whole block, and unitary queries, whose orthonormal rows make the
effective channel vary from slot to slot inside the coherence interval.
It provides the channel model, query constructions, codebooks, rank-based
performance measures with empirical validators, pairwise-error-probability
estimators, and a seeded Monte Carlo BER link simulator. Its
simulate_bers sweeps both query schemes on the same blocks (common random
numbers), drawing each block once; simulate_ber is its one-sweep call.

Importing the package sets two process-wide glibc malloc thresholds
(mallopt(3)): arrays below 32 MiB come from the heap rather than from
their own mappings, and up to 256 MiB of freed heap stays mapped. The
kernels allocate their arrays afresh for every chunk and slice, so without
this glibc would unmap each freed array and the next one would fault in
fresh pages. Where the C library has no mallopt, the import sets nothing.
"""

import ctypes

from .channel import ChannelRealization, SystemDims, backscatter_transmit, effective_signal, sample_channel
from .codes import (
    EXAMPLE1_DELTA,
    EXAMPLE3_DELTA,
    Codebook,
    DifferenceMatrix,
    difference_matrix,
    pairwise_codebook_from_delta,
    repetition_bpsk,
    uncoded_bpsk,
)
from .linalg import (
    DimensionMismatchError,
    frobenius_norm_sq,
    hadamard,
    make_rng,
    matmul,
    numeric_rank,
    random_unitary,
    sample_cn_matrix,
    singular_values,
)
from .measure import (
    MeasureReport,
    RankCheckReport,
    build_D,
    build_E_t,
    compare_queries,
    empirical_rank_check,
    r_uniform,
    r_unitary,
)
from .pep import (
    DivergentAverageError,
    PepEstimate,
    RatioPoint,
    check_scaled_limit,
    decay_exponent,
    decay_exponent_checked,
    pep_eigen_product_curve,
    pep_eigen_product_mc,
    pep_qfunction_mc,
    pep_ratio_curve,
    squared_distance_uniform,
    squared_distance_unitary,
)
from .presets import PRESET_NAMES, Preset, get_preset
from .query import effective_forward, uniform_query, unitary_query, verify_unitary
from .simulate import (
    BerCurve,
    BerPoint,
    LevelNotCrossedError,
    SnrSweepConfig,
    gain_at_ber,
    ml_detect,
    simulate_ber,
    simulate_bers,
)

__version__ = "0.1.0"


def _keep_freed_arrays_mapped() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to load
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 * 2**20)  # M_MMAP_THRESHOLD
    mallopt(-1, 256 * 2**20)  # M_TRIM_THRESHOLD


_keep_freed_arrays_mapped()
