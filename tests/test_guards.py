"""Argument guards that no other test reaches: each raises its type with a message naming the argument."""

import errno
import os

import numpy as np
import pytest

from mlnsim import cli
from mlnsim.channel import SystemDims
from mlnsim.codes import DifferenceMatrix, repetition_bpsk, uncoded_bpsk
from mlnsim.linalg import DimensionMismatchError, make_rng, matmul, random_unitary, sample_blocks, sample_gram_factor
from mlnsim.pep import PepEstimate, check_scaled_limit
from mlnsim.presets import get_preset
from mlnsim.query import uniform_query, unitary_query
from mlnsim.simulate import SnrSweepConfig

# (call, exception type, the start of its message)
_GUARDS = {
    "difference-matrix-1d": (lambda: DifferenceMatrix(np.ones(2)), DimensionMismatchError, "delta must be 2-D"),
    "repetition-no-slot": (lambda: repetition_bpsk(0), ValueError, "T must be >= 1"),
    "uncoded-no-slot": (lambda: uncoded_bpsk(0, 1), ValueError, r"T and L must be >= 1, got \(0, 1\)"),
    "matmul-vector": (lambda: matmul(np.ones(2), np.eye(2)), DimensionMismatchError, "A must be a 2-D matrix"),
    "unitary-size-zero": (lambda: random_unitary(0, make_rng(0)), DimensionMismatchError, "n must be >= 1"),
    "blocks-shape-zero": (lambda: sample_blocks((0,), 3, make_rng(0)), DimensionMismatchError,
                          r"need shape entries and n >= 1, got shape \(0,\) and n=3"),
    "blocks-no-block": (lambda: sample_blocks((2, 2), 0, make_rng(0)), DimensionMismatchError,
                        r"need shape entries and n >= 1, got shape \(2, 2\) and n=0"),
    "gram-factor-no-row": (lambda: sample_gram_factor(0, 2, 3, make_rng(0)), DimensionMismatchError,
                           r"need L, N and n >= 1, got L=0, N=2 and n=3"),
    "gram-factor-no-column": (lambda: sample_gram_factor(2, 0, 3, make_rng(0)), DimensionMismatchError,
                              r"need L, N and n >= 1, got L=2, N=0 and n=3"),
    "gram-factor-no-draw": (lambda: sample_gram_factor(2, 2, 0, make_rng(0)), DimensionMismatchError,
                            r"need L, N and n >= 1, got L=2, N=2 and n=0"),
    "scaled-limit-one-estimate": (
        lambda: check_scaled_limit([PepEstimate(10.0, 0.1, 0.01, 100, "eigen-product")], 2),
        ValueError,
        "need >= 2 estimates",
    ),
    "unknown-preset": (lambda: get_preset("nope"), ValueError, "unknown preset 'nope'"),
    "uniform-no-slot": (lambda: uniform_query(0, 1), DimensionMismatchError, r"T and M must be >= 1, got \(0, 1\)"),
    "unitary-query-size-zero": (lambda: unitary_query(0), DimensionMismatchError, "M must be >= 1"),
    "random-unitary-without-rng": (lambda: unitary_query(2, "random-unitary"), ValueError, "random-unitary query requires an rng"),
    "sweep-query-kind": (
        lambda: SnrSweepConfig(dims=SystemDims(2, 1, 2, 2), query_kind="bogus", codebook=repetition_bpsk(2),
                               snr_grid_db=(0.0,)),
        ValueError,
        "query_kind must be one of",
    ),
}


@pytest.mark.parametrize("case", sorted(_GUARDS))
def test_guard_names_its_argument(case):
    call, error, message = _GUARDS[case]
    with pytest.raises(error, match=f"^{message}"):
        call()


def test_write_cleanup_skips_a_file_already_gone(tmp_path, monkeypatch, capsys):
    # a failed write removes the run's files; a file removed before that is passed over
    opened = []

    def open_then_fail(path, *args, **kwargs):
        opened.append(path)
        if len(opened) == 2:
            os.unlink(opened[0])
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", open_then_fail, raising=False)
    argv = ["pep", "--preset", "example3", "--snr-grid", "10:10:30", "--trials", "200", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"mlnsim pep: OSError: [Errno {errno.EIO}] {os.strerror(errno.EIO)}\n"
    assert list(tmp_path.iterdir()) == []
