"""A committed mutant catalogue for src/mlnsim, run with the standard library alone.

    python tools/mutants.py

Each mutant in ``CATALOGUE`` replaces one exact text in one module of
src/mlnsim with another, and names the tests that must fail under it. The
script copies src/, tests/ and pyproject.toml to a temporary directory, runs
every named test there once unmutated (they must pass), and then, for each
mutant, applies it to the copy, runs only its tests and restores the module.
A mutant is killed when pytest reports a failed test (exit status 1) or its
run exceeds ``_TIMEOUT`` seconds.

The exit status is 0 when every mutant is killed and 1 otherwise: when one
survives, when pytest cannot run its tests (another exit status), or when its
old text no longer occurs exactly once in its module. That last check runs
before anything else, so a catalogue that has drifted from the source fails
at once instead of mutating nothing. The checkout is never written.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "mlnsim"
_TIMEOUT = 300.0  # seconds per pytest run


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/mlnsim
    old: str  # must occur exactly once in the module
    new: str
    tests: tuple  # pytest node ids, relative to the repository root; one of them must fail


_SV = "tests/test_linalg.py::TestSingularValueStacks"
_RANK = "tests/test_linalg.py::TestNumericRank"
_KERNEL = "tests/test_simulate.py::TestMetricKernel"
_SCORE = "tests/test_simulate.py::TestScorePoints"
_BUDGET = "tests/test_simulate.py::TestSliceBudget"
_CLI = "tests/test_config_cli.py::TestCliCommands"
_STREAM = "tests/test_simulate.py::TestChunkStream"

CATALOGUE = (
    # the blocks-last rank kernels, the rank check's slicing and value equality
    Mutant("sv-contraction-axis", "linalg.py",
           'uv = np.einsum("...ij,...ij->...j", u.conj(), v)', 'uv = np.einsum("...ij,...ij->...i", u.conj(), v)',
           (_SV,)),
    Mutant("sv-no-rescale", "linalg.py", "    s *= scale\n", "", (_SV,)),
    Mutant("sv-stack-wide-rescale", "linalg.py",
           "scale = np.where(extreme, np.abs(a).max(axis=-2).max(axis=-2, keepdims=True), 1.0)",
           "scale = np.abs(a).max(axis=-2).max(axis=-2, keepdims=True)",
           (f"{_SV}::test_leading_axes_and_caller_slices",)),
    Mutant("sv-wrong-swap", "linalg.py",
           "a = a.swapaxes(-3, -2)  # same singular values", "a = a.swapaxes(-2, -1)  # same singular values", (_SV,)),
    Mutant("rank-smallest-reference", "linalg.py", "s[..., :1, :] * max(", "s[..., -1:, :] * max(", (_RANK, _SV)),
    Mutant("rank-threshold-inclusive", "linalg.py", "s > RANK_REL_TOL", "s >= RANK_REL_TOL", (_RANK,)),
    Mutant("rank-check-slices-the-wrong-axis", "measure.py", "_ranks(d, G[..., s])", "_ranks(d, G[s])",
           ("tests/test_measure.py::TestEmpiricalRankCheck::test_slices_change_no_count",)),
    Mutant("value-equality-ignores-bytes", "codes.py",
           "(v.shape, v.tobytes()) if isinstance", "v.shape if isinstance",
           ("tests/test_config_cli.py::TestValueEquality", "tests/test_codes.py::TestCodebookInvariants")),
    # mutants named in CHANGES.md by earlier changes
    Mutant("sv-gram-form", "linalg.py",
           "h = np.sqrt(_norm_sq(r))",
           "h = np.sqrt(np.maximum(ff * nsq[..., 1, :] - np.abs(uv) ** 2, 0.0)) / np.where(nz, f, 1.0)",
           (f"{_SV}::test_rank_decisions_match_lapack_near_threshold",)),
    Mutant("even-slices-smaller-first", "linalg.py",
           "ends = [k * size + min(k, extra) for k in range(count + 1)]",
           "ends = [k * size + max(0, k - count + extra) for k in range(count + 1)]",
           ("tests/test_linalg.py::TestEvenSlices",)),
    Mutant("mix-adds-l-in-reverse", "channel.py",
           "    S = XC[:, 0, None] * G[0]\n    for l in range(1, XC.shape[1]):",
           "    S = XC[:, -1, None] * G[-1]\n    for l in range(XC.shape[1] - 2, -1, -1):",
           ("tests/test_channel.py::TestBatchedKernel::test_mix_adds_the_tag_antennas_in_order",)),
    Mutant("gram-ignores-gc", "channel.py", "Gc = G.conj() if Gc is None else Gc", "Gc = G.conj()",
           ("tests/test_channel.py::TestBatchedKernel::test_cross_gram_is_w_g_h",)),
    Mutant("uniform-rank-closed-form", "measure.py", "r_uniform=rf,", "r_uniform=min(N * d.rank, d.nonzero_rows),",
           ("tests/test_measure.py::TestMeasures::test_uniform_rank_is_the_matroid_union_rank",)),
    Mutant("uncoded-bpsk-bits-reversed", "codes.py", "np.arange(n - 1, -1, -1)", "np.arange(n)",
           ("tests/test_codes.py::TestUncodedBpsk",)),
    Mutant("pep-without-trials-guard", "pep.py", '    trials = checked_integer("trials", trials)\n', "",
           ("tests/test_pep.py::test_pep_routes_name_a_bad_trials_count",)),
    # the BER chunk kernel's packed weights, one scoring path and one slice budget, and kernels beside it
    Mutant("packed-offdiag-unweighted", "codes.py", "* (2.0 - np.eye(L))", "* 1.0",
           (f"{_KERNEL}::test_packed_weights_pair_like_the_full_outer_products",
            f"{_KERNEL}::test_matches_brute_force")),
    Mutant("fold-scales-energy-rows", "simulate.py", "f, folded = base[:, :m], base[split:, :m]", "f, folded = base[:, :m], base[:c, :m]",
           (f"{_SCORE}::test_matches_every_point_brute_force",)),
    Mutant("slice-bytes-without-metric", "simulate.py", "score = 8 * (2 * F + 6 * T * L + K + 6)",
           "score = 8 * (2 * F + 6 * T * L + 6)", (_BUDGET,)),
    Mutant("slice-without-floor", "simulate.py",
           "most = max(_MIN_SLICE, _SLICE_BYTES // _slice_bytes(config.dims, weights))",
           "most = _SLICE_BYTES // _slice_bytes(config.dims, weights)",
           (f"{_KERNEL}::test_large_codebook_sweep_in_bounded_memory",)),
    Mutant("shared-v-unconjugated", "simulate.py",
           "return gram(G, Gc=Gc), np.conjugate(gram(W, Gc=Gc))", "return gram(G, Gc=Gc), gram(W, Gc=Gc)",
           (f"{_KERNEL}::test_matches_brute_force",)),
    Mutant("cross-weight-sign", "codes.py", "cross = -2.0 * codewords", "cross = 2.0 * codewords",
           (f"{_KERNEL}::test_matches_brute_force",)),
    Mutant("mc-mean-squares-unscaled", "pep.py", "if sq < 2.0**-960 and np.any(v):", "if False:",
           ("tests/test_pep.py::TestMcMean", "tests/test_pep.py::TestQFunctionMc::test_tiny_pep_keeps_a_positive_standard_error")),
    Mutant("z-adds-re-twice", "pep.py", "np.add(squares[::2], squares[1::2], out=z[s])",
           "np.add(squares[::2], squares[::2], out=z[s])",
           ("tests/test_pep.py::TestQFunctionMc::test_z_is_the_squared_norm_of_mix_bit_for_bit",)),
    Mutant("integer-message-wrong-field", "config.py", 'trials = _integer("trials",', 'trials = _integer("seed",',
           ("tests/test_config_cli.py::TestDocumentProperties::test_seed_and_trials",)),
    # the import-time allocator setting, and the pep stage's grid as a compared config field
    Mutant("allocator-policy-off", "__init__.py", "\n_keep_freed_arrays_mapped()\n", "\n",
           ("tests/test_simulate.py::test_repeated_kernels_reuse_their_pages",)),
    Mutant("pep-grid-not-compared", "config.py", "    pep_grid_db: tuple  #",
           '    pep_grid_db: tuple = __import__("dataclasses").field(compare=False)  #',
           ("tests/test_config_cli.py::TestValueEquality::test_configs_running_different_pep_grids_differ",)),
    # one worker pool per process, dropped in a forked child, and random_unitary's phase fix
    Mutant("pool-per-call", "simulate.py", "_pool = functools.cache(ThreadPoolExecutor)",
           "_pool = functools.lru_cache(maxsize=0)(ThreadPoolExecutor)",
           ("tests/test_simulate.py::test_consecutive_sweeps_run_on_one_pool",)),
    Mutant("pool-kept-across-fork", "simulate.py", "after_in_child=_pool.cache_clear", "after_in_child=lambda: None",
           ("tests/test_simulate.py::test_forked_child_sweeps_on_its_own_pool",)),
    Mutant("unitary-phase-conjugated", "linalg.py", "q /= first / np.abs(first)", "q /= np.conj(first) / np.abs(first)",
           ("tests/test_linalg.py::TestRandomUnitary::test_phase_convention",)),
    # the sampler's one fill (both parts scaled, in place) and sample_blocks' size guard
    Mutant("fill-unscaled", "linalg.py", "    parts *= _INV_SQRT2\n", "",
           ("tests/test_linalg.py::TestSampling::test_bits_are_the_scaled_normals_re_and_im_in_turn",)),
    Mutant("fill-real-part-only", "linalg.py", "rng.standard_normal(out=parts)",
           "z.real = rng.standard_normal((rows, cols)); z.imag = 0.0",
           ("tests/test_linalg.py::TestSampling::test_bits_are_the_scaled_normals_re_and_im_in_turn",)),
    Mutant("fill-scaled-copy", "linalg.py", "    parts *= _INV_SQRT2\n", "    parts[:] = parts * _INV_SQRT2\n",
           ("tests/test_linalg.py::TestSampling::test_draw_allocates_only_its_output",)),
    Mutant("blocks-guard-passes-empty-shape", "linalg.py", "min(shape, default=1) < 1", "min(shape, default=1) < 0",
           ("tests/test_guards.py::test_guard_names_its_argument",)),
    # the canonical Gram factor: Gamma(N - j) on diagonal j, sqrt(Exp(1)) in column 0 below it and
    # zeros above it; the Q-function route's forward rows each up to its own phase, not as that
    # factor at N = 1 (which draws them real); the BER chunk draws the factor and W U^H
    Mutant("gram-factor-diag-shape", "linalg.py", "for _ in range(N - j - 1):", "for _ in range(N - 1):",
           ("tests/test_linalg.py::TestGramFactor::test_moments_are_those_of_g_g_h",)),
    Mutant("gram-factor-upper-not-zeroed", "linalg.py", "        B[j, j + 1 :] = 0.0\n", "",
           ("tests/test_linalg.py::TestGramFactor::test_lower_trapezoid_with_a_real_nonnegative_diagonal",)),
    Mutant("gram-factor-column-0-unrooted", "linalg.py", "    np.sqrt(B[1:, 0].real, out=B[1:, 0].real)\n", "",
           ("tests/test_linalg.py::TestGramFactor::test_moments_are_those_of_g_g_h",)),
    Mutant("qfunc-rows-full-phase", "pep.py",
           "X = np.moveaxis(_forward_rows(d.L, rows * n, rng).reshape(d.L, rows, n), 0, 1)",
           'X = __import__("mlnsim").linalg.sample_blocks((rows, d.L), n, rng)',
           ("tests/test_pep.py::TestQFunctionMc::test_draw_order_matches_scalar_distances",)),
    Mutant("qfunc-rows-canonical-factor", "pep.py",
           "X = np.moveaxis(_forward_rows(d.L, rows * n, rng).reshape(d.L, rows, n), 0, 1)",
           "X = np.moveaxis(sample_gram_factor(d.L, 1, rows * n, rng).reshape(d.L, rows, n), 0, 1)",
           ("tests/test_pep.py::TestQFunctionMc::test_z_has_the_law_of_whole_channel_draws",)),
    Mutant("ber-chunk-draws-g-whole", "simulate.py", "G = sample_gram_factor(L, N, n, rng)",
           "G = sample_blocks((L, N), n, rng)",
           (f"{_KERNEL}::test_large_codebook_sweep_in_bounded_memory",
            "tests/test_simulate.py::TestSimulateBer::test_sweep_draws_each_block_once")),
    Mutant("slice-bytes-counts-n", "simulate.py", "L, R, T = dims.L, min(dims.L, dims.N), dims.T",
           "L, R, T = dims.L, dims.N, dims.T", (_BUDGET,)),
    # the CLI writes its files once every stage has run, removes them when a write fails,
    # checks MLNSIM_THREADS before the first stage and reads a negative grid as a value
    Mutant("write-cleanup-skipped", "cli.py", "        for path in written:\n", "        for path in ():\n",
           (f"{_CLI}::test_failed_write_leaves_none_of_the_runs_files",)),
    Mutant("write-interrupt-swallowed", "cli.py", "        if not isinstance(exc, Exception):\n            raise\n", "",
           (f"{_CLI}::test_interrupted_write_propagates_and_leaves_none_of_the_runs_files",)),
    Mutant("files-written-per-stage", "cli.py",
           "        status = max(_RUNNERS[stage](cfg, files) for stage in STAGES[cfg.command])\n",
           "        status = 0\n"
           "        for stage in STAGES[cfg.command]:\n"
           "            status = max(status, _RUNNERS[stage](cfg, files))\n"
           "            os.makedirs(cfg.output_dir, exist_ok=True)\n"
           "            for name, text in files.items():\n"
           "                with open(os.path.join(cfg.output_dir, name), \"w\", encoding=\"utf-8\") as fh:\n"
           "                    written.append(fh.name)\n"
           "                    fh.write(text)\n",
           (f"{_CLI}::test_failed_stage_writes_nothing_and_creates_no_directory",)),
    Mutant("threads-precheck-dropped", "cli.py", "            _worker_count()  #", "            pass  #",
           (f"{_CLI}::test_bad_threads_env_fails_before_the_first_stage",)),
    Mutant("negative-grid-read-as-flag", "cli.py", "parser._negative_number_matcher = re.compile(", "(",
           (f"{_CLI}::test_negative_grid_after_a_space",)),
    # the scaled-limit guard's growth in dB, the load-time out check and value types' own copies
    Mutant("log-growth-without-r-term", "pep.py",
           "        log_growth += exponent * np.log(10.0) * (last.snr_db - first.snr_db) / 10.0\n", "            pass\n",
           ("tests/test_pep.py::TestScaledLimit::test_exact_power_law_growth",)),
    Mutant("out-file-check-dropped", "config.py",
           "if os.path.lexists(out_dir) and not os.path.isdir(out_dir):", "if False:",
           ("tests/test_config_cli.py::test_cli_out_naming_a_file_fails_at_load",)),
    Mutant("difference-matrix-keeps-callers-array", "codes.py",
           'd = self._hold("delta", self.delta)', "d = np.asarray(self.delta, dtype=complex)",
           ("tests/test_codes.py::TestDifferenceMatrix::test_holds_a_read_only_copy",)),
    # the BER chunk stream: a stopped point takes no later tallies, a chunk scores the
    # half-progress snapshot, and an interrupted caller halts the loops; a window that does
    # not fall is never divergent; the rank check draws in batches
    Mutant("stream-counts-stopped-points", "simulate.py",
           "live = self.stop[idx] == _RUNNING", "live = self.stop[idx] >= 0",
           (f"{_STREAM}::test_point_stops_at_first_chunk_past_its_target",)),
    Mutant("stream-scores-fresh-set", "simulate.py",
           "scored = self.stop >= need", "scored = self.stop >= self.counted",
           (f"{_STREAM}::test_scored_set_is_the_half_progress_snapshot",)),
    Mutant("interrupt-does-not-halt", "simulate.py", "    finally:\n        stream.halt()\n",
           "    finally:\n        pass\n",
           (f"{_STREAM}::test_interrupted_caller_stops_the_loops",)),
    Mutant("flat-window-judged", "pep.py", "if not last.value < first.value:", "if False:",
           ("tests/test_pep.py::TestScaledLimit::test_window_that_does_not_fall_is_not_judged",
            f"{_CLI}::test_flat_window_is_not_fitted_nor_divergent")),
    Mutant("rank-check-whole-draw", "measure.py", "n = min(_MC_BATCH, trials - done)", "n = trials - done",
           ("tests/test_measure.py::TestEmpiricalRankCheck::test_memory_does_not_grow_past_one_batch",)),
)


def drift(m: Mutant, root: Path = ROOT) -> str | None:
    """Why m no longer applies to the module under root, or None when its old text occurs once."""
    count = (root / PACKAGE / m.module).read_text(encoding="utf-8").count(m.old)
    return None if count == 1 else f"old text occurs {count} times in {m.module}, not once"


def _pytest(copy: Path, tests) -> int | None:
    """pytest's exit status on tests in copy, or None past _TIMEOUT; no bytecode is written,
    so a restored module is never read from a mutant's cache."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(argv, cwd=copy, env=env, capture_output=True, timeout=_TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    drifted = [(m.name, why) for m in CATALOGUE if (why := drift(m))]
    for name, why in drifted:
        print(f"DRIFTED   {name}: {why}")
    if drifted:
        return 1

    with tempfile.TemporaryDirectory(prefix="mlnsim-mutants-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        named = sorted({t for m in CATALOGUE for t in m.tests})
        if _pytest(copy, named) != 0:
            print("the named tests do not pass on the unmutated source")
            return 1
        bad = 0
        for m in CATALOGUE:
            path = copy / PACKAGE / m.module
            source = path.read_text(encoding="utf-8")
            path.write_text(source.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            try:
                status = _pytest(copy, m.tests)
            finally:
                path.write_text(source, encoding="utf-8")
            verdict = {None: "killed (timeout)", 1: "killed"}.get(status, f"ERROR (pytest status {status})")
            if status == 0:
                verdict = "SURVIVED"
            bad += not verdict.startswith("killed")
            print(f"{verdict:<17} {m.name} ({time.perf_counter() - start:.1f} s)")
    print(f"{len(CATALOGUE) - bad} of {len(CATALOGUE)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
