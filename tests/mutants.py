"""Mutation checks: each mutant is one edit of the source that named tests must catch.

Run from anywhere with ``python tests/mutants.py``.  For each mutant the
runner copies ``src/``, ``tests/`` and ``pyproject.toml`` into a temporary
directory, replaces the mutant's old text, which must occur exactly once in
its file, by the new text, and runs only the mutant's tests there, never in
the checkout.  A mutant is caught when every one of its tests fails.  Before
the mutants, the union of their tests runs on an unedited copy and must
pass, so that a test that fails anyway catches nothing.

The exit status is 0 when every mutant is caught, and 1 when a mutant
survives, its old text does not occur exactly once, or the unedited copy
fails.  A change that moves the code a mutant edits moves the mutant with
it, in the same change.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, each of which must fail


SCHEMES = "src/mmkeygen/schemes.py"
SEEDS = "src/mmkeygen/seeds.py"
CHANNEL = "src/mmkeygen/channel.py"
KEYGEN = "src/mmkeygen/keygen.py"
EXPERIMENTS = "src/mmkeygen/experiments.py"
SOUNDING = "tests/test_schemes.py::TestStreamAddresses::test_sounding_streams"
DRAWS = "tests/test_schemes.py::TestDrawsEqualReference::test_rays_and_evolved_equal_one_draw_at_a_time"
DRAW_ORDER = "tests/test_channel.py::TestInnovationsThroughAr1::test_draw_order[3]"
MULTIRES_REFERENCE = "tests/test_schemes.py::TestMultiresEqualsReference::test_samples_bits_and_kers_equal_reference"
CASCADE = "tests/test_keygen.py::TestCascade"
BENCH_REFERENCE = "tests/test_experiments.py::TestRunScenario::test_cascade_bench_equals_per_trial_reference"

MUTANTS = (
    # the stream address layout: each label grid's streams, their order and their draws
    Mutant(
        "sounding noise tags swapped",
        SCHEMES,
        "tags = (seeds.STREAM_CHANNEL, seeds.STREAM_NOISE_ALICE, seeds.STREAM_NOISE_BOB)",
        "tags = (seeds.STREAM_CHANNEL, seeds.STREAM_NOISE_BOB, seeds.STREAM_NOISE_ALICE)",
        (f"{SOUNDING}[virtual]", f"{SOUNDING}[baseline]", "tests/test_golden.py::test_csv_sha256_pinned[fig3]"),
    ),
    Mutant(
        "multires noise read from the evolution column",
        SCHEMES,
        "noise = seeds.sampler_streams(lanes[:, 2])",
        "noise = seeds.sampler_streams(lanes[:, 1])",
        (
            "tests/test_schemes.py::TestStreamAddresses::test_multires_streams",
            "tests/test_golden.py::test_csv_sha256_pinned[fig4]",
        ),
    ),
    Mutant(
        "label order reversed in _pools",
        SEEDS,
        "columns = [np.asarray(label, dtype=np.uint64) for label in labels]",
        "columns = [np.asarray(label, dtype=np.uint64) for label in labels[::-1]]",
        (
            "tests/test_seeds.py::TestStreamDerivation::test_derived_values_pinned",
            "tests/test_seeds.py::TestLabelGrids::test_stream_lanes_equal_generator_at_every_index",
        ),
    ),
    Mutant(
        "sampler streams take incs from the state words",
        SEEDS,
        "states, incs = pairs[..., 0], pairs[..., 1]",
        "states, incs = pairs[..., 0], pairs[..., 0]",
        (
            "tests/test_seeds.py::TestBatchedDerivation::test_sampler_streams_equal_default_rng",
            "tests/test_seeds.py::TestLabelGrids::test_sampler_streams_and_raw_outputs_keep_the_grid",
        ),
    ),
    Mutant(
        "the reused generator's seed class an ISeedSequence at import",
        SEEDS,
        "class _Unseeded:",
        "class _Unseeded(np.random.bit_generator.ISeedSequence):",
        ("tests/test_experiments.py::TestSetUpDrawsNothing::test_import_and_validation_never_import_numpy_random",),
    ),
    Mutant(
        "raw_outputs reads its lanes reversed",
        SEEDS,
        "state, inc = (lanes[..., 0], lanes[..., 1]), (lanes[..., 2], lanes[..., 3])",
        "state, inc = (lanes[..., 3], lanes[..., 2]), (lanes[..., 1], lanes[..., 0])",
        (
            "tests/test_seeds.py::TestBatchedDerivation::test_raw_outputs_equal_random_raw",
            "tests/test_golden.py::test_csv_sha256_pinned[fig2]",
        ),
    ),
    Mutant(
        "_paths infers the path count of an empty grid",
        CHANNEL,
        "u[..., :-1].reshape(u.shape[:-1] + (u.shape[-1] // 4, 4))",
        "u[..., :-1].reshape(u.shape[:-1] + (-1, 4))",
        ("tests/test_channel.py::TestRays::test_empty_grid_draws_nothing",),
    ),
    Mutant(
        "the zero-label check removed",
        SEEDS,
        '    if not labels:\n        raise ValueError("an address needs at least one label")\n',
        "",
        (
            "tests/test_seeds.py::TestBatchedDerivation::test_zero_labels_rejected[derive_seeds]",
            "tests/test_seeds.py::TestBatchedDerivation::test_zero_labels_rejected[stream_lanes]",
        ),
    ),
    # the one entry point: its table, its chunks and the one scheme check left
    Mutant(
        "baseline configs run by the virtual chunk function",
        SCHEMES,
        '"baseline": (_baseline, 4),',
        '"baseline": (_virtual_angle, 4),',
        (
            "tests/test_schemes.py::TestSoundingLoop::test_trials_equal_sessions_and_reference[1-grid0-ula-baseline]",
            "tests/test_golden.py::test_csv_sha256_pinned[custom-baseline]",
        ),
    ),
    Mutant(
        "batch drops the last trial of each chunk",
        SCHEMES,
        "chunk = slice(start, start + size)",
        "chunk = slice(start, start + size - 1)",
        (
            "tests/test_schemes.py::TestBatchChunks::test_records_do_not_depend_on_the_chunk_size[multires-1]",
            "tests/test_schemes.py::TestBatchChunks::test_records_do_not_depend_on_the_chunk_size[secret_beam-2]",
            "tests/test_golden.py::test_csv_sha256_pinned[fig2]",
        ),
    ),
    Mutant(
        "secret_beam_session runs any scheme's config",
        SCHEMES,
        '    if cfg.scheme != "secret_beam":  # a config is validated only for its own scheme\n'
        "        raise ValueError(f\"secret_beam_session runs 'secret_beam' sessions, got a {cfg.scheme!r} config\")\n",
        "",
        (
            "tests/test_schemes.py::TestSchemeChecks::test_batches_and_sessions_reject_other_schemes"
            "[secret_beam-secret_beam_session-multires]",
            "tests/test_schemes.py::TestSchemeChecks::test_configs_of_other_schemes_that_used_to_run",
        ),
    ),
    Mutant(
        "each party's estimate drawn from the other party's noise",
        SCHEMES,
        "estimate_channel(H, snr, noise(b, t, party), out=est)",
        "estimate_channel(H, snr, noise(b, t, 1 - party), out=est)",
        (f"{SOUNDING}[virtual]", f"{SOUNDING}[baseline]"),
    ),
    # the key material of a chunk: its symbols, their agreements and KERs, and how _score reads them
    Mutant(
        "agreement taken against Bob's row",
        SCHEMES,
        "np.bitwise_count(self.symbols[:, 1:] ^ self.symbols[:, :1])",
        "np.bitwise_count(self.symbols[:, 1:] ^ self.symbols[:, 1:2])",
        (
            "tests/test_schemes.py::TestSchemeResult::test_agreement_is_bar_of_packed_bits",
            "tests/test_golden.py::test_csv_sha256_pinned[fig2]",
        ),
    ),
    Mutant(
        "_score reshaped as (per_point, points)",
        EXPERIMENTS,
        ".reshape(points, per_point, -1)",
        ".reshape(per_point, points, -1)",
        (
            "tests/test_experiments.py::TestSecretBeamPoints::test_table_equals_per_point_batches"
            "[fig2-scheme0-snr_grid2-65]",
            "tests/test_golden.py::test_csv_sha256_pinned[fig2]",
        ),
    ),
    Mutant(
        "the KER arms swapped in kers",
        SCHEMES,
        "for y in (y_bob[:P], y_bob[P:])]",
        "for y in (y_bob[P:], y_bob[:P])]",
        (f"{MULTIRES_REFERENCE}[fig4]", "tests/test_golden.py::test_csv_sha256_pinned[fig4]"),
    ),
    Mutant(
        "every baseline trial written to symbols[0]",
        SCHEMES,
        "symbols[b] = _gray_cells(",
        "symbols[0] = _gray_cells(",
        (
            "tests/test_schemes.py::TestSoundingLoop::test_chunks_equal_per_trial_reference[3-65-1-grid0-ula-baseline]",
            "tests/test_golden.py::test_csv_sha256_pinned[custom-baseline]",
        ),
    ),
    # the ray and AR(1) draws every scheme takes, and the channels it builds from them
    Mutant(
        "the NLoS real and imaginary halves swapped",
        CHANNEL,
        "np.multiply(sigma, normals[..., :n], out=out[..., 1:].real)\n"
        "    np.multiply(sigma, normals[..., n:], out=out[..., 1:].imag)",
        "np.multiply(sigma, normals[..., n:], out=out[..., 1:].real)\n"
        "    np.multiply(sigma, normals[..., :n], out=out[..., 1:].imag)",
        (DRAW_ORDER, "tests/test_golden.py::test_csv_sha256_pinned[fig2]"),
    ),
    Mutant(
        "normals drawn before the uniforms",
        SCHEMES,
        "        rng.random(out=u[n])\n        rng.standard_normal(out=normals[n])\n",
        "        rng.standard_normal(out=normals[n])\n        rng.random(out=u[n])\n",
        (DRAWS, "tests/test_golden.py::test_csv_sha256_pinned[fig2]"),
    ),
    Mutant(
        "each evolution stream's LoS phases taken from the next stream",
        SCHEMES,
        "eps = _innovations(u.T, ",
        "eps = _innovations(np.roll(u, -1, axis=0).T, ",
        (DRAWS, "tests/test_golden.py::test_csv_sha256_pinned[fig2]"),
    ),
    Mutant(
        "the steps-first layout dropped before _ar1",
        SCHEMES,
        "_innovations(u.T, normals.reshape(N, R, n_nlos).swapaxes(0, 1), cfg.nlos_offset_db)",
        "_innovations(u.reshape(R, N), normals.reshape(R, N, n_nlos), cfg.nlos_offset_db)",
        (DRAWS, "tests/test_golden.py::test_csv_sha256_pinned[fig4-grid]"),
    ),
    Mutant(
        "each step's normals read across the stream's steps",
        SCHEMES,
        "normals.reshape(N, R, n_nlos).swapaxes(0, 1)",
        "normals.reshape(N, n_nlos, R).transpose(2, 0, 1)",
        (DRAW_ORDER, DRAWS, "tests/test_golden.py::test_csv_sha256_pinned[fig2]"),
    ),
    Mutant(
        "the (N, R, L) view taken by reshape",
        SCHEMES,
        "return eps.swapaxes(0, 1)",
        "return eps.reshape(N, R, -1)",
        (DRAWS, "tests/test_golden.py::test_csv_sha256_pinned[fig2]"),
    ),
    Mutant(
        "the finite-variance check dropped",
        CHANNEL,
        "    if not math.isfinite(variance):\n"
        '        raise ValueError(f"SNR {snr_db} dB gives a noise variance 10**({exponent}) that is not a finite float")\n',
        "",
        (
            "tests/test_schemes.py::TestSessionValidation::test_snr_whose_noise_variance_is_not_finite_rejected[-4000.0]",
            "tests/test_schemes.py::TestEstimateChannel::test_snr_whose_noise_variance_is_not_finite_rejected[nan]",
        ),
    ),
    Mutant(
        "every trial probed on trial 0's gains",
        SCHEMES,
        "bidirectional_probe(w_a, w_b, a_tx, a_rx, gains[s], snr, noise(s))",
        "bidirectional_probe(w_a, w_b, a_tx, a_rx, gains[0], snr, noise(s))",
        (
            "tests/test_schemes.py::TestMultiresBatch::test_batch_equals_batches_of_one",
            "tests/test_golden.py::test_csv_sha256_pinned[fig4-grid]",
        ),
    ),
    Mutant(
        "_ar1 started from reversed gains",
        SCHEMES,
        "_ar1(gains.reshape(-1), eps.reshape(R, -1), cfg.temporal_rho)",
        "_ar1(gains[::-1].reshape(-1), eps.reshape(R, -1), cfg.temporal_rho)",
        (DRAWS, "tests/test_golden.py::test_csv_sha256_pinned[fig4-grid]"),
    ),
    Mutant(
        "beams selected on the gains after the first AR(1) step",
        SCHEMES,
        "H = channel_matrix(a_rx, first[s], a_tx)",
        "H = channel_matrix(a_rx, gains[s, 0], a_tx)",
        ("tests/test_golden.py::test_csv_sha256_pinned[fig4]",),
    ),
    # Cascade's skip of the passes that begin with no error left, and the cascade-bench data streams
    Mutant(
        "the error-free skip never firing",
        KEYGEN,
        "        if not errors:\n",
        "        if False:\n",
        (
            f"{CASCADE}::test_error_free_passes_draw_nothing[equal-0]",
            f"{CASCADE}::test_error_free_passes_draw_nothing[clean after pass 0-1]",
        ),
    ),
    Mutant(
        "the error count off by 2 at the start",
        KEYGEN,
        "errors = int(np.count_nonzero(diff))",
        "errors = int(np.count_nonzero(diff)) - 2",
        (
            f"{CASCADE}::test_error_free_passes_draw_nothing[equal-0]",
            f"{CASCADE}::test_ten_percent_error_rate_bulk",
        ),
    ),
    Mutant(
        "no decrement for the first pass's finds",
        KEYGEN,
        "            errors -= found.size\n",
        "",
        (
            f"{CASCADE}::test_error_free_passes_draw_nothing[clean after pass 0-1]",
            f"{CASCADE}::test_error_free_passes_draw_nothing[clean after pass 1-2]",
        ),
    ),
    Mutant(
        "two decrements a flip",
        KEYGEN,
        "                errors -= 1\n",
        "                errors -= 2\n",
        (
            f"{CASCADE}::test_error_free_passes_draw_nothing[clean after pass 1-2]",
            f"{CASCADE}::test_error_free_passes_draw_nothing[clean after pass 2-3]",
        ),
    ),
    Mutant(
        "the bench data streams on STREAM_CASCADE",
        EXPERIMENTS,
        "seeds.stream_lanes(trial_seeds, seeds.STREAM_BENCH_DATA)",
        "seeds.stream_lanes(trial_seeds, seeds.STREAM_CASCADE)",
        (f"{BENCH_REFERENCE}[2]", "tests/test_golden.py::test_csv_sha256_pinned[cascade-bench]"),
    ),
    Mutant(
        "every bench trial's data from stream 0",
        EXPERIMENTS,
        "rng = stream(trial_idx)",
        "rng = stream(0)",
        (f"{BENCH_REFERENCE}[2]", "tests/test_golden.py::test_csv_sha256_pinned[cascade-bench]"),
    ),
)


def _copy() -> tempfile.TemporaryDirectory:
    """A temporary directory holding a copy of the sources, the tests and the pytest settings."""
    tmp = tempfile.TemporaryDirectory(prefix="mutant-")
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for tree in ("src", "tests"):
        shutil.copytree(ROOT / tree, pathlib.Path(tmp.name) / tree, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", tmp.name)
    return tmp


def _failed(directory: str, tests) -> tuple[set[str], str]:
    """Run ``tests`` in ``directory`` against its own ``src``: the ids that failed, and pytest's output."""
    env = dict(os.environ, PYTHONPATH=os.path.join(directory, "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rf", *tests],
        cwd=directory,
        env=env,
        capture_output=True,
        text=True,
    )
    lines = done.stdout.splitlines()
    return {line[len("FAILED ") :].split(" - ")[0] for line in lines if line.startswith("FAILED ")}, done.stdout


def main() -> int:
    problems = []
    with _copy() as clean:
        union = sorted({test for mutant in MUTANTS for test in mutant.tests})
        failed, output = _failed(clean, union)
        if failed or f"{len(union)} passed" not in output:
            print(output)
            problems.append(f"the unedited copy does not pass every mutant's tests: {sorted(failed)}")
    for mutant in MUTANTS:
        text = (ROOT / mutant.path).read_text(encoding="utf-8")
        found = text.count(mutant.old)
        if found != 1:
            problems.append(f"{mutant.name}: its old text occurs {found} times in {mutant.path}, not once")
            continue
        with _copy() as tmp:
            (pathlib.Path(tmp) / mutant.path).write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            failed, output = _failed(tmp, mutant.tests)
        missed = [test for test in mutant.tests if test not in failed]
        print(f"{'caught' if not missed else 'SURVIVED'}: {mutant.name}")
        if missed:
            print(output)
            problems.append(f"{mutant.name}: survived {missed}")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    print(f"{len(MUTANTS)} mutants, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
