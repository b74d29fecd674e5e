"""Benchmark of the mmkeygen scenario presets: one run of one workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload beam-keying --seed 1 --seconds 20 --trace 0

A run starts ``worker.py`` in a fresh interpreter that repeats whole
rounds of the workload for ``--seconds``; before and after it, it times a
fresh interpreter's import and config validation several times
(``setup_s``).  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every file a run writes goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("setup_s", "s"), ("trials_per_s", "trials/s"), ("peak_rss_mib", "MiB"))
# set-up is timed this many times before the measured rounds and as many
# after them, so the median spans two of the host's speed phases
SETUP_REPEATS = 4
# what every `mmkeygen run` pays before its first trial; the child measures
# from the parent's clock reading just before the spawn, because waiting on
# a child with a timeout polls in steps of up to 50 ms
SETUP_CODE = (
    "import sys, time, numpy, mmkeygen; mmkeygen.load_config(sys.argv[2]); "
    "print(time.time() - float(sys.argv[1]))"
)
WORKER_TIMEOUT_S = 150


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MMKEYGEN_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # one BLAS thread: the run's load stays at one core, and OpenBLAS's
    # thread start-up no longer lands in the first round
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _src_sha256() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "mmkeygen")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _git_rev() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _setup_times(cfg_path: str, env: dict[str, str]) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, repr(time.time()), cfg_path],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(proc.stdout))
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mmkeygen", "__init__.py")):
        print(f"no mmkeygen sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}")
    with open(stem + ".cfg", "w", encoding="utf-8") as fh:
        fh.write(WORKLOADS[args.workload].config_text(args.seed, stem + ".csv"))
    env = _child_env()

    setup = _setup_times(stem + ".cfg", env)
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--config", stem + ".cfg",
            "--spans", stem + ".spans.npz",
        ],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    setup += _setup_times(stem + ".cfg", env)
    run = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        values = run["layers"]
        units = dict(PER_LAYER)
    else:
        values = {
            "setup_s": statistics.median(setup),
            # all rounds' trials over all rounds' time: the host's speed drifts
            # in phases of seconds, which a mean weighs in proportion
            "trials_per_s": run["trials_per_round"] * len(run["walls"]) / sum(run["walls"]),
            "peak_rss_mib": run["peak_rss_mib"],
        }
        units = dict(END_TO_END)
    correct = all(ok for _, ok, _ in run["checks"])
    env_record = {
        "python": platform.python_version(),
        "numpy": run.pop("numpy"),
        "blas": {k: v for k, v in run.pop("blas").items() if k in ("name", "version", "openblas configuration")},
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "git_rev": _git_rev(),
        "src_sha256": _src_sha256(),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_s": setup,
        **run,
        "env": env_record,
    }
    with open(f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed}: {len(run['walls'])} untraced and "
          f"{len(run['traced_walls'])} traced rounds of {run['trials_per_round']} trials")
    print("env " + json.dumps(env_record))
    for name, ok, detail in run["checks"]:
        print(f"check {'PASS' if ok else 'FAIL'}: {name}: {detail}")
    print(f"csv_sha256 {run['csv_sha256']}")
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
