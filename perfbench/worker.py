"""Measuring process of one benchmark run.

``run.py`` starts this file in a fresh interpreter for every run.  It runs
whole rounds of one workload, each round being ``run_scenario`` followed by
``write_csv`` on the workload's config, until ``--seconds`` have passed.  It
then checks the outputs and prints one JSON line of per-round figures for
``run.py`` to report.

With ``--trace 1`` the rounds alternate untraced and traced, starting
untraced, so the tracing overhead is measured within the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--spans", required=True, help="where the traced run writes its spans (.npz)")
    args = parser.parse_args(argv)

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    import numpy as np

    import mmkeygen

    if not os.path.abspath(mmkeygen.__file__).startswith(src + os.sep):
        print(f"mmkeygen imported from {mmkeygen.__file__}, not from {src}", file=sys.stderr)
        return 2

    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    cfg = mmkeygen.load_config(args.config)
    tracer = Tracer() if args.trace else None

    walls: list[float] = []
    traced_walls: list[float] = []
    summaries: list[dict] = []
    first_spans: dict = {}
    shas: list[str] = []
    errors: list[str] = []
    table = None
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        attempted += workload.trials_per_round
        try:
            t0 = time.perf_counter()
            result = mmkeygen.run_scenario(cfg)
            mmkeygen.write_csv(result, cfg.output_path)
            wall = time.perf_counter() - t0
        except Exception:
            failed += workload.trials_per_round
            errors.append(traceback.format_exc(limit=3))
        else:
            table = table or result
            shas.append(_sha256(cfg.output_path))
            (traced_walls if traced else walls).append(wall)
        finally:
            if traced:
                tracer.uninstall()
        if traced and len(summaries) < len(traced_walls):
            summaries.append(tracer.round_summary())
            if len(summaries) == 1:
                first_spans = tracer.spans()
        index += 1
        if time.perf_counter() >= deadline and (tracer is None or index % 2 == 0):
            break

    if table is None or not walls or (tracer is not None and not traced_walls):
        print("no round completed:\n" + "".join(errors[:1]), file=sys.stderr)
        return 1

    if tracer is not None:
        np.savez_compressed(args.spans, **first_spans)
    # before the checks, whose own arrays would otherwise set the peak
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = workload.check(table, args.seed)
    checks.append(("every round writes the same CSV", len(set(shas)) == 1, f"{len(shas)} rounds"))
    record = {
        "walls": walls,
        "traced_walls": traced_walls,
        "trials_per_round": workload.trials_per_round,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "csv_sha256": shas[0],
        "checks": checks,
        "peak_rss_mib": peak_rss_mib,
        "layers": layer_metrics(summaries, traced_walls, walls) if tracer else None,
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
