#!/usr/bin/env python3
"""Run every scenario preset at desk scale and write the CSV tables.

Equivalent to::

    mmkeygen run --config configs/fig2.cfg
    mmkeygen run --config configs/fig3.cfg
    mmkeygen run --config configs/fig4.cfg
    mmkeygen run --config configs/cascade_bench.cfg

Pass ``--seed`` to re-run everything under a different master seed, and
``--out-dir`` to redirect the tables.  Each scenario finishes in a few
minutes on a laptop.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from mmkeygen.experiments import load_config, run_scenario, write_csv  # noqa: E402
from dataclasses import replace  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=None, help="override master_seed for all scenarios")
    parser.add_argument("--out-dir", default="results", help="directory for the CSV tables")
    parser.add_argument(
        "--only",
        choices=["fig2", "fig3", "fig4", "cascade_bench"],
        default=None,
        help="run a single scenario",
    )
    args = parser.parse_args()

    root = pathlib.Path(__file__).resolve().parents[1]
    names = [args.only] if args.only else ["fig2", "fig3", "fig4", "cascade_bench"]
    for name in names:
        cfg = load_config(str(root / "configs" / f"{name}.cfg"))
        if args.seed is not None:
            cfg = replace(cfg, master_seed=args.seed)
        out = str(pathlib.Path(args.out_dir) / f"{name}.csv")
        start = time.time()
        table = run_scenario(cfg)
        write_csv(table, out)
        print(f"{name}: {len(table)} rows -> {out}  [{time.time() - start:.1f}s]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
