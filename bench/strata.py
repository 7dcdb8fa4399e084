"""Count the density strata of random dual-certify pairs.

Prints, per dimension, how many of ``--draws`` pairs of
``workloads.random_closed_pair`` fall in each stratum of
``workloads.density_stratum`` (0 is a zero density).  These counts are the
natural shares recorded in ``workloads.DUAL_NATURAL``::

    python3 bench/strata.py --draws 3000
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import run, workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=12345,
                        help="dimension d draws from seed + d (default 12345)")
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    program = run.Program()
    with tempfile.TemporaryDirectory(dir=run.BENCH_DIR, prefix=".work-") as tmp:
        path = Path(tmp) / "pair.json"
        for dim in workloads.DUAL_NATURAL:
            rng = random.Random(args.seed + dim)
            counts: dict[int, int] = {}
            for _ in range(args.draws):
                path.write_text(json.dumps(workloads.random_closed_pair(rng, dim)))
                stratum = workloads.density_stratum(program, path)
                counts[stratum] = counts.get(stratum, 0) + 1
            print(dim, dict(sorted(counts.items())))


if __name__ == "__main__":
    main()
