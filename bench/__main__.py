"""``python3 -m bench``: run one workload, a whole set, a trace, or a compare.

Driver form (one workload, one process, one JSON result on the last line)::

    python3 -m bench --workload NAME --seed N --seconds S --trace 0|1

Developer forms (each workload still runs in its own fresh subprocess)::

    python3 -m bench run     [--seed N] [--seconds S] [--repeat R] [--out FILE] [--quick]
    python3 -m bench trace   [--seed N] [--seconds S] [--out FILE] [--quick]
    python3 -m bench compare A.json B.json
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Pin BLAS/OpenMP to one thread before numpy is first imported: the pool's
# workers inherit the environment, and three processes each spinning up a
# thread per core on a 2-core host turns a 0.7 s pool start into 7-21 s.
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _name in PINNED_THREADS:
    os.environ[_name] = "1"

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit("bench: src/repro not found next to bench/; nothing to measure")
sys.path.insert(0, str(ROOT / "src"))

from .cli import main  # noqa: E402 - after the environment is pinned

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
