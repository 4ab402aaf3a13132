"""Benchmark entry point.

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the solver is imported from its
``src`` directory.  See README.md next to this file.
"""

import os
import sys
from pathlib import Path

# Pinned before numpy is imported: the baseline is one single-threaded
# process, so a BLAS thread pool must not change the numbers.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main() -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    if not (src / "svbilevel" / "__init__.py").is_file():
        print(f"perfbench: no solver sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(here)]
    import harness

    return harness.main(sys.argv[1:], src)


if __name__ == "__main__":
    sys.exit(main())
