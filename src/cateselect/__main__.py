"""The ``cateselect`` command: ``python -m cateselect`` and the console script.

A command runs one BLAS thread unless the user chose a count: OpenBLAS
starts one thread per CPU when numpy loads, and in a short-lived process an
idle one spins for tens of milliseconds of CPU. Parallelism comes from a
study's ``workers``, whose pool processes inherit the setting. The count is
fixed here, before ``.cli`` imports numpy, because OpenBLAS reads it only
when it starts; importing ``cateselect.cli`` or calling ``cli`` from Python
sets nothing.
"""

import os
import sys

# the variables OpenBLAS reads for its thread count, in its order of precedence
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def entry() -> None:
    if not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import cli

    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    entry()
