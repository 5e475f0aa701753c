"""Console-script shim.

``--deterministic`` pins BLAS/OpenMP pools to one thread, which only takes
effect if the environment variables are set before numpy is first imported.
Keep this module free of heavy imports.
"""

import os
import sys

_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_blas_threads() -> None:
    """Default every BLAS/OpenMP pool to one thread; values already set stay."""
    for var in _THREAD_VARS:
        os.environ.setdefault(var, "1")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if "--deterministic" in args:
        pin_blas_threads()
    from .cli import main as cli_main

    return cli_main(args)


if __name__ == "__main__":
    raise SystemExit(main())
