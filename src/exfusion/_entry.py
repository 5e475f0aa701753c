"""Console-script shim.

``--deterministic``, accepted by every subcommand, has one meaning: it pins
the BLAS/OpenMP pools to one thread. That only takes effect if the
environment variables are set before numpy is first imported, so this shim
reads the flag, not the CLI. It changes no run setting, and no run file
records it. Keep this module free of heavy imports.
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
