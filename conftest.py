"""Test-session settings for the whole repository.

BLAS is pinned to one thread for the test session, the pinning
``exfusion --deterministic`` and perfbench apply: OpenBLAS otherwise spins a
second thread on the suite's tiny gemms, which doubles its CPU time and
changes no result. The pin only takes effect before numpy is first imported;
pytest loads this root conftest before any test module. A value already set
in the environment is kept. Subprocesses the tests start inherit the pin.
"""

import sys
import warnings

from exfusion._entry import pin_blas_threads

if "numpy" in sys.modules:
    warnings.warn("numpy was imported before conftest.py could pin BLAS to one thread")
pin_blas_threads()
