"""mobzero benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  This file first times the process's first import of
``mobzero.cli``, before the benchmark has loaded any module of its own, so
that the figure holds every module mobzero pulls in, standard library
included, as a CLI user pays for it.  It then hands over to ``runner.py``,
which does the measuring (see its docstring).  It exits 1 without a result
when mobzero cannot be imported from ``src/``.
"""

import os
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def cold_import():
    """Seconds taken by the first import of mobzero.cli from src/."""
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    import mobzero.cli
    dt = perf_counter() - t0
    where = os.path.dirname(os.path.dirname(os.path.abspath(
        mobzero.cli.__file__)))
    if where != SRC:
        raise ImportError(f"mobzero imported from {where}, not {SRC}")
    return dt


if __name__ == "__main__":
    try:
        cold_import_s = cold_import()
    except ImportError as exc:
        print(f"error: cannot import mobzero from {SRC}: {exc}",
              file=sys.stderr)
        sys.exit(1)
    sys.path.insert(0, BENCH)
    import runner
    sys.exit(runner.main(cold_import_s=cold_import_s))
