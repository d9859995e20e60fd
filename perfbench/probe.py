"""Time one workload's set-up in a fresh interpreter and print the seconds.

Usage: python3 perfbench/probe.py WORKLOAD

Set-up is the first import of ``ksets`` plus the workload's own
``setup()``, so the clock starts before anything from the program is
imported.  ``run.py`` starts this several times and reports the median.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

start = time.perf_counter()
import workloads  # noqa: E402  (the import is part of what is timed)

workloads.WORKLOADS[sys.argv[1]].setup()
print(repr(time.perf_counter() - start))
