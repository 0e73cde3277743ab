"""Set-up probe: time, in a fresh process, the import of ``dualspace.cli``
(which loads every library module, numpy and scipy) and the building of
one workload's spaces and lattices.  Prints the seconds taken and the
speed factor of ``calibrate`` measured right after, from the median of
``KERNELS`` reference kernels.

    PYTHONPATH=src python3 perfbench/probe.py <workload>
"""

import sys
import time

t0 = time.perf_counter()
import dualspace.cli  # noqa: E402,F401

import workloads  # noqa: E402

workloads.build_spaces(sys.argv[1])
seconds = time.perf_counter() - t0

import statistics  # noqa: E402

import calibrate  # noqa: E402

KERNELS = 15
ref = statistics.median(calibrate.reference_seconds() for _ in range(KERNELS))
print(repr(seconds), repr(calibrate.REF_SECONDS / ref))
