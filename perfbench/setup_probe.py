"""Set up one workload in a fresh process and print when its inputs are ready.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

The last line of output is ``time.perf_counter()`` at that moment.  On
Linux it reads the system-wide monotonic clock, so the parent, which read
the same clock before starting this process, gets the set-up time from
process start to inputs ready: interpreter start, imports, input
generation and input files.
"""

import sys
from time import perf_counter

import workloads

if __name__ == "__main__":
    workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    print(repr(perf_counter()))
