"""Time one workload's set-up in a fresh interpreter.

    python3 bench/probe_setup.py WORKLOAD SEED WORKDIR

Prints the seconds spent importing the program and building the
workload's systems, measures and inputs.  Interpreter start-up is not
included.
"""

import sys
from pathlib import Path
from time import perf_counter


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    t0 = perf_counter()
    import workloads

    workloads.WORKLOADS[name](seed, workdir)
    print(perf_counter() - t0)


if __name__ == "__main__":
    main()
