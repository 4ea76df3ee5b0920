"""Cold-start probe: a fresh interpreter, from spawn to first verified reply.

``run.py`` starts this file as a child process and times spawn -> ``READY``:
import, ``load_engine`` / daemon + worker start (or the first compiled
module, for ``compile_zoo_sweep``), and one request checked against the
reference the parent left in the work directory.  Teardown happens after
``READY`` and is not part of ``setup_s``.

Usage: ``python coldstart.py WORKLOAD SEED WORKDIR SMOKE(0|1)``
"""

import sys

from perfharness.bootstrap import bootstrap


def main(argv) -> int:
    name, seed, workdir, smoke = argv
    bootstrap()
    from perfharness.workloads import WORKLOADS

    workload = WORKLOADS[name](int(seed), workdir, smoke=smoke == "1")
    workload.load_cold_start()
    try:
        workload.start()
        if workload.iterate(0).failed:
            print(f"FAILED {workload.errors}", flush=True)
            return 1
        print("READY", flush=True)
    finally:
        workload.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
