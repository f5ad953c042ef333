"""Set-up time of one workload, measured in a fresh interpreter.

Usage: python3 bench/setup_probe.py <workload>

Prints the seconds taken to import finvar (numpy included) from the
checkout's ``src`` and to build every pair of the workload with
``catalog_metric``, scaled to the reference machine speed with the kernel
of ``speed.py`` timed just before and just after. ``run.py`` starts this
several times and reports the median as ``setup_s``.
"""

import statistics
import sys
import time
from pathlib import Path

import speed
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
KERNEL_SAMPLES = 10


def main(workload: str) -> None:
    descriptors = workloads.pairs(workload)
    sys.path.insert(0, str(SRC))
    kernels = [speed.kernel_s() for _ in range(KERNEL_SAMPLES)]
    start = time.perf_counter()
    import finvar
    built = [finvar.ProjectivePair(finvar.catalog_metric(base),
                                   finvar.catalog_metric(comparison))
             for base, comparison in descriptors]
    elapsed = time.perf_counter() - start
    kernels += [speed.kernel_s() for _ in range(KERNEL_SAMPLES)]
    if not Path(finvar.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"finvar imported from {finvar.__file__}, not from {SRC}")
    scaled = elapsed * speed.REFERENCE_S / statistics.mean(kernels)
    print(f"{scaled!r} {elapsed!r} {len(built)}")


if __name__ == "__main__":
    main(sys.argv[1])
