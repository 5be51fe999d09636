"""Time linid's set-up in a fresh interpreter: the import of the package and
its first-use caches (the clone slices of the test algebras).  Prints the
CPU seconds taken, scaled to the nominal speed of ``speed.py`` by reference
samples taken in the same process just before and after.

    python3 perfbench/setup_probe.py
"""
from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def warm_caches() -> None:
    """Fill the clone-slice cache the way the workloads use it: through
    ``holds_in`` on a binary and a ternary symbol, in B and in the majority
    algebras of sizes 2 to 4."""
    from linid import algebra, parse_system

    system = parse_system("p(x,y,y)=t(x,y)")
    for algebra_ in (algebra.semilattice_b(), *(algebra.majority_a(m) for m in (2, 3, 4))):
        algebra.holds_in(system, algebra_)


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    import speed

    reference = [speed.reference_seconds() for _ in range(5)]
    start = time.thread_time()
    import linid  # noqa: F401  (the import is what is timed)

    warm_caches()
    seconds = time.thread_time() - start
    reference += [speed.reference_seconds() for _ in range(5)]
    print(repr(seconds * speed.NOMINAL_S / statistics.median(reference)))
