"""Class shares of the canonical systems of the families on the check
stream's 2-variable universes, the source of ``workloads.STREAM_QUOTAS``.

    python3 perfbench/stream_shares.py

Each system that ``classify.enumerate_family`` gives for TwoTernary ({p,q})
and BinaryPlusTernary ({p,t}) is put in a class by the oracles, as the
stream's own draws are, and the counts are printed with the 2-variable
quotas they give when scaled to the stream's 204 2-variable systems.  The
empty system of each family is left out.  Takes about 15 s.
"""
from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from linid import classify, terms  # noqa: E402

FAMILIES = (("pq", classify.Family.TWO_TERNARY), ("pt", classify.Family.BINARY_PLUS_TERNARY))
TWO_VARIABLE_SYSTEMS = 204


def main() -> int:
    oracle = workloads.OracleCache()
    counts: Counter = Counter()
    for syms, family in FAMILIES:
        for system in classify.enumerate_family(family):
            text = terms.format_system(system)
            if text:
                counts[syms, workloads.stream_class(oracle, text)] += 1
    total = sum(counts.values())
    for (syms, cls), k in sorted(counts.items()):
        print(f"{syms} {cls:<9} {k:>4} systems {k / total:>6.1%} "
              f"-> {k * TWO_VARIABLE_SYSTEMS / total:6.1f} of {TWO_VARIABLE_SYSTEMS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
