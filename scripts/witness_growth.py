#!/usr/bin/env python3
"""Witness-cocycle growth against computed loop-space Betti numbers.

For models whose cohomology needs at least two algebra generators, each
level k carries k+1 independent cocycles sx_1...sx_n (sy)^p (sz)^q, so the
Betti sequence of the free loop space is unbounded.  This script tabulates
the certified counts next to the exact Betti numbers for a few products.

Run from the repository root:  python3 scripts/witness_growth.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from sullivan.calculus import loop_model
from sullivan.homology import betti, h_algebra_generator_counts
from sullivan.models import Recipe, build, vps_witnesses_for_model

WINDOW = 14
K_MAX = 5

CASES = [
    ("S^3 x S^3", Recipe("product", (Recipe("odd_sphere", (1,)), Recipe("odd_sphere", (1,))))),
    ("S^3 x S^5", Recipe("product", (Recipe("odd_sphere", (1,)), Recipe("odd_sphere", (2,))))),
    ("S^2 x S^3", Recipe("product", (Recipe("even_sphere", (1,)), Recipe("odd_sphere", (1,))))),
]


def main() -> None:
    for name, recipe in CASES:
        model = build(recipe)
        generators = h_algebra_generator_counts(model, WINDOW)
        loop = loop_model(model)
        report = vps_witnesses_for_model(loop, K_MAX)
        numbers = betti(loop, WINDOW).betti
        print(f"\n{name}: H* algebra generators per degree "
              + ",".join(str(c) for c in generators))
        print(f"  witness pair ({report.y}, {report.z}), even part {list(report.even_gens)}, "
              f"degree period {report.period}")
        print("    k  degree  witnesses  betti")
        for entry in report.entries:
            bound = numbers[entry.degree] if entry.degree <= WINDOW else "-"
            flag = "" if entry.cocycles_verified and entry.independent else "  NOT CERTIFIED"
            print(f"    {entry.k}  {entry.degree:>6}  {entry.count:>9}  {bound!s:>5}{flag}")


if __name__ == "__main__":
    main()
