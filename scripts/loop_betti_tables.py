#!/usr/bin/env python3
"""Reproduce the headline free-loop-space computations as printed tables.

Covers: the bounded Betti patterns of spheres and projective-space-like
models, the unbounded S^3 x S^3 sequence against its closed-form series,
the multiplication-model differentials, and the witness-cocycle counts.

Run from the repository root:  python3 scripts/loop_betti_tables.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from sullivan.calculus import loop_model, suspended_name
from sullivan.homology import betti
from sullivan.models import (
    Recipe,
    build,
    loop_cohomology_closed_form,
    multiplication_model,
    vps_witnesses_for_model,
)
from sullivan.series import expand_rational, parse_rational

WINDOW = 16


def show(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def main() -> None:
    show("Free loop space Betti numbers, bounded cases (window 0..%d)" % WINDOW)
    cases = [
        ("S^3", Recipe("odd_sphere", (1,))),
        ("S^5", Recipe("odd_sphere", (2,))),
        ("S^2", Recipe("truncated_poly", (2, 1))),
        ("CP^2", Recipe("truncated_poly", (2, 2))),
        ("HP^1", Recipe("truncated_poly", (4, 1))),
        ("OP^2", Recipe("truncated_poly", (8, 2))),
    ]
    for name, recipe in cases:
        model = build(recipe)
        numbers = betti(loop_model(model), WINDOW).betti
        print(f"{name:>5}: {','.join(str(b) for b in numbers)}")

    show("Closed form versus computed, truncated polynomial cohomology")
    for d, n in [(2, 1), (2, 2), (4, 1), (8, 2)]:
        form = loop_cohomology_closed_form(d, n, WINDOW)
        computed = tuple(betti(loop_model(build(Recipe("truncated_poly", (d, n)))), WINDOW).betti)
        verdict = "EQUAL" if computed == form.dims else "DIFFER"
        print(f"(d={d}, n={n}): {verdict}; basis " +
              ", ".join(f"{label}@{deg}" for deg, label in form.entries[:6]) + ", ...")

    show("S^3 x S^3: unbounded Betti numbers and the rational series")
    s3s3 = build(Recipe("product", (Recipe("odd_sphere", (1,)), Recipe("odd_sphere", (1,)))))
    s3s3_loop = loop_model(s3s3)
    report = betti(s3s3_loop, WINDOW)
    print("betti:    ", ",".join(str(b) for b in report.betti))
    expansion = expand_rational(parse_rational("(1+z^3)^2/(1-z^2)^2", WINDOW), WINDOW)
    print("series:   ", ",".join(map(str, expansion)))
    print("agree:    ", report.betti == expansion)

    show("Relative model of the multiplication (suspension differentials)")
    for name, recipe in [("S^3", Recipe("odd_sphere", (1,))),
                         ("CP^1", Recipe("truncated_poly", (2, 1))),
                         ("CP^2", Recipe("truncated_poly", (2, 2)))]:
        mm = multiplication_model(build(recipe))
        for g in mm.target.algebra.generators:
            s = suspended_name(g.name)
            print(f"{name:>5}: D({s}) = {mm.model.d_of(s)}")

    show("Witness cocycles on S^3 x S^3 (k+1 classes in degree 2k)")
    witness_report = vps_witnesses_for_model(s3s3_loop, 6)
    loop_numbers = report.betti
    for entry in witness_report.entries:
        bound = loop_numbers[entry.degree] if entry.degree <= WINDOW else "-"
        print(f"k={entry.k}: degree {entry.degree}, {entry.count} classes, "
              f"betti {bound}, certified={entry.cocycles_verified and entry.independent}")


if __name__ == "__main__":
    main()
