"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value is exact (integers and rationals, no tolerances).
"""

import json
import random
import time
from fractions import Fraction

from sullivan.algebra import Element, FreeGradedAlgebra
from sullivan.calculus import (
    CDGA,
    check_chain_map,
    check_differential,
    koszul_model,
    loop_model,
    suspension,
    Morphism,
)
from sullivan.algebra import Generator
from sullivan.homology import betti, quasi_iso_via_indecomposables
from sullivan.models import (
    Recipe,
    build,
    loop_cohomology_closed_form,
    multiplication_model,
    vps_witnesses_for_model,
)
from sullivan.series import expand_rational, parse_rational

from helpers import builtin_models, cpn_model, s3s3_model
from test_cli import run_cli


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_s3s3_loop_betti():
    started = time.monotonic()
    recipe = run_cli(["recipe", "product", "odd-sphere:1", "odd-sphere:1"])
    result = run_cli(["loop-betti", "--max", "12", "--json"], stdin_text=recipe.stdout)
    elapsed = time.monotonic() - started
    computed = json.loads(result.stdout)["betti"]
    expected = [1, 0, 2] + [n - 1 for n in range(3, 13)]
    ok = result.returncode == 0 and computed == expected and elapsed < 10.0
    report(1, ok, f"loop-betti(S3xS3) = {computed} in {elapsed:.2f}s")


def test_criterion_2_odd_sphere_loop_pattern():
    ok = True
    details = []
    for n_sphere in (1, 2):  # S^3 and S^5
        model = build(Recipe("odd_sphere", (n_sphere,)))
        v_deg = 2 * n_sphere + 1
        computed = list(betti(loop_model(model), 20).betti)
        # oracle: monomial count of Lambda(v, sv), |v| odd, |sv| = |v| - 1
        expected = [
            sum(
                1
                for a in (0, 1)
                for b in range(0, 21)
                if a * v_deg + b * (v_deg - 1) == m
            )
            for m in range(21)
        ]
        ok = ok and computed == expected and all(b <= 1 for b in computed)
        details.append(f"S^{v_deg} pattern ok" if computed == expected else f"S^{v_deg} MISMATCH")
    report(2, ok, "; ".join(details))


def test_criterion_3_truncated_poly_loop_betti():
    ok = True
    details = []
    for d, n in [(2, 1), (2, 2), (4, 1), (8, 2)]:
        form = loop_cohomology_closed_form(d, n, 20)
        computed = tuple(betti(loop_model(build(Recipe("truncated_poly", (d, n)))), 20).betti)
        good = computed == form.dims and all(b <= 1 for b in computed)
        ok = ok and good
        details.append(f"(d={d},n={n}) {'ok' if good else 'MISMATCH'}")
    report(3, ok, "; ".join(details))


def test_criterion_4_multiplication_model_formula():
    ok = True
    details = []
    for n in (1, 2):
        mm = multiplication_model(cpn_model(n))
        alg = mm.model.algebra
        v1, v2, sv = alg.gen("v_1"), alg.gen("v_2"), alg.gen("sv")
        expected = alg.gen("w_1") - alg.gen("w_2")
        for i in range(n + 1):
            expected = expected - v1**i * v2 ** (n - i) * sv
        formula_ok = mm.model.d_of("sw") == expected
        quasi_ok = quasi_iso_via_indecomposables(mm.model, mm.target, mm.phi).is_quasi_iso
        ok = ok and formula_ok and quasi_ok
        details.append(
            f"CP^{n}: D(sw) {'exact' if formula_ok else 'WRONG'}, "
            f"Q(phi) {'iso' if quasi_ok else 'NOT iso'}"
        )
    report(4, ok, "; ".join(details))


def test_criterion_5_koszul_dimensions():
    presentation = CDGA(FreeGradedAlgebra([Generator("x", 2)]))
    x = presentation.algebra.gen("x")
    ok = True
    details = []
    for n in (1, 2, 3):
        koszul = koszul_model(presentation, x ** (n + 1), 12)
        computed = tuple(betti(koszul.model, 12).betti)
        expected = tuple(
            1 if (m % 2 == 0 and m <= 2 * n) else 0 for m in range(13)
        )
        good = computed == expected == koszul.quotient_dims
        ok = ok and good
        details.append(f"k[x]/x^{n + 1} {'ok' if good else 'MISMATCH'}")
    report(5, ok, "; ".join(details))


def test_criterion_6_loop_identities_on_random_monomials():
    rng = random.Random(20260809)
    models = builtin_models()
    checked = 0
    ok = True
    while checked < 200:
        name, model = models[checked % len(models)]
        loop = loop_model(model)
        _, s = suspension(model)
        delta = loop.differential
        bases = loop.algebra.bases(12)
        degree = rng.choice([m for m in range(1, 13) if bases[m]])
        word = rng.choice(bases[degree])
        mono = Element(loop.algebra, {word: Fraction(1)})
        anti = delta(s(mono)) + s(delta(mono))
        square = delta(delta(mono))
        if not (anti.is_zero() and square.is_zero()):
            ok = False
            break
        checked += 1
    report(6, ok, f"delta*s + s*delta = 0 and delta^2 = 0 on {checked} random monomials")


def test_criterion_7_series_comparison():
    expansion = expand_rational(parse_rational("(1+z^3)^2/(1-z^2)^2", 12), 12)
    computed = betti(loop_model(s3s3_model()), 12).betti
    ok = expansion == computed
    report(7, ok, f"(1+z^3)^2/(1-z^2)^2 -> {','.join(map(str, expansion))} == loop betti series")


def test_criterion_8_witness_lower_bounds():
    model = s3s3_model()
    loop = loop_model(model)
    witness_report = vps_witnesses_for_model(loop, 6)
    loop_betti = betti(loop, 12).betti
    ok = all(e.cocycles_verified and e.independent for e in witness_report.entries)
    for entry in witness_report.entries:
        ok = ok and entry.count == entry.k + 1 and entry.degree == 2 * entry.k
        if entry.degree <= 12:
            ok = ok and entry.count <= loop_betti[entry.degree]
    report(
        8,
        ok,
        "k+1 certified independent cocycles in degree 2k, below betti, k <= 6",
    )


def _mutable(model):
    """Models admitting a degree-consistent change to some differential."""
    return any(
        model.algebra.basis_in_degree(g.degree + 1) for g in model.algebra.generators
    )


def _random_mutation(rng, model):
    """A degree-consistent random change to one generator's differential."""
    algebra = model.algebra
    candidates = [
        (g, algebra.basis_in_degree(g.degree + 1))
        for g in algebra.generators
        if algebra.basis_in_degree(g.degree + 1)
    ]
    gen, basis = candidates[rng.randrange(len(candidates))]
    word = basis[rng.randrange(len(basis))]
    coeff = Fraction(rng.choice([-2, -1, 1, 2, 3]))
    values = {g.name: model.d_of(g.name) for g in algebra.generators}
    values[gen.name] = values[gen.name] + Element(algebra, {word: coeff})
    return gen.name, CDGA(algebra, values)


def test_criterion_9_mutation_robustness():
    rng = random.Random(97)
    models = [m for _, m in builtin_models() if _mutable(m)]
    caught = 0
    ok = True
    for i in range(20):
        model = models[i % len(models)]
        mutated_name, mutated = _random_mutation(rng, model)
        d_fails = check_differential(mutated) is not None
        identity = Morphism.inclusion(model.algebra, model.algebra)
        chain_fails = (
            check_chain_map(identity, mutated.differential, model.differential) is not None
        )
        if d_fails or chain_fails:
            caught += 1
        else:
            ok = False
    report(9, ok and caught == 20, f"{caught}/20 mutations rejected or detected")


def test_criterion_10_deterministic_json(tmp_path):
    cp2 = str(tmp_path / "cp2.model")
    with open(cp2, "w", encoding="utf-8") as handle:
        handle.write("generator v 2\ngenerator w 5\nd w = v^3\n")
    recipe = run_cli(["recipe", "product", "odd-sphere:1", "odd-sphere:1"])
    s3s3 = str(tmp_path / "s3s3.model")
    with open(s3s3, "w", encoding="utf-8") as handle:
        handle.write(recipe.stdout)
    loop_file = str(tmp_path / "s3s3_loop.model")
    run_cli(["loop", s3s3, "-o", loop_file])

    commands = [
        ["verify", cp2, "--json"],
        ["betti", cp2, "--max", "10", "--json"],
        ["loop", cp2, "--json"],
        ["loop-betti", s3s3, "--max", "12", "--json"],
        ["tensor", s3s3, cp2, "--json"],
        ["quotient", cp2, "--kill", "v,w", "--json"],
        ["koszul", "--by", "x^2", "--json"],
        ["mult-model", cp2, "--json"],
        ["witness", s3s3, "--k-max", "4", "--json"],
        ["series", "--rational", "(1+z^3)^2/(1-z^2)^2",
         "--betti-of", loop_file, "--max", "12", "--json"],
        ["recipe", "cpn", "2", "--json"],
    ]
    ok = True
    for args in commands:
        stdin_text = "generator x 2\n" if args[0] == "koszul" else None
        first = run_cli(args, stdin_text=stdin_text)
        second = run_cli(args, stdin_text=stdin_text)
        same = first.stdout == second.stdout and first.returncode == second.returncode
        json.loads(first.stdout)  # must be valid JSON
        ok = ok and same
        if not same:
            break
    report(10, ok, f"{len(commands)} commands produce byte-identical JSON across runs")
