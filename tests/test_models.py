from fractions import Fraction

import pytest

from sullivan.calculus import (
    CDGA,
    Morphism,
    check_chain_map,
    check_differential,
    loop_model,
    minimality_check,
    suspension,
)
from sullivan import linalg, models
from sullivan.algebra import Element, FreeGradedAlgebra, Generator
from sullivan.calculus import suspended_name
from sullivan.errors import NotApplicable, WindowTooSmall
from sullivan.modelfile import parse
from sullivan.homology import (
    _indecomposables_complex,
    assemble_window,
    betti,
    quasi_iso_via_indecomposables,
)
from sullivan.models import (
    Recipe,
    build,
    certify_in_window,
    product,
    loop_cohomology_closed_form,
    multiplication_model,
    recipe_from_args,
    recipe_from_spec,
    vps_witnesses_for_model,
)

from helpers import (
    builtin_models,
    cauchy_product,
    class_is_nontrivial,
    cpn,
    cpn_model,
    even_sphere,
    full_solve_gamma,
    gamma,
    gamma_candidates,
    normalised,
    odd_sphere,
    oracle_kernel,
    quasi_iso_check,
    s3_model,
    s3s3_model,
    sparse,
)
from test_branches import MODELS as BRANCH_MODELS


# -- recipes -----------------------------------------------------------------------


def test_odd_sphere_recipe():
    model = build(Recipe("odd_sphere", (1,)))
    assert [(g.name, g.degree) for g in model.algebra.generators] == [("v", 3)]
    assert model.d_of("v").is_zero()


def test_truncated_poly_recipe():
    model = build(Recipe("truncated_poly", (2, 2)))
    assert {(g.name, g.degree) for g in model.algebra.generators} == {("v", 2), ("w", 5)}
    assert model.d_of("w") == model.algebra.gen("v") ** 3


def test_even_sphere_is_truncated_poly_with_one_relation():
    sphere = build(Recipe("even_sphere", (2,)))
    trunc = build(Recipe("truncated_poly", (4, 1)))
    assert sphere == trunc


def test_product_recipe_builds_renamed_tensor():
    model = s3s3_model()
    assert {(g.name, g.degree) for g in model.algebra.generators} == {("v_1", 3), ("v_2", 3)}


def test_a_product_recipe_builds_one_tensor(monkeypatch):
    tensor = models.tensor_cdga
    calls = []

    def counted(*factors):
        calls.append(len(factors))
        return tensor(*factors)

    monkeypatch.setattr(models, "tensor_cdga", counted)
    model = build(recipe_from_args("product", ["odd-sphere:1", "odd-sphere:1", "cpn:2"]))
    assert calls == [3]
    assert [(g.name, g.degree) for g in model.algebra.generators] == [
        ("v_3", 2), ("v_1", 3), ("v_2", 3), ("w_3", 5)]
    assert model.d_of("w_3") == model.algebra.gen("v_3") ** 3


def test_every_builtin_is_valid_and_minimal():
    for name, model in builtin_models():
        assert check_differential(model) is None, name
        assert minimality_check(model) is None, name


def test_recipe_parameter_validation():
    with pytest.raises(ValueError):
        build(Recipe("truncated_poly", (3, 1)))
    with pytest.raises(ValueError):
        build(Recipe("even_sphere", (0,)))
    with pytest.raises(ValueError):
        build(Recipe("h_space", ()))
    with pytest.raises(ValueError):
        recipe_from_args("product", ["odd-sphere:1"])
    with pytest.raises(ValueError):
        recipe_from_args("nope", ["1"])


@pytest.mark.parametrize("name, args, message", [
    ("cpn", ["0"], "truncated_poly needs n >= 1"),
    ("odd-sphere", ["-1"], "odd_sphere needs n >= 0"),
    ("even-sphere", ["0"], "even_sphere needs n >= 1"),
    ("truncated-poly", ["3", "1"], "truncated_poly needs even d >= 2"),
    ("h-space", [], "h_space needs at least one degree"),
    ("h-space", ["3", "0"], "h_space needs degrees >= 1"),
])
def test_recipe_ranges_are_checked_by_build_alone(name, args, message):
    recipe = recipe_from_args(name, args)
    with pytest.raises(ValueError, match=message):
        build(recipe)


def test_recipe_specs_round_trip():
    assert recipe_from_spec("odd-sphere:1") == Recipe("odd_sphere", (1,))
    assert recipe_from_spec("cpn:3") == Recipe("truncated_poly", (2, 3))
    assert recipe_from_args("product", ["odd-sphere:1", "cpn:2"]) == Recipe(
        "product", (Recipe("odd_sphere", (1,)), Recipe("truncated_poly", (2, 2)))
    )


# -- multiplication model ----------------------------------------------------------------


def test_multiplication_model_of_odd_sphere():
    mm = multiplication_model(s3_model())
    alg = mm.model.algebra
    assert mm.model.d_of("sv") == alg.gen("v_1") - alg.gen("v_2")
    assert gamma(mm, "v").is_zero()
    assert mm.phi(alg.gen("v_1")) == mm.target.algebra.gen("v")
    assert mm.phi(alg.gen("sv")).is_zero()


@pytest.mark.parametrize("n", [1, 2])
def test_multiplication_model_of_cpn_matches_closed_formula(n):
    mm = multiplication_model(cpn_model(n))
    alg = mm.model.algebra
    v1, v2, sv = alg.gen("v_1"), alg.gen("v_2"), alg.gen("sv")
    expected = alg.gen("w_1") - alg.gen("w_2")
    correction = alg.zero()
    for i in range(n + 1):
        correction = correction + v1**i * v2 ** (n - i) * sv
    assert mm.model.d_of("sw") == expected - correction
    assert mm.model.d_of("sv") == v1 - v2


def test_gamma_vanishes_for_zero_differentials():
    mm = multiplication_model(build(Recipe("h_space", (3, 5))))
    assert all(gamma(mm, g.name).is_zero() for g in mm.target.algebra.generators)


def test_multiplication_model_lists_no_basis_when_every_d_is_zero(monkeypatch):
    # (S^3)^6 x S^41: degree 42 of the carrier alone holds about 2.2M words
    def refuse(*args, **kwargs):
        raise AssertionError("mult-model listed a basis")

    monkeypatch.setattr(FreeGradedAlgebra, "bases", refuse)
    mm = multiplication_model(build(Recipe("h_space", (3,) * 6 + (41,))))
    kept = mm.target.algebra.generators
    assert len(kept) == 7 and all(gamma(mm, g.name).is_zero() for g in kept)


def test_multiplication_model_lists_bases_to_the_top_nonzero_d(monkeypatch):
    # CP^2 x S^41: only w (degree 5, d w = v^3) is solved for, so the carrier
    # is listed to degree 6 and the target to 5, not to 42 and 41
    tops = []
    bases = FreeGradedAlgebra.bases

    def recorded(alg, top, *args, **kwargs):
        tops.append(top)
        return bases(alg, top, *args, **kwargs)

    monkeypatch.setattr(FreeGradedAlgebra, "bases", recorded)
    mm = multiplication_model(build(product(cpn(2), odd_sphere(20))))
    assert tops == [6, 5]
    assert not gamma(mm, "w_1").is_zero() and gamma(mm, "v_2").is_zero()


def test_indecomposables_of_multiplication_model():
    # linear part of D sends sv to v_1 - v_2 and the copies to zero
    mm = multiplication_model(cpn_model(2))
    q = _indecomposables_complex(mm.model, 5)
    name = mm.model.algebra.word_str
    linear = {name(word): {name(q.bases[n + 1][r]): c for r, c in column.items()}
              for n in range(6) for word, column in zip(q.bases[n], q.columns(n))}
    for g in ("v", "w"):
        assert linear[f"s{g}"] == {f"{g}_1": 1, f"{g}_2": -1}
        assert linear[f"{g}_1"] == linear[f"{g}_2"] == {}


def test_multiplication_model_postconditions():
    for name, model in [("cp1", cpn_model(1)), ("cp2", cpn_model(2)),
                        ("s3xs3", s3s3_model()), ("hp1", build(Recipe("truncated_poly", (4, 1))))]:
        mm = multiplication_model(model)
        assert check_differential(mm.model) is None, name
        assert check_chain_map(mm.phi, mm.model.differential, mm.target.differential) is None, name
        assert quasi_iso_via_indecomposables(mm.model, mm.target, mm.phi).is_quasi_iso, name
        assert minimality_check(mm.model, mm.base) is None, name


def test_quasi_iso_via_indecomposables_agrees_with_the_full_check():
    # the generator-indexed verdict against cohomology in degrees <= 8
    cases = []
    for model in (cpn_model(1), cpn_model(2), s3s3_model()):
        mm = multiplication_model(model)
        cases.append((mm.model, mm.target, mm.phi))
    source = CDGA(FreeGradedAlgebra([Generator("v", 3), Generator("w", 5)]))
    target = CDGA(FreeGradedAlgebra([Generator("v", 3)]))
    kill_w = Morphism(source.algebra, target.algebra,
                      {"v": target.algebra.gen("v"), "w": target.algebra.zero()})
    cases.append((source, target, kill_w))
    verdicts = [quasi_iso_via_indecomposables(*case).is_quasi_iso for case in cases]
    assert verdicts == [quasi_iso_check(*case, 8).is_quasi_iso for case in cases]
    assert verdicts == [True, True, True, False]


def test_multiplication_model_requires_minimal_simply_connected_input():
    with pytest.raises(ValueError):
        multiplication_model(CDGA(FreeGradedAlgebra([Generator("t", 1)])))
    plain = CDGA(FreeGradedAlgebra([Generator("a", 4), Generator("b", 3)]))
    non_minimal = CDGA(plain.algebra, {"b": plain.algebra.gen("a")})
    with pytest.raises(ValueError):
        multiplication_model(non_minimal)


def test_multiplication_model_truncation():
    mm = multiplication_model(cpn_model(2), max_degree=2)
    names = {g.name for g in mm.model.algebra.generators}
    assert names == {"v_1", "v_2", "sv"}


def test_truncated_target_keeps_the_low_generators_and_their_differentials():
    model = build(product(cpn(3), cpn(2), even_sphere(1)))
    for k in range(8):
        target = multiplication_model(model, max_degree=k).target
        kept = [g for g in model.algebra.generators if g.degree <= k]
        assert target.algebra.generators == tuple(kept)
        include = Morphism.inclusion(target.algebra, model.algebra)
        for g in kept:
            assert include(target.d_of(g.name)) == model.d_of(g.name)


def _collapse(mm):
    """Pushout of the multiplication: identify v_1 and v_2 with v.  The result
    lives on the target's generators and their suspensions, and is a
    free-loop-space model of the target."""
    loop_alg, _ = suspension(mm.target)
    names = {g.name: g.name[:-2] if g.name in mm.base else g.name for g in mm.model.algebra.generators}
    rho = Morphism(mm.model.algebra, loop_alg, {a: loop_alg.gen(b) for a, b in names.items()})
    return CDGA(loop_alg, {b: rho(mm.model.d_of(a)) for a, b in names.items()})


def test_pushout_of_multiplication_model_reproduces_loop_model():
    for name, model in [("s3", s3_model()), ("cp1", cpn_model(1)), ("cp2", cpn_model(2)),
                        ("h(3,5)", build(Recipe("h_space", (3, 5))))]:
        mm = multiplication_model(model)
        collapsed = _collapse(mm)
        loop = loop_model(model)
        assert check_differential(collapsed) is None, name
        assert betti(collapsed, 10).betti == betti(loop, 10).betti, name
        # with the canonical correction the differentials agree exactly
        assert collapsed == loop, name


# -- closed-form loop cohomology -------------------------------------------------------


def test_closed_form_s2_every_degree_has_dimension_one():
    form = loop_cohomology_closed_form(2, 1, 15)
    assert all(b == 1 for b in form.dims)


def test_closed_form_cp2_degrees_alternate():
    # even entries v^p (sw)^i and odd entries v^p sv (sw)^i are all distinct
    form = loop_cohomology_closed_form(2, 2, 20)
    assert all(b <= 1 for b in form.dims)
    even = [deg for deg, label in form.entries if deg % 2 == 0]
    odd = [deg for deg, label in form.entries if deg % 2 == 1]
    assert len(set(even)) == len(even) and len(set(odd)) == len(odd)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (4, 1), (8, 2)])
def test_closed_form_matches_computed_loop_betti(d, n):
    form = loop_cohomology_closed_form(d, n, 20)
    computed = betti(loop_model(build(Recipe("truncated_poly", (d, n)))), 20)
    assert tuple(computed.betti) == form.dims


def test_free_loops_of_product_satisfy_kunneth():
    # loop model of a product is the tensor of the loop models, so its
    # Betti series is the product of the factor series
    cp2 = Recipe("truncated_poly", (2, 2))
    pairs = [
        (Recipe("odd_sphere", (1,)), Recipe("odd_sphere", (2,))),
        (Recipe("even_sphere", (1,)), Recipe("odd_sphere", (1,))),
        (cp2, cp2),
    ]
    for left, right in pairs:
        combined = betti(loop_model(build(Recipe("product", (left, right)))), 10)
        factor_l = betti(loop_model(build(left)), 10)
        factor_r = betti(loop_model(build(right)), 10)
        assert combined.betti == cauchy_product(factor_l.betti, factor_r.betti)
    # every Betti number of LCP^2 is 1, so Kunneth gives b_n = n + 1 on L(CP^2 x CP^2)
    assert list(combined.betti) == [n + 1 for n in range(11)]


def test_monogenic_models_have_bounded_loop_betti():
    for spec in ["odd-sphere:1", "odd-sphere:2", "even-sphere:1", "cpn:3"]:
        model = build(recipe_from_spec(spec))
        report = betti(loop_model(model), 20)
        assert all(b <= 1 for b in report.betti), spec


# -- witnesses ----------------------------------------------------------------------------


def loop_cocycles(loop, max_degree):
    """The `Cocycles` of each degree of a loop window, from its one pass."""
    return dict(assemble_window(loop, max_degree).cocycles())


def test_vps_witnesses_on_s3s3():
    loop = loop_model(s3s3_model())
    report = certify_in_window(vps_witnesses_for_model(loop, 5), loop_cocycles(loop, 12))
    loop_betti = betti(loop, 12).betti
    assert report.period == 2
    for entry in report.entries:
        assert entry.degree == 2 * entry.k
        assert entry.count == entry.k + 1
        assert entry.cocycles_verified and entry.independent
        if entry.degree <= 12:
            assert entry.count <= loop_betti[entry.degree]


def test_vps_witnesses_with_even_generators():
    # product of an even sphere and an odd sphere: one even generator, two odds
    model = build(Recipe("product", (Recipe("even_sphere", (1,)), Recipe("odd_sphere", (1,)))))
    loop = loop_model(model)
    report = certify_in_window(vps_witnesses_for_model(loop, 3), loop_cocycles(loop, 7))
    assert report.even_gens == ("v_1",)
    assert {report.y, report.z} == {"w_1", "v_2"}
    assert all(e.cocycles_verified and e.independent for e in report.entries)
    # witness degrees: |sv_1| + 2k
    for entry in report.entries:
        assert entry.degree == 1 + 2 * entry.k


def test_vps_witnesses_list_no_basis(monkeypatch):
    # the families are built and their loop differentials taken with no basis
    # listed; only `certify_in_window` reads a window
    loops = [(loop_model(s3s3_model()), 5),
             (loop_model(build(Recipe("product", (Recipe("even_sphere", (1,)), Recipe("odd_sphere", (1,)))))), 3)]
    expected = [vps_witnesses_for_model(loop, k_max) for loop, k_max in loops]

    def refuse(*args, **kwargs):
        raise AssertionError("witness listed a basis")

    monkeypatch.setattr(FreeGradedAlgebra, "bases", refuse)
    for (loop, k_max), report in zip(loops, expected):
        assert vps_witnesses_for_model(loop, k_max) == report
        assert len(report.entries) == k_max + 1
        assert all(e.cocycles_verified and e.independent for e in report.entries)


def test_witnesses_that_are_no_loop_cocycles_are_not_certified():
    loop = loop_model(parse(BRANCH_MODELS["not-loop-cocycles"]))
    families = vps_witnesses_for_model(loop, 3)
    assert (families.even_gens, families.y, families.z) == (("a", "b"), "y", "z")
    assert not any(e.cocycles_verified for e in families.entries)
    # outside a window, independent says only that the witnesses are distinct nonzero words
    assert all(e.independent for e in families.entries)
    report = certify_in_window(families, loop_cocycles(loop, 10))
    assert [e.degree for e in report.entries] == [4, 6, 8, 10]
    assert not any(e.independent or e.certified for e in report.entries)


def test_a_level_whose_witness_is_a_boundary_is_not_independent_in_the_window():
    # on L(S^2 x S^3), v_1*sv_1 = d(-sw_1/2) is a cocycle and one nonzero word, but no new class
    loop = loop_model(build(Recipe("product", (Recipe("even_sphere", (1,)), Recipe("odd_sphere", (1,))))))
    families = vps_witnesses_for_model(loop, 1)
    boundary = loop.algebra.gen("v_1") * loop.algebra.gen("sv_1")
    assert loop.d(boundary).is_zero()
    entry = families.entries[0]._replace(degree=3, exponent_pairs=((0, 0),), witnesses=(boundary,))
    level = families._replace(entries=(entry,))
    assert level.entries[0].certified
    (certified,) = certify_in_window(level, loop_cocycles(loop, 4)).entries
    assert certified.cocycles_verified and not certified.independent
    # the same family outside the window keeps its verdicts
    assert certify_in_window(level, loop_cocycles(loop, 2)) == level


def test_certify_in_window_certifies_only_the_levels_inside_it():
    loop = loop_model(s3s3_model())
    families = vps_witnesses_for_model(loop, 4)
    # levels that repeat a witness: those inside the window are tested again
    # and found dependent, those outside keep the verdicts they were built with
    doubled = tuple(e._replace(witnesses=e.witnesses[:1] * e.count) for e in families.entries)
    report = certify_in_window(families._replace(entries=doubled), loop_cocycles(loop, 4))
    assert [e.independent for e in report.entries] == [True, False, False, True, True]


def test_vps_witnesses_not_applicable_for_single_odd_generator():
    with pytest.raises(NotApplicable):
        vps_witnesses_for_model(loop_model(s3_model()), 3)
    with pytest.raises(NotApplicable):
        vps_witnesses_for_model(loop_model(cpn_model(2)), 3)


def test_vps_witnesses_read_their_roles_from_the_loop_model():
    report = vps_witnesses_for_model(loop_model(s3s3_model()), 2)
    assert (report.even_gens, report.y, report.z) == ((), "v_1", "v_2")
    assert report.entries[2].count == 3


def test_k_zero_is_single_class():
    model = build(Recipe("product", (Recipe("even_sphere", (1,)), Recipe("odd_sphere", (1,)))))
    report = vps_witnesses_for_model(loop_model(model), 0)
    (entry,) = report.entries
    assert entry.count == 1
    assert entry.exponent_pairs == ((0, 0),)


def test_first_odd_witness_family_is_nontrivial():
    # the q-free special case: sx1...sxm (sy)^p, certified nontrivial; on the
    # even sphere Lambda(v2, w3) the first odd generator is y = w, so m = 1, x1 = v
    loop = loop_model(build(Recipe("even_sphere", (1,))))
    sv, sw = loop.algebra.gen("sv"), loop.algebra.gen("sw")
    for p in range(5):
        witness = sv * sw**p
        assert loop.d(witness).is_zero()
        assert witness.degree() == 1 + 2 * p
        assert class_is_nontrivial(loop, witness)


def test_witness_counts_bound_betti_from_below():
    loop = loop_model(s3s3_model())
    report = certify_in_window(vps_witnesses_for_model(loop, 6), loop_cocycles(loop, 12))
    loop_betti = betti(loop, 12).betti
    for entry in report.entries:
        if entry.degree <= 12:
            assert entry.certified
            assert entry.count <= loop_betti[entry.degree]


# -- assembly builds no elements ------------------------------------------------------


def _count_element_constructions(monkeypatch) -> list[int]:
    count = [0]
    construct = Element.__init__

    def counted(self, algebra, terms):
        count[0] += 1
        construct(self, algebra, terms)

    monkeypatch.setattr(Element, "__init__", counted)
    return count


def test_assembly_builds_no_elements(monkeypatch):
    loop = loop_model(build(product(even_sphere(1), odd_sphere(1))))
    count = _count_element_constructions(monkeypatch)
    window = assemble_window(loop, 14)
    columns = [window.columns(n) for n in range(15)]  # each d^n, as the pass builds it
    assert count[0] == 0
    assert sum(len(b) for b in window.bases) > 500  # the window is not trivial
    assert sum(map(len, columns)) > 400


def _record_solves(monkeypatch) -> dict[linalg.Echelon, tuple[list, list]]:
    """Per echelon: the columns added to it, and what each `add` returned.

    Keyed by the echelon itself, which the dict keeps alive: an id() key
    could be reused by a later echelon once an earlier one is freed, and
    merge two solves."""
    add = linalg.Echelon.add
    solves: dict[linalg.Echelon, tuple[list, list]] = {}

    def recorded_add(echelon, column):
        columns, relations = solves.setdefault(echelon, ([], []))
        columns.append(column)
        relations.append(add(echelon, column))
        return relations[-1]

    monkeypatch.setattr(linalg.Echelon, "add", recorded_add)
    return solves


def _record_gamma_calls(monkeypatch) -> list[tuple[tuple, Element]]:
    """The arguments and the correction of every `_solve_gamma` call."""
    solve, calls = models._solve_gamma, []

    def recorded_solve(*args):
        calls.append((args, solve(*args)))
        return calls[-1][1]

    monkeypatch.setattr(models, "_solve_gamma", recorded_solve)
    return calls


def test_multiplication_model_builds_fewer_elements_than_it_maps_words(monkeypatch):
    model = build(product(cpn(3), cpn(2), even_sphere(1)))
    solves = _record_solves(monkeypatch)
    count = _count_element_constructions(monkeypatch)
    mm = multiplication_model(model)
    # -rhs, then one column per candidate word up to the one that closes the solve
    mapped = sum(len(columns) - 1 for columns, _ in solves.values())
    assert mapped > 0 and count[0] < mapped, (count[0], mapped)
    assert len(mm.model.algebra.generators) == 18


def test_each_correction_is_the_dense_kernel_vector_of_its_right_hand_side(monkeypatch):
    # the relation of the closing candidate c_k, divided by its own entry, is
    # the reduced-echelon kernel vector of the last column of
    # [-rhs | c_1 .. c_k], from the dense Bareiss oracle
    solves = _record_solves(monkeypatch)
    calls = _record_gamma_calls(monkeypatch)
    multiplication_model(build(product(cpn(2), even_sphere(1))))
    monkeypatch.undo()
    assert solves and len(solves) == len(calls)
    for columns, relations in solves.values():
        keys = sorted(set().union(*columns))
        dense = [[c.get(k, Fraction(0)) for c in columns] for k in keys]
        assert normalised(relations[-1]) == sparse(oracle_kernel(dense, len(columns)))[-1]
    # and the correction is the reduced-echelon solution (x, 1) of
    # [A | -rhs] over every candidate, with A built here: the rows of D over
    # those of phi
    for (derivation, phi, g, rhs, bases, target_bases), correction in calls:
        candidates = gamma_candidates(derivation, phi, g, bases)
        images = [(derivation.on_word(w), phi.on_word(w)) for w in candidates]
        dense = [[Fraction(d.get(r, 0)) for d, _ in images] + [-rhs.terms.get(r, 0)] for r in bases[g.degree + 1]]
        dense += [[Fraction(p.get(r, 0)) for _, p in images] + [0] for r in target_bases[g.degree]]
        solution = oracle_kernel(dense, len(candidates) + 1)[-1]
        assert solution[-1] == 1
        assert correction == Element(derivation.source, dict(zip(candidates, solution)))


# CP2xS2, CP2xCP2, CP3xCP2xS2, CP2xCP2xCP2, S3xS3xS4, a truncated polynomial
# factor, and CP3xCP2xS2 truncated at each degree
PREFIX_SOLVE_CASES = [(spec, None) for spec in ["cpn:2 even-sphere:1", "cpn:2 cpn:2", "cpn:3 cpn:2 even-sphere:1",
                                                "cpn:2 cpn:2 cpn:2", "odd-sphere:1 odd-sphere:1 even-sphere:2",
                                                "truncated-poly:4:3 cpn:3 even-sphere:1"]]
PREFIX_SOLVE_CASES += [("cpn:3 cpn:2 even-sphere:1", k) for k in range(8)]


@pytest.mark.parametrize("spec, max_degree", PREFIX_SOLVE_CASES)
def test_the_prefix_solve_gives_the_full_solve_correction(spec, max_degree, monkeypatch):
    model = build(recipe_from_args("product", spec.split()))
    mm = multiplication_model(model, max_degree)
    monkeypatch.setattr(models, "_solve_gamma", full_solve_gamma)
    reference = multiplication_model(model, max_degree)
    suspensions = [suspended_name(g.name) for g in reference.target.algebra.generators]
    assert [mm.model.d_of(s) for s in suspensions] == [reference.model.d_of(s) for s in suspensions]


def test_each_solve_maps_candidates_only_up_to_its_closing_one(monkeypatch):
    solves = _record_solves(monkeypatch)
    multiplication_model(build(product(cpn(3), cpn(2), even_sphere(1))))
    monkeypatch.undo()
    # the solves of w_3, w_2 and w_1 map 2, 52 and 335 candidates; the full
    # solves map 19, 111 and 425, 555 in all
    assert sum(len(columns) - 1 for columns, _ in solves.values()) == 389
    for _, relations in solves.values():
        # -rhs opens the solve, and only the last candidate's relation holds it
        closes = [z is not None and 0 in z for z in relations]
        assert closes == [False] * (len(closes) - 1) + [True]


def test_window_too_small_is_raised_exactly_where_the_full_solve_raises(monkeypatch):
    # with the degree-|g| basis cut to each of its prefixes, the solve raises
    # iff the full solve does, and returns the same correction otherwise
    calls = _record_gamma_calls(monkeypatch)
    multiplication_model(build(product(cpn(2), even_sphere(1))))
    monkeypatch.undo()
    assert calls
    for (derivation, phi, g, rhs, bases, target_bases), _ in calls:
        raised = set()
        for cut in range(len(bases[g.degree]) + 1):
            cut_bases = [*bases[:g.degree], bases[g.degree][:cut], *bases[g.degree + 1:]]
            results = []
            for solve in (models._solve_gamma, full_solve_gamma):
                try:
                    results.append(solve(derivation, phi, g, rhs, cut_bases, target_bases))
                except WindowTooSmall:
                    results.append(None)
            assert results[0] == results[1], (g.name, cut)
            raised.add(results[0] is None)
        assert raised == {True, False}
