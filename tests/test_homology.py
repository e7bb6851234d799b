import copy
import gc
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sullivan import linalg
from sullivan.algebra import Element, FreeGradedAlgebra, Generator
from sullivan.calculus import (
    CDGA,
    Morphism,
    koszul_model,
    loop_model,
    quotient_by_generators,
)
from sullivan.errors import BasisSizeExceeded
from sullivan.homology import (
    DegreeWindowComplex,
    _indecomposables_complex,
    assemble_window,
    betti,
    betti_of_window,
    h_algebra_generator_counts,
    quasi_iso_check,
    quasi_iso_via_indecomposables,
)
from sullivan.modelfile import parse
from sullivan.models import Recipe, build, recipe_from_args

from helpers import (
    NotACocycle,
    builtin_models,
    class_is_nontrivial,
    cpn_model,
    element_coordinates,
    element_from_coordinates,
    even_sphere_model,
    normalised,
    oracle_kernel,
    s3_model,
    s3s3_model,
    sparse,
    window_kernel,
)


# -- window assembly ----------------------------------------------------------------


def test_window_basis_sizes():
    # oracle: hand enumeration for Lambda(v2, w3), degrees 0..6
    window = assemble_window(even_sphere_model(1), 6)
    assert [len(b) for b in window.bases[:7]] == [1, 0, 1, 1, 1, 1, 1]


def test_zero_differential_gives_zero_matrices():
    window = assemble_window(s3s3_model(), 8)
    for n in range(9):
        assert all(not any(row) for row in window.matrix(n))


def test_even_sphere_matrix_entry():
    model = even_sphere_model(1)
    window = assemble_window(model, 4)
    # degree 3 basis is [w], degree 4 basis is [v^2]; d sends w to v^2
    assert [model.algebra.word_str(w) for w in window.bases[3]] == ["w"]
    assert [model.algebra.word_str(w) for w in window.bases[4]] == ["v^2"]
    assert window.matrix(3) == [[Fraction(1)]]


def test_consecutive_matrices_compose_to_zero():
    for name, model in builtin_models():
        window = assemble_window(loop_model(model), 8)
        for n in range(7):
            a = window.matrix(n)
            b = window.matrix(n + 1)
            for i in range(len(b)):
                for j in range(len(a[0]) if a else 0):
                    acc = sum((b[i][k] * a[k][j] for k in range(len(a))), Fraction(0))
                    assert acc == 0, name


def test_basis_cap_is_enforced():
    with pytest.raises(BasisSizeExceeded):
        assemble_window(loop_model(s3s3_model()), 12, cap=3)


def test_window_is_its_model_and_its_bases():
    model = loop_model(s3_model())
    window, q = assemble_window(model, 6), _indecomposables_complex(model, 3)
    assert DegreeWindowComplex._fields == ("model", "max_degree", "bases")
    assert copy.deepcopy(window) == window and copy.deepcopy(q) == q  # no field holds a callable


def test_the_window_owns_its_bases():
    # the algebra keeps no basis: dropping the window frees every listed word
    model = loop_model(build(S2S3))
    before = dict(vars(model.algebra))
    tracemalloc.start()
    try:
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        window = assemble_window(model, 40)
        assert sum(map(len, window.bases)) > 1000
        del window
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held < 64 * 1024, held
    assert vars(model.algebra) == before


def test_columns_are_empty_outside_the_window():
    window = assemble_window(loop_model(s3s3_model()), 6)
    assert window.columns(-1) == [] and window.columns(7) == []
    assert window.matrix(-1) == [] and window.matrix(7) == []
    assert [len(window.columns(n)) for n in range(7)] == [window.dim(n) for n in range(7)]


def test_the_pass_builds_each_differential_once_and_in_turn(monkeypatch):
    built: list[int] = []
    columns = DegreeWindowComplex.columns

    def recorded(window, n):
        built.append(n)
        return columns(window, n)

    window = assemble_window(loop_model(build(S2S3)), 14)
    monkeypatch.setattr(DegreeWindowComplex, "columns", recorded)
    for n, _ in window.cocycles():
        # degree n reads d^n and d^(n-1), and nothing below is built yet
        assert min(built) >= n - 1, (n, built)
    assert all(built.count(n) == 1 for n in range(15)), built


# -- betti ----------------------------------------------------------------------------


def test_even_sphere_betti():
    # H = k[v]/v^2: classes in degrees 0 and 2 only, [v^2] = [dw] dies
    report = betti(even_sphere_model(1), 8)
    assert list(report.betti) == [1, 0, 1, 0, 0, 0, 0, 0, 0]


def test_loop_betti_of_s3():
    # oracle: monomial count of Lambda(v3, sv2) per degree
    report = betti(loop_model(s3_model()), 20)
    expected = [1 if n != 1 else 0 for n in range(21)]
    assert list(report.betti) == expected


def test_loop_betti_of_s3s3():
    report = betti(loop_model(s3s3_model()), 12)
    assert list(report.betti) == [1, 0, 2, 2] + [n - 1 for n in range(4, 13)]


def test_loop_betti_of_two_even_generator_products_in_closed_form():
    # oracle: LCP^2 has b_n = 1 in every degree, so its Kunneth square has
    # b_n = n + 1; L(S^2 x S^3) has b_0 = 1 and b_n = n for n >= 1
    cp2cp2 = parse("generator a 2\ngenerator b 2\ngenerator x 5\ngenerator y 5\n"
                   "d x = a^3\nd y = b^3\n")
    assert list(betti(loop_model(cp2cp2), 24).betti) == [n + 1 for n in range(25)]
    s2s3 = parse("generator a 2\ngenerator x 3\ngenerator y 3\nd x = a^2\n")
    assert list(betti(loop_model(s2s3), 24).betti) == [1] + list(range(1, 25))


def boundaries_of(window, n):
    """The columns of d^(n-1): the degree-n boundaries, as sparse vectors."""
    return window.columns(n - 1)


def test_cocycles_is_the_kernel_and_the_boundary_echelon():
    # oracle: the dense Bareiss kernels of d^n and d^(n-1), and the rank of d^(n-1)
    for name, model in [("cp2 loop", loop_model(cpn_model(2))), ("s3s3 loop", loop_model(s3s3_model()))]:
        window = assemble_window(model, 10)
        assert [n for n, _ in window.cocycles()] == list(range(10, -1, -1))  # top degree down
        for n, cocycles in window.cocycles():
            basis = window.bases[n]
            kernel = window_kernel(window, n)
            assert cocycles.free == {basis[max(z)]: max(z) for z in kernel}, (name, n)
            classes = [z for z in kernel if max(z) not in cocycles.boundaries.columns]
            assert [z.terms for z in cocycles.classes] == [
                {basis[c]: x for c, x in z.items()} for z in classes], (name, n)
            previous = window.matrix(n - 1) if n else []
            assert cocycles.boundaries.rank == linalg.rank(sparse(previous)), (name, n)
            # cut to the free columns of d^n, the columns of d^(n-1) keep their
            # relations: each is the kernel vector of its free column
            cut, free = linalg.Echelon(), set(cocycles.free.values())
            relations = [cut.add({f: x for f, x in column.items() if f in free})
                         for column in boundaries_of(window, n)]
            assert [normalised(z) for z in relations if z is not None] == (
                window_kernel(window, n - 1) if n else [])
            assert all(not cocycles.add(Element(model.algebra, {basis[r]: x for r, x in v.items()}))
                       for v in boundaries_of(window, n)), (name, n)
            # each class is new once, in order, and refused on a second add
            assert [(cocycles.add(z), cocycles.add(z)) for z in cocycles.classes] == (
                [(True, False)] * len(cocycles.classes)), (name, n)


def test_representatives_are_cocycles_and_independent_mod_boundaries():
    model = loop_model(cpn_model(2))
    window = assemble_window(model, 12)
    report = betti(model, 12)
    for n, classes in enumerate(report.representatives):
        assert len(classes) == report.betti[n]
        boundaries = boundaries_of(window, n)
        base_rank = linalg.rank(boundaries)
        stack = list(boundaries)
        for rep in classes:
            assert model.d(rep).is_zero()
            assert rep.degree() == n
            stack += sparse([element_coordinates(rep, window.bases[n])])
        assert linalg.rank(stack) == base_rank + len(classes)


def quadratic_rescan_betti(window):
    """Oracle: keep a kernel vector iff re-ranking the whole span with it grows.

    The kernel comes from the dense matrix through the test-only Bareiss
    oracle, not from `linalg`.
    """
    numbers, reps = [], []
    for n in range(window.max_degree + 1):
        kernel = oracle_kernel(window.matrix(n), window.dim(n))
        span = boundaries_of(window, n)
        current = linalg.rank(span)
        numbers.append(len(kernel) - current)
        chosen = []
        for vec in kernel:
            grown = span + sparse([vec])
            if linalg.rank(grown) > current:
                span = grown
                current += 1
                chosen.append(element_from_coordinates(window.model.algebra, window.bases[n], vec))
        reps.append(chosen)
    return numbers, reps


S2S3 = Recipe("product", (Recipe("even_sphere", (1,)), Recipe("odd_sphere", (1,))))
CP2CP2 = Recipe("product", (Recipe("truncated_poly", (2, 2)), Recipe("truncated_poly", (2, 2))))
# kernels of its loop model hold Fraction entries
RATIONAL_D = parse("generator a 2\ngenerator b 2\ngenerator x 3\ngenerator y 3\n"
                   "d x = a*b\nd y = 2*a^2 - 3/2*b^2\n")


def assert_selection_matches_quadratic_rescan(window):
    report = betti_of_window(window)
    numbers, reps = quadratic_rescan_betti(window)
    assert list(report.betti) == numbers
    assert [[c.terms for c in classes] for classes in report.representatives] == [
        [c.terms for c in classes] for classes in reps
    ]


@pytest.mark.parametrize("model, max_degree", [
    (loop_model(build(S2S3)), 10),
    (loop_model(s3s3_model()), 12),
    (cpn_model(2), 10),
    (loop_model(cpn_model(2)), 10),
    (loop_model(build(CP2CP2)), 12),
    (RATIONAL_D, 12),
    (loop_model(RATIONAL_D), 8),
], ids=["loop s2xs3", "loop s3xs3", "cp2", "loop cp2", "loop cp2xcp2", "rational d", "loop rational d"])
def test_incremental_selection_matches_quadratic_rescan(model, max_degree):
    assert_selection_matches_quadratic_rescan(assemble_window(model, max_degree))


def _random_polynomial(draw, algebra, evens, degree, keep=lambda exponents: True):
    """A random rational combination of the monomials of `degree` in the
    generators `evens`, over those whose `{name: exponent}` passes `keep`."""
    even_monomials = FreeGradedAlgebra(evens)
    value = algebra.zero()
    for word in even_monomials.basis_in_degree(degree):
        exponents = {even_monomials.generators[i].name: e for i, e in word}
        if keep(exponents):
            monomial = algebra.one()
            for name, exponent in exponents.items():
                monomial = monomial * algebra.gen(name) ** exponent
            value = value + monomial * Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    return value


@st.composite
def pure_models(draw):
    """Even generators with d = 0; odd generators with d a random polynomial in the even ones."""
    evens = [Generator(f"a{i}", draw(st.sampled_from([2, 4]))) for i in range(draw(st.integers(1, 2)))]
    odds = [Generator(f"y{j}", draw(st.sampled_from([3, 5, 7]))) for j in range(draw(st.integers(1, 2)))]
    algebra = FreeGradedAlgebra(evens + odds)
    return CDGA(algebra, {y.name: _random_polynomial(draw, algebra, evens, y.degree + 1) for y in odds})


@settings(max_examples=40, deadline=None)
@given(pure_models())
def test_selection_matches_quadratic_rescan_on_random_pure_models(model):
    assert_selection_matches_quadratic_rescan(assemble_window(model, 12))
    assert_selection_matches_quadratic_rescan(assemble_window(loop_model(model), 8))


@st.composite
def halperin_models(draw):
    """A positively elliptic pure model and its pairs (k_j, |x_j|): even x_j
    with d = 0, and odd y_j with d y_j = x_j^k_j + g_j, where g_j is a random
    rational combination of the monomials of that degree that hold an earlier
    x_i.  Modulo x_1..x_(j-1), d y_j is x_j^k_j, so the d y_j have the origin
    as their only common zero and form a regular sequence."""
    pairs = [(draw(st.integers(2, 4)), draw(st.sampled_from([2, 4]))) for _ in range(draw(st.integers(1, 3)))]
    evens = [Generator(f"x{j}", degree) for j, (_, degree) in enumerate(pairs)]
    odds = [Generator(f"y{j}", k * degree - 1) for j, (k, degree) in enumerate(pairs)]
    algebra = FreeGradedAlgebra(evens + odds)
    values = {}
    for j, (k, degree) in enumerate(pairs):
        earlier = {f"x{i}" for i in range(j)}
        g = _random_polynomial(draw, algebra, evens, k * degree, lambda exponents: not earlier.isdisjoint(exponents))
        values[f"y{j}"] = algebra.gen(f"x{j}") ** k + g
    return CDGA(algebra, values), pairs


def halperin_series(pairs, top):
    """Coefficients 0..top of prod_j (1 - t^(k_j |x_j|)) / (1 - t^|x_j|), each
    factor the polynomial 1 + t^|x_j| + ... + t^((k_j - 1)|x_j|)."""
    series = [1] + [0] * top
    for k, degree in pairs:
        series = [sum(series[n - e * degree] for e in range(k) if e * degree <= n) for n in range(top + 1)]
    return series


def test_halperin_series_of_cp2_times_s4():
    # (1 + t^2 + t^4)(1 + t^4)
    assert halperin_series([(3, 2), (2, 4)], 10) == [1, 0, 1, 0, 2, 0, 1, 0, 1, 0, 0]


@settings(max_examples=40, deadline=None)
@given(halperin_models())
def test_betti_of_a_positively_elliptic_pure_model_is_halperins_series(model_and_pairs):
    # Felix, Halperin & Thomas, Rational Homotopy Theory, GTM 205, section 32:
    # H = Q[x] / (d y_1, ..., d y_n), whose Poincare series is the product
    model, pairs = model_and_pairs
    top = sum((k - 1) * degree for k, degree in pairs) + 2
    assert list(betti(model, top).betti) == halperin_series(pairs, top)


def test_betti_ignores_generator_insertion_order():
    gens = [Generator("v", 2), Generator("w", 5)]
    a = FreeGradedAlgebra(gens)
    forward = CDGA(a, {"w": a.gen("v") ** 3})
    b = FreeGradedAlgebra(list(reversed(gens)))
    backward = CDGA(b, {"w": b.gen("v") ** 3})
    ra, rb = betti(forward, 10), betti(backward, 10)
    assert ra.betti == rb.betti
    assert [[str(c) for c in classes] for classes in ra.representatives] == [
        [str(c) for c in classes] for classes in rb.representatives
    ]


def test_dimension_count_two_ways():
    # dim C^n = b_n + rank d^n + rank d^(n-1) for every window degree
    for name, model in [("cp2 loop", loop_model(cpn_model(2))), ("s3s3 loop", loop_model(s3s3_model()))]:
        window = assemble_window(model, 10)
        report = betti(model, 10)
        for n in range(11):
            r_here = linalg.rank(sparse(window.matrix(n)))
            r_prev = linalg.rank(sparse(window.matrix(n - 1))) if n else 0
            assert window.dim(n) == report.betti[n] + r_here + r_prev, (name, n)


# -- nontriviality ------------------------------------------------------------------------


def test_unit_class_is_nontrivial():
    model = even_sphere_model(1)
    assert class_is_nontrivial(model, model.algebra.one())


def test_boundaries_are_trivial():
    model = even_sphere_model(1)
    v, w = model.algebra.gen("v"), model.algebra.gen("w")
    assert not class_is_nontrivial(model, model.d(w * v))
    assert not class_is_nontrivial(model, model.algebra.zero())


def test_non_cocycle_rejected():
    model = even_sphere_model(1)
    with pytest.raises(NotACocycle):
        class_is_nontrivial(model, model.algebra.gen("w"))


def test_sullivan_family_classes_are_nontrivial():
    # sx1...sxm (sy)^p in the loop model of the even sphere: m = 1, y = w
    model = even_sphere_model(1)
    loop = loop_model(model)
    sv, sw = loop.algebra.gen("sv"), loop.algebra.gen("sw")
    for p in range(4):
        witness = sv * sw**p
        assert loop.d(witness).is_zero()
        assert class_is_nontrivial(loop, witness)


# -- quasi-isomorphism checks ------------------------------------------------------------


def test_identity_is_quasi_iso():
    model = even_sphere_model(1)
    report = quasi_iso_check(model, model, Morphism.inclusion(model.algebra, model.algebra), 8)
    assert report.is_quasi_iso


def test_truncated_poly_model_maps_quasi_iso_to_koszul_encoding():
    # target encodes k[x]/x^(n+1) via the Koszul model; H(m) hits 1, x, ..., x^n
    n = 2
    source = cpn_model(n)
    presentation = CDGA(FreeGradedAlgebra([Generator("x", 2)]))
    koszul = koszul_model(presentation, presentation.algebra.gen("x") ** (n + 1), 14)
    target = koszul.model
    m = Morphism(
        source.algebra,
        target.algebra,
        {"v": target.algebra.gen("x"), "w": target.algebra.gen("sz")},
    )
    report = quasi_iso_check(source, target, m, 12)
    assert report.is_quasi_iso


def test_inclusion_into_multiplication_relative_model_is_not_quasi_iso():
    big_alg = FreeGradedAlgebra(
        [Generator("v1", 3), Generator("v2", 3), Generator("sv", 2)]
    )
    big = CDGA(big_alg, {"sv": big_alg.gen("v2") - big_alg.gen("v1")})
    small = CDGA(FreeGradedAlgebra([Generator("v1", 3), Generator("v2", 3)]))
    inclusion = Morphism.inclusion(small.algebra, big_alg)
    report = quasi_iso_check(small, big, inclusion, 8)
    assert not report.is_quasi_iso
    failures = [v.degree for v in report.per_degree if not v.isomorphism]
    assert 3 in failures  # [v1] and [v2] collapse in the target


def test_inclusion_verdicts_per_degree():
    # computed by hand: H(small) = Lambda(v1, v2); H(big) has [v1] = [v2] and no product
    big_alg = FreeGradedAlgebra(
        [Generator("v1", 3), Generator("v2", 3), Generator("sv", 2)]
    )
    big = CDGA(big_alg, {"sv": big_alg.gen("v2") - big_alg.gen("v1")})
    small = CDGA(FreeGradedAlgebra([Generator("v1", 3), Generator("v2", 3)]))
    report = quasi_iso_check(small, big, Morphism.inclusion(small.algebra, big_alg), 8)
    expected = {0: (1, 1, 1), 3: (2, 1, 1), 6: (1, 0, 0)}
    assert [v.degree for v in report.per_degree] == list(range(9))
    for v in report.per_degree:
        assert (v.dim_h_source, v.dim_h_target, v.rank_h_map) == expected.get(v.degree, (0, 0, 0))


def test_killing_a_generator_verdicts_per_degree():
    # indecomposables: v survives in degree 3, w in degree 5 maps to zero
    source = CDGA(FreeGradedAlgebra([Generator("v", 3), Generator("w", 5)]))
    target = CDGA(FreeGradedAlgebra([Generator("v", 3)]))
    m = Morphism(source.algebra, target.algebra,
                 {"v": target.algebra.gen("v"), "w": target.algebra.zero()})
    report = quasi_iso_via_indecomposables(source, target, m)
    expected = {3: (1, 1, 1), 5: (1, 0, 0)}
    assert [v.degree for v in report.per_degree] == list(range(6))
    for v in report.per_degree:
        assert (v.dim_h_source, v.dim_h_target, v.rank_h_map) == expected.get(v.degree, (0, 0, 0))


def test_quasi_iso_via_indecomposables_on_relative_model():
    big_alg = FreeGradedAlgebra(
        [Generator("v1", 3), Generator("v2", 3), Generator("sv", 2)]
    )
    big = CDGA(big_alg, {"sv": big_alg.gen("v2") - big_alg.gen("v1")})
    target = CDGA(FreeGradedAlgebra([Generator("v", 3)]))
    m = Morphism(
        big_alg,
        target.algebra,
        {"v1": target.algebra.gen("v"), "v2": target.algebra.gen("v"),
         "sv": target.algebra.zero()},
    )
    assert quasi_iso_via_indecomposables(big, target, m).is_quasi_iso


def test_killing_a_generator_is_detected_on_indecomposables():
    source = CDGA(FreeGradedAlgebra([Generator("v", 3), Generator("w", 5)]))
    target = CDGA(FreeGradedAlgebra([Generator("v", 3)]))
    m = Morphism(source.algebra, target.algebra,
                 {"v": target.algebra.gen("v"), "w": target.algebra.zero()})
    report = quasi_iso_via_indecomposables(source, target, m)
    assert not report.is_quasi_iso


def test_quasi_iso_requires_chain_map():
    source = even_sphere_model(1)
    target = CDGA(FreeGradedAlgebra([Generator("v", 2), Generator("w", 3)]))
    m = Morphism(source.algebra, target.algebra,
                 {"v": target.algebra.gen("v"), "w": target.algebra.gen("w")})
    with pytest.raises(ValueError):
        quasi_iso_check(source, target, m, 6)


# -- the long-exact-sequence bound --------------------------------------------------------


def test_elimination_bound_on_koszul_pairs():
    # dim H^n(A/zA) <= dim H^n(A) + dim H^(n+1-|z|)(A)
    presentation = CDGA(FreeGradedAlgebra([Generator("x", 2)]))
    for n_rel in (1, 2, 3):
        z = presentation.algebra.gen("x") ** (n_rel + 1)
        koszul = koszul_model(presentation, z, 12)
        h_a = [len(basis) for basis in presentation.algebra.bases(13)]
        z_degree = 2 * (n_rel + 1)
        for n in range(13):
            upper = n + 1 - z_degree
            bound = h_a[n] + (h_a[upper] if 0 <= upper < len(h_a) else 0)
            assert koszul.quotient_dims[n] <= bound


def test_elimination_bound_on_quotient_pairs():
    # quotient of a loop model by an even base generator, degreewise bound
    model = build(Recipe("product", (Recipe("even_sphere", (1,)), Recipe("odd_sphere", (1,)))))
    loop = loop_model(model)
    x = "v_1"  # the even generator of the sphere factor
    degree_x = loop.algebra.generator(x).degree
    quotient = quotient_by_generators(loop, [x])
    full = betti(loop, 12).betti
    quo = betti(quotient, 10).betti
    for n in range(11):
        upper = n + 1 - degree_x
        bound = full[n] + (full[upper] if 0 <= upper <= 12 else 0)
        assert quo[n] <= bound


# -- H* generator heuristic ---------------------------------------------------------------


def test_h_generator_counts_even_sphere():
    counts = h_algebra_generator_counts(even_sphere_model(1), 8)
    assert list(counts) == [0, 0, 1, 0, 0, 0, 0, 0, 0]


def test_h_generator_counts_of_cp3_see_powers_as_decomposable():
    counts = h_algebra_generator_counts(build(Recipe("truncated_poly", (2, 3))), 8)
    assert list(counts) == [0, 0, 1, 0, 0, 0, 0, 0, 0]


def test_h_generator_counts_of_cp2_times_s4_split_degree_four():
    # degree 4 holds the decomposable a^2 beside the indecomposable b
    model = build(Recipe("product", (Recipe("truncated_poly", (2, 2)), Recipe("even_sphere", (2,)))))
    counts = h_algebra_generator_counts(model, 8)
    assert list(counts) == [0, 0, 1, 0, 1, 0, 0, 0, 0]


def test_h_generator_counts_product():
    counts = h_algebra_generator_counts(s3s3_model(), 8)
    assert list(counts) == [0, 0, 0, 2, 0, 0, 0, 0, 0]


# name, recipe, nonzero counts at window 24, most Element products
_PRODUCT_COUNTS = [
    ("CP2xCP2", ("product", ["cpn:2", "cpn:2"]), {2: 2}, 41),
    ("S2xS2xS3", ("product", ["even-sphere:1", "even-sphere:1", "odd-sphere:1"]), {2: 2, 3: 1}, 30),
    ("h-space(3,5,7)", ("h-space", ["3", "5", "7"]), {3: 1, 5: 1, 7: 1}, 25),
    ("S3xS3", ("product", ["odd-sphere:1", "odd-sphere:1"]), {3: 2}, 7),
]


@pytest.mark.parametrize("name, recipe, counts, most", _PRODUCT_COUNTS, ids=[c[0] for c in _PRODUCT_COUNTS])
def test_h_generator_counts_multiply_each_pair_of_class_degrees_once(name, recipe, counts, most, monkeypatch):
    # ab = ±ba, so the products with p <= n/2 span every product of degree n:
    # the counts are those of every p in 1..n-1 (64, 49, 44 and 9 products)
    model = build(recipe_from_args(*recipe))
    products = 0
    multiply = Element.__mul__

    def counted(self, other):
        nonlocal products
        products += isinstance(other, Element)
        return multiply(self, other)

    monkeypatch.setattr(Element, "__mul__", counted)
    assert h_algebra_generator_counts(model, 24) == tuple(counts.get(n, 0) for n in range(25))
    assert products <= most
