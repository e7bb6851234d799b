"""Oracles that share no elimination code with `sullivan.linalg`.

Ranks come from `helpers.rank_mod_p`, a sparse elimination modulo the prime
2^61 - 1 written in the tests.  The loop windows are those of the bench's
golden jobs (S^2 x S^3 and S^3 x S^3) and the loop of the survey's CP^2.
Two more checks rest on the topology of free loop spaces rather than on any
rank: Kunneth, L(X x Y) = LX x LY, and the weight grading of the loop
differential by the number of suspended letters.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sullivan import linalg
from sullivan.calculus import loop_model, suspended_name
from sullivan.homology import assemble_window, betti, betti_of_window
from sullivan.modelfile import parse
from sullivan.models import build, product

from helpers import cauchy_product, cpn, even_sphere, odd_sphere, rank_mod_p
from test_golden import WORKLOADS

LOOP_WINDOWS = [("s2s3", 14), ("s3s3", 24), ("cp2", 24)]


def _loop_window(name, max_degree):
    base = parse(WORKLOADS.MODELS[name])
    return base, assemble_window(loop_model(base), max_degree)


def _mod_p_betti(window, ranks):
    """b_n = dim n - rank d^n - rank d^(n-1) from the given ranks of d^0..d^N."""
    return [window.dim(n) - ranks[n] - (ranks[n - 1] if n else 0)
            for n in range(window.max_degree + 1)]


# sparse integer matrices as lists of sparse columns, mostly 0 and +-1 entries
integer_columns = st.integers(1, 10).flatmap(
    lambda nrows: st.lists(
        st.dictionaries(st.integers(0, nrows - 1),
                        st.sampled_from((1, -1, 1, -1, 2, -3, 5)).map(Fraction), max_size=4),
        max_size=10,
    )
)


@settings(max_examples=120, deadline=None)
@given(integer_columns)
def test_rank_mod_p_matches_echelon_rank_on_random_sparse_integer_matrices(columns):
    assert rank_mod_p(columns) == linalg.Echelon(columns).rank == linalg.rank(columns)


def test_rank_mod_p_sees_a_rank_that_a_small_prime_would_miss():
    # (2, 0) and (0, 3) span Q^2, but have rank 1 modulo 2 and modulo 3
    assert rank_mod_p([{0: Fraction(2)}, {1: Fraction(3)}]) == 2
    assert rank_mod_p([{0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: Fraction(1), 1: Fraction(1)}]) == 2
    assert rank_mod_p([{}, {0: Fraction(4), 1: Fraction(6)}, {0: Fraction(-2), 1: Fraction(-3)}]) == 1


@pytest.mark.parametrize("name, max_degree", LOOP_WINDOWS, ids=[n for n, _ in LOOP_WINDOWS])
def test_loop_window_ranks_and_betti_match_rank_mod_p(name, max_degree):
    _, window = _loop_window(name, max_degree)
    ranks = [rank_mod_p(window.columns(n)) for n in range(max_degree + 1)]
    for n in range(max_degree + 1):
        assert linalg.rank(window.columns(n)) == ranks[n], (name, n)
    # the one pass reads rank d^n from its free columns and rank d^(n-1) from its boundaries
    for n, cocycles in window.cocycles():
        assert window.dim(n) - len(cocycles.free) == ranks[n], (name, n)
        assert cocycles.boundaries.rank == (ranks[n - 1] if n else 0), (name, n)
    assert list(betti_of_window(window).betti) == _mod_p_betti(window, ranks)


def _weights(window, base):
    """word -> its number of suspended letters, the loop weight."""
    suspended = {suspended_name(g.name) for g in base.algebra.generators}
    letters = [g.name in suspended for g in window.model.algebra.generators]
    return lambda word: sum(e for i, e in word if letters[i])


@pytest.mark.parametrize("name, max_degree", LOOP_WINDOWS, ids=[n for n, _ in LOOP_WINDOWS])
def test_loop_differential_preserves_weight_and_weights_split_betti(name, max_degree):
    base, window = _loop_window(name, max_degree)
    weight = _weights(window, base)
    for n in range(max_degree + 1):
        source, target = window.bases[n], window.bases[n + 1]
        for c, column in enumerate(window.columns(n)):
            assert {weight(target[r]) for r in column} <= {weight(source[c])}, (name, n, c)
    # rank d^n and dim n of each weight block, and the Betti numbers they give
    dims = [Counter(map(weight, window.bases[n])) for n in range(max_degree + 1)]
    ranks = []
    for n in range(max_degree + 1):
        blocks: dict[int, list] = {}
        for c, column in enumerate(window.columns(n)):
            blocks.setdefault(weight(window.bases[n][c]), []).append(column)
        ranks.append(Counter({w: rank_mod_p(columns) for w, columns in blocks.items()}))
    per_weight = [{w: dims[n][w] - ranks[n][w] - (ranks[n - 1][w] if n else 0) for w in dims[n]}
                  for n in range(max_degree + 1)]
    report = betti_of_window(window)
    assert [sum(b.values()) for b in per_weight] == list(report.betti)
    # the weight-0 subcomplex is the base model itself
    assert [b.get(0, 0) for b in per_weight] == list(betti(base, max_degree).betti)


def _loop_series(recipe, max_degree):
    return betti(loop_model(build(recipe)), max_degree).betti


def test_loop_betti_series_of_a_product_is_the_product_of_the_factors_series():
    s2, s3, cp2 = (_loop_series(r, 24) for r in (even_sphere(1), odd_sphere(1), cpn(2)))
    assert cauchy_product(s2, s3) == _loop_series(product(even_sphere(1), odd_sphere(1)), 24)
    assert cauchy_product(cp2, cp2) == _loop_series(product(cpn(2), cpn(2)), 24)
