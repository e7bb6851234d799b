"""Exact-arithmetic Sullivan models over the rationals.

Free graded-commutative algebras with differentials, their cohomology in a
degree window, free-loop-space models, the relative model of the
multiplication, Koszul models, Poincare series, and witness-cocycle
families for unbounded loop-space Betti numbers.

Import names from the submodules (`sullivan.algebra`, `sullivan.calculus`,
`sullivan.homology`, `sullivan.models`, `sullivan.series`, ...); importing
the package itself loads none of them.
"""

__version__ = "0.1.0"
