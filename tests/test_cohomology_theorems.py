"""``cohomology_dim`` against the theorems of ``oracles``: each literal
Betti table in the catalog basis, and direct sums in seeded random bases,
where the package cannot see the sum and eliminates in full."""

import random
from fractions import Fraction
from itertools import product

import pytest

from lie2alg import LieAlgebra, Matrix, adjoint_rep, cohomology_dim, trivial_rep
from lie2alg.builders import lie_algebra, random_invertible
from lie2alg.linalg import invert
from oracles import ADJOINT_BETTI, TRIVIAL_BETTI, convolve, predicted_cohomology_dims

COEFFICIENTS = {"trivial1": lambda g: trivial_rep(g, 1), "adjoint": adjoint_rep}
TABLES = {"trivial1": TRIVIAL_BETTI, "adjoint": ADJOINT_BETTI}
SUMS = ("so3+nonabelian2", "heisenberg3+abelian2", "sl2+abelian1", "heisenberg3+nonabelian2",
        "so3+sl2")


def dims(rep) -> tuple[int, ...]:
    return tuple(cohomology_dim(n, rep) for n in range(rep.g.dim + 1))


def transported_direct_sum(names, seed: int) -> tuple[LieAlgebra, Matrix]:
    """The direct sum of the catalog algebras ``names`` in the basis
    f_i = sum_k p[k][i] e_k, for a seeded random invertible p with entries
    in -1..1, and p: [f_i, f_j] is the bracket of those sums, read in the f
    basis."""
    parts = [lie_algebra(name) for name in names]
    n = sum(part.dim for part in parts)
    sc, off = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)], 0
    for part in parts:
        for i, j, t in product(range(part.dim), repeat=3):
            sc[off + i][off + j][off + t] = part.sc[i][j][t]
        off += part.dim
    p = random_invertible(random.Random(seed), n, 1)
    q = invert(p)
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j in product(range(n), repeat=2):
        bracket = [sum(p[a, i] * p[b, j] * sc[a][b][c] for a in range(n) for b in range(n))
                   for c in range(n)]
        out[i][j] = [sum(q[t, c] * bracket[c] for c in range(n)) for t in range(n)]
    return LieAlgebra(n, out), p


def test_convolution_of_graded_dimensions():
    assert convolve((1, 1), (1, 2, 1)) == (1, 3, 3, 1)
    assert predicted_cohomology_dims(["abelian1", "abelian2"], "trivial1") == (1, 3, 3, 1)
    # ad(a1 + a2) = ad(a1) (x) C + C (x) ad(a2): (1,1)*(1,2,1) + (1,1)*(2,4,2)
    assert predicted_cohomology_dims(["abelian1", "abelian2"], "adjoint") == (3, 9, 9, 3)
    with pytest.raises(ValueError, match="no prediction"):
        predicted_cohomology_dims(["so3"], "trivial2")


@pytest.mark.parametrize("coefficients", sorted(TABLES))
@pytest.mark.parametrize("name", sorted(TRIVIAL_BETTI))
def test_betti_table_in_the_catalog_basis(name, coefficients):
    g = lie_algebra(name)
    assert len(TABLES[coefficients][name]) == g.dim + 1
    assert dims(COEFFICIENTS[coefficients](g)) == TABLES[coefficients][name]


@pytest.mark.parametrize("coefficients", sorted(TABLES))
@pytest.mark.parametrize("seed, names", enumerate(SUMS))
def test_direct_sum_in_a_random_basis_has_the_predicted_cohomology(seed, names, coefficients):
    g, p = transported_direct_sum(names.split("+"), seed)
    # p is no signed permutation: some column has two nonzero entries
    assert sum(x != 0 for x in p.entries) > g.dim
    predicted = predicted_cohomology_dims(names.split("+"), coefficients)
    assert dims(COEFFICIENTS[coefficients](g)) == predicted, names
