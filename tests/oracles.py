"""Reference answers for the tests, stated without the package's algorithms.

pytest does not collect this module; test modules import from it.

Cohomology of direct sums of catalog Lie algebras, predicted from theorems
rather than computed by elimination.  Cohomology is an isomorphism
invariant, so the prediction holds in any basis of the sum.

- Kunneth (Hochschild and Serre, Ann. Math. 57, 1953): H(g1 + g2, V1 (x) V2)
  = H(g1, V1) (x) H(g2, V2).  With trivial coefficients the Betti numbers of
  a direct sum are the convolution of those of its parts.
- The adjoint module of g1 + ... + gk is the sum over i of ad(g_i) tensored
  with the trivial modules of the other parts, so dim H^n(g, ad) is the sum
  over i of H(g_i, ad) convolved with the Betti numbers of every other part.
"""

from functools import reduce

# dim H^n(g, C) for n = 0..dim g, C the one-dimensional trivial module
TRIVIAL_BETTI = {
    "abelian1": (1, 1),
    "abelian2": (1, 2, 1),
    "nonabelian2": (1, 1, 0),
    "heisenberg3": (1, 2, 2, 1),
    "so3": (1, 0, 0, 1),
    "sl2": (1, 0, 0, 1),
}

# dim H^n(g, ad) for n = 0..dim g; Whitehead's lemmas and more: a simple g
# has no cohomology with nontrivial irreducible coefficients
ADJOINT_BETTI = {
    "abelian1": (1, 1),
    "abelian2": (2, 4, 2),
    "nonabelian2": (0, 0, 0),
    "heisenberg3": (1, 4, 5, 2),
    "so3": (0, 0, 0, 0),
    "sl2": (0, 0, 0, 0),
}


def convolve(a, b) -> tuple[int, ...]:
    """The graded dimensions of the tensor product of graded spaces of
    dimensions ``a`` and ``b``."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def predicted_cohomology_dims(names, coefficients: str) -> tuple[int, ...]:
    """dim H^n(g, V) for n = 0..dim g, where g is the direct sum of the
    catalog algebras ``names`` and V is "trivial1" or "adjoint"."""
    if coefficients == "trivial1":
        return reduce(convolve, [TRIVIAL_BETTI[name] for name in names])
    if coefficients != "adjoint":
        raise ValueError(f"no prediction for {coefficients!r} coefficients")
    terms = [reduce(convolve, [TRIVIAL_BETTI[other] for j, other in enumerate(names) if j != i],
                    ADJOINT_BETTI[name])
             for i, name in enumerate(names)]
    return tuple(map(sum, zip(*terms)))
