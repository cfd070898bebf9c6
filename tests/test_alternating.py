"""The orbit fill of alternating tensors and the two antisymmetry scans.

``core._alternating`` writes each orbit of an increasing key directly, and
``_pair_violations`` / ``_jac_violations`` compare leaves without building
their negations.  The permutation-table fill and the scans they replaced
are kept here as oracles: every tensor must come out equal, and every scan
must name the same pairs and triples in the same order, also on tensors
with one leaf broken.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from lie2alg.core import (TwoTermAlgebra, _ZERO_SCALED, _alternating, _jac_violations,
                          _pair_violations, perm_sign, structure_violations)
from lie2alg.linalg import _scale

F = Fraction


def neg(v):
    return tuple([(t, -x) for t, x in v[0]]), v[1]


def reference_alternating(n, slots, values):
    """Every signed permutation of every key in a table, then a lookup of
    each of the n**slots cells in lexicographic order."""
    signs = [(order, perm_sign(order)) for order in permutations(range(slots))]
    leaves = {}
    for key, v in values.items():
        odd = neg(v)
        for order, sign in signs:
            leaves[tuple(key[o] for o in order)] = v if sign == 1 else odd
    grid = [leaves.get(idx, _ZERO_SCALED) for idx in product(range(n), repeat=slots)]
    for _ in range(slots - 1):
        grid = [tuple(grid[i:i + n]) for i in range(0, len(grid), n or 1)]
    return tuple(grid)


def reference_pair_violations(t):
    return [(i, j) for i in range(len(t)) for j in range(i, len(t)) if t[i][j] != neg(t[j][i])]


def reference_jac_violations(n0, jac):
    bad = [(a, b, c) for a, b, c in product(range(n0), repeat=3)
           if (a == b or b == c or a == c) and jac[a][b][c] != _ZERO_SCALED]
    for i, j, k in combinations(range(n0), 3):
        v, odd = jac[i][j][k], neg(jac[i][j][k])
        for (a, b, c), want in (((i, k, j), odd), ((j, i, k), odd), ((j, k, i), v),
                                ((k, i, j), v), ((k, j, i), odd)):
            if jac[a][b][c] != want:
                bad.append((a, b, c))
    return sorted(bad)


def leaf(rng, length):
    """A scaled vector with negative entries, zeros and denominators up to 4;
    about one in four is the zero vector."""
    if rng.random() < 0.25:
        return _ZERO_SCALED
    return _scale([F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(length)])


def sparse_values(rng, n, slots, length=3):
    """Values on about two thirds of the increasing keys."""
    return {key: leaf(rng, length) for key in combinations(range(n), slots)
            if rng.random() < 0.67}


@pytest.mark.parametrize("slots", range(5))
def test_alternating_matches_the_permutation_table(slots):
    rng = random.Random(300 + slots)
    for n in range(7):
        for _ in range(4):
            values = sparse_values(rng, n, slots)
            assert _alternating(n, slots, values) == reference_alternating(n, slots, values)


def mutants(t, depth):
    """Every copy of the valid alternating tensor ``t`` (leaves ``depth``
    indices deep) with one leaf broken: a nonzero leaf at a repeated index,
    a nonzero leaf with its sign flipped, or over twice its denominator."""
    n = len(t)
    for cell in product(range(n), repeat=depth):
        v = at(t, cell)
        if len(set(cell)) < depth:
            broken = [("repeated", (((0, -2),), 3))]       # -2/3 e_0
        else:
            broken = [("sign", neg(v)), ("denominator", (v[0], 2 * v[1]))] if v[0] else []
        for kind, w in broken:
            u = thawed(t, depth)
            row = at(u, cell[:-1])
            row[cell[-1]] = w
            yield kind, u


def thawed(t, depth):
    return [thawed(s, depth - 1) for s in t] if depth > 1 else list(t)


def at(t, cell):
    for x in cell:
        t = t[x]
    return t


@pytest.mark.parametrize("depth, scan, reference", [
    (2, _pair_violations, reference_pair_violations),
    (3, lambda t: _jac_violations(len(t), t), lambda t: reference_jac_violations(len(t), t)),
], ids=["pair", "jac"])
def test_scan_matches_the_reference_on_broken_tensors(depth, scan, reference):
    rng = random.Random(30 + depth)
    seen = set()
    for n in range(7):
        for _ in range(2):
            t = reference_alternating(n, depth, sparse_values(rng, n, depth))
            assert list(scan(t)) == reference(t) == []
            for kind, u in mutants(t, depth):
                got = list(scan(u))
                assert got and got == reference(u), (kind, n)
                seen.add(kind)
    assert seen == {"repeated", "sign", "denominator"}


def test_structure_violations_match_the_reference_scans():
    rng = random.Random(33)
    n1 = 2
    d = (_ZERO_SCALED,) * n1
    b01 = ((_ZERO_SCALED,) * n1,) * 5
    for n0 in range(1, 6):
        b00 = reference_alternating(n0, 2, sparse_values(rng, n0, 2, n0))
        jac = reference_alternating(n0, 3, sparse_values(rng, n0, 3, n1))
        broken_b00 = [u for _, u in mutants(b00, 2)]
        broken_jac = [u for _, u in mutants(jac, 3)]
        cases = [(b00, jac)] + [(u, jac) for u in rng.sample(broken_b00, min(3, len(broken_b00)))]
        cases += [(b00, u) for u in rng.sample(broken_jac, min(3, len(broken_jac)))]
        for b, j in cases:
            L = TwoTermAlgebra._of(n0, n1, d, b, b01[:n0], j)
            assert structure_violations(L) == (
                *(f"b00 antisymmetry violated at {p}" for p in reference_pair_violations(b)),
                *(f"jac antisymmetry violated at {x}" for x in reference_jac_violations(n0, j)))
