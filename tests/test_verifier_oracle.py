"""Reference tests for the scaled-integer verifiers.

``core.verify`` and ``morphisms.verify_morphism`` check their equations on
integer numerators with one denominator per vector.  This module keeps the
equation loops as plain `Fraction` arithmetic (a naive contraction over
index tuples, ``Matrix.apply`` and the vector helpers, one reduced entry
at a time) as an independent oracle, and asserts that both verifiers
return the same `VerificationReport` -- the same structure errors, failing
tuples and discrepancies, and the same ``lines()`` -- on seeded random
algebras and morphisms, on single-entry perturbations with large prime,
shared-factor and mixed denominators, on antisymmetry violations, on
zero-dimensional degrees, and on an algebra whose entries have distinct
400-digit denominators.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from lie2alg import Matrix, Morphism, TwoTermAlgebra, random_algebra, transport, verify
from lie2alg.builders import random_antisymmetric_correction, random_invertible
from lie2alg.core import (
    ALGEBRA_EQUATIONS,
    EQ_COHERENCE,
    EQ_D_BRACKET,
    EQ_D_SYMMETRY,
    EQ_JACOBI_DEFECT,
    EQ_JACOBI_DEFECT_DEG1,
    EquationFailure,
    VerificationReport,
    perm_sign,
    shuffles,
)
from lie2alg.linalg import basis_vec, is_zero_vec, vec_add, vec_sub, vec_zero
from lie2alg.morphisms import (
    EQ_BRACKET_DEFECT,
    EQ_CHAIN_MAP,
    EQ_JACOBIATOR_COMPAT,
    EQ_MIXED_DEFECT,
    MORPHISM_EQUATIONS,
    verify_morphism,
)
from test_core import brute_force_contract

F = Fraction

PRIMES = (999_953, 999_959, 999_961, 999_979, 999_983, 1_000_003, 1_000_033, 1_000_037)
SHARED = (2, 3, 4, 6, 8, 9, 10, 12, 15, 18, 30, 36, 60)
DENOMINATORS = {"primes": PRIMES, "shared": SHARED, "mixed": PRIMES + SHARED}


# ---------------------------------------------------------------------------
# the oracle: the equation loops on Fraction entries
# ---------------------------------------------------------------------------


def contract(tensor, *vectors, n):
    """The oracle's contraction: a naive `Fraction` sum over every index tuple."""
    return brute_force_contract(tensor, vectors, n)


def jacobi_defect(b, i, j, k):
    """[e_i,[e_j,e_k]] - [[e_i,e_j],e_k] - [e_j,[e_i,e_k]] for an antisymmetric
    bracket tensor ``b``."""
    n = len(b)
    # -[[e_i,e_j],e_k] = [e_k,[e_i,e_j]]
    return vec_sub(vec_add(contract(b[i], b[j][k], n=n), contract(b[k], b[i][j], n=n)),
                   contract(b[j], b[i][k], n=n))


def oracle_structure(L):
    errors = []
    for i in range(L.n0):
        for j in range(i, L.n0):
            if not is_zero_vec(vec_add(L.b00[i][j], L.b00[j][i])):
                errors.append(f"b00 antisymmetry violated at ({i}, {j})")
    for i in range(L.n0):
        for j in range(L.n0):
            for k in range(L.n0):
                key = (i, j, k)
                if len(set(key)) < 3:
                    if not is_zero_vec(L.jac[i][j][k]):
                        errors.append(f"jac antisymmetry violated at {key}")
                    continue
                srt = sorted(key)
                sign = perm_sign(tuple(srt.index(x) for x in key))
                if L.jac[i][j][k] != tuple(sign * c for c in L.jac[srt[0]][srt[1]][srt[2]]):
                    errors.append(f"jac antisymmetry violated at {key}")
    return tuple(errors)


def oracle_coherence(L, args):
    n1 = L.n1
    out = vec_zero(n1)
    for perm, sign in shuffles(1, 3).elements:
        a, b, c, d = (args[p] for p in perm)
        term = contract(L.b01[a], L.jac[b][c][d], n=n1)
        out = vec_add(out, term) if sign == 1 else vec_sub(out, term)
    for perm, sign in shuffles(2, 2).elements:
        a, b, c, d = (args[p] for p in perm)
        term = contract(L.jac[c][d], L.b00[a][b], n=n1)
        out = vec_sub(out, term) if sign == 1 else vec_add(out, term)
    return out


def first_failure(equation, checks):
    """The first (args, lhs, rhs) of ``checks`` with lhs != rhs."""
    for args, lhs, rhs in checks:
        if lhs != rhs:
            return EquationFailure(equation, args, vec_sub(lhs, rhs))
    return None


def oracle_verify(L):
    structure = oracle_structure(L)
    if structure:
        return VerificationReport(ALGEBRA_EQUATIONS, structure, ())
    n0, n1, d = L.n0, L.n1, L.d
    dcols = [d.column(j) for j in range(n1)]
    checks = {
        EQ_D_BRACKET: (
            ((i, j), d.apply(L.b01[i][j]), contract(L.b00[i], dcols[j], n=n0))
            for i in range(n0) for j in range(n1)),
        EQ_D_SYMMETRY: (
            ((i, j), contract(L.b01, dcols[i], basis_vec(n1, j), n=n1),
             tuple(-c for c in contract(L.b01, dcols[j], basis_vec(n1, i), n=n1)))
            for i in range(n1) for j in range(n1)),
        EQ_JACOBI_DEFECT: (
            ((i, j, k), d.apply(L.jac[i][j][k]), jacobi_defect(L.b00, i, j, k))
            for (i, j, k) in combinations(range(n0), 3)),
        EQ_JACOBI_DEFECT_DEG1: (
            ((l, j, k), contract(L.jac[j][k], dcols[l], n=n1),
             vec_sub(vec_sub(contract(L.b01[j], L.b01[k][l], n=n1),
                             contract(L.b01[k], L.b01[j][l], n=n1)),
                     contract(L.b01, L.b00[j][k], basis_vec(n1, l), n=n1)))
            for l in range(n1) for (j, k) in combinations(range(n0), 2)),
        EQ_COHERENCE: (
            (quad, oracle_coherence(L, quad), vec_zero(n1))
            for quad in combinations(range(n0), 4)),
    }
    failures = tuple(f for eq in ALGEBRA_EQUATIONS
                     if (f := first_failure(eq, checks[eq])) is not None)
    return VerificationReport(ALGEBRA_EQUATIONS, (), failures)


def oracle_verify_morphism(m):
    src, tgt = m.source, m.target
    structure = tuple(
        f"Phi antisymmetry violated at ({i}, {j})"
        for i in range(src.n0) for j in range(i, src.n0)
        if not is_zero_vec(vec_add(m.Phi[i][j], m.Phi[j][i])))
    if structure:
        return VerificationReport(MORPHISM_EQUATIONS, structure, ())
    u0 = [m.phi0.column(i) for i in range(src.n0)]
    w1 = [m.phi1.column(j) for j in range(src.n1)]
    dcols = [src.d.column(j) for j in range(src.n1)]

    def compat_rhs(tri):
        rhs = vec_zero(tgt.n1)
        for perm, sign in shuffles(1, 2).elements:
            a, b, c = (tri[p] for p in perm)
            term = vec_add(contract(tgt.b01, u0[a], m.Phi[b][c], n=tgt.n1),
                           contract(m.Phi[a], src.b00[b][c], n=tgt.n1))
            rhs = vec_add(rhs, term) if sign == 1 else vec_sub(rhs, term)
        return rhs

    checks = {
        EQ_CHAIN_MAP: (
            ((j,), m.phi0.apply(dcols[j]), tgt.d.apply(w1[j])) for j in range(src.n1)),
        EQ_BRACKET_DEFECT: (
            ((i, j), tgt.d.apply(m.Phi[i][j]),
             vec_sub(m.phi0.apply(src.b00[i][j]), contract(tgt.b00, u0[i], u0[j], n=tgt.n0)))
            for (i, j) in combinations(range(src.n0), 2)),
        EQ_MIXED_DEFECT: (
            ((l, i), contract(m.Phi, dcols[l], basis_vec(src.n0, i), n=tgt.n1),
             vec_sub(contract(tgt.b01, u0[i], w1[l], n=tgt.n1), m.phi1.apply(src.b01[i][l])))
            for l in range(src.n1) for i in range(src.n0)),
        EQ_JACOBIATOR_COMPAT: (
            (tri, vec_sub(m.phi1.apply(src.jac[tri[0]][tri[1]][tri[2]]),
                          contract(tgt.jac, *(u0[t] for t in tri), n=tgt.n1)),
             compat_rhs(tri))
            for tri in combinations(range(src.n0), 3)),
    }
    failures = tuple(f for eq in MORPHISM_EQUATIONS
                     if (f := first_failure(eq, checks[eq])) is not None)
    return VerificationReport(MORPHISM_EQUATIONS, (), failures)


def assert_same_algebra_report(L, lines=True):
    got, want = verify(L), oracle_verify(L)
    assert got == want
    if lines:
        assert got.lines() == want.lines()
    return got


def assert_same_morphism_report(m):
    got, want = verify_morphism(m), oracle_verify_morphism(m)
    assert got == want
    assert got.lines() == want.lines()
    return got


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def entry(rng, dens):
    return F(rng.randint(-10**6, 10**6) or 1, rng.choice(dens) * rng.choice((1, rng.choice(dens))))


def nested(tensor):
    """A mutable nested-list copy of a tuple tensor."""
    return [nested(x) for x in tensor] if isinstance(tensor, tuple) else tensor


def with_parts(L, **parts):
    data = {"d": L.d, "b00": L.b00, "b01": L.b01, "jac": L.jac, **parts}
    return TwoTermAlgebra(L.n0, L.n1, data["d"], data["b00"], data["b01"], data["jac"])


def perturb_d(L, rng, dens):
    rows = nested(L.d.to_rows())
    rows[rng.randrange(L.n0)][rng.randrange(L.n1)] += entry(rng, dens)
    return with_parts(L, d=rows)


def perturb_b00(L, rng, dens, mirrored=True):
    b00 = nested(L.b00)
    i, j = rng.sample(range(L.n0), 2)
    t, x = rng.randrange(L.n0), entry(rng, dens)
    b00[i][j][t] += x
    if mirrored:
        b00[j][i][t] -= x
    return with_parts(L, b00=b00)


def perturb_b01(L, rng, dens):
    b01 = nested(L.b01)
    b01[rng.randrange(L.n0)][rng.randrange(L.n1)][rng.randrange(L.n1)] += entry(rng, dens)
    return with_parts(L, b01=b01)


def perturb_jac(L, rng, dens, mirrored=True):
    jac = nested(L.jac)
    key = rng.sample(range(L.n0), 3)
    t, x = rng.randrange(L.n1), entry(rng, dens)
    for perm in permutations(range(3)) if mirrored else [(0, 1, 2)]:
        a, b, c = (key[p] for p in perm)
        jac[a][b][c][t] += perm_sign(perm) * x
    return with_parts(L, jac=jac)


def antisymmetric_tensor(rng, dens, n, width, slots, entries=None):
    """A random tensor of leaf length ``width``, antisymmetric in its first
    ``slots`` (2 or 3) indices of range n; ``entries`` draws each value."""
    draw = entries or (lambda: entry(rng, dens) if rng.random() < 0.7 else F(0))

    def zeros(k):
        return [F(0)] * width if k == 0 else [zeros(k - 1) for _ in range(n)]

    tensor = zeros(slots)
    for key in combinations(range(n), slots):
        value = [draw() for _ in range(width)]
        for perm in permutations(range(slots)):
            node = tensor
            for p in perm[:-1]:
                node = node[key[p]]
            node[key[perm[-1]]] = [perm_sign(perm) * x for x in value]
    return tensor


def random_structure(rng, dens, n0, n1, entries=None):
    """An algebra with random rational structure maps, antisymmetric where
    storage requires it; almost always far from satisfying the equations."""
    draw = entries or (lambda: entry(rng, dens))
    return TwoTermAlgebra(
        n0, n1,
        [[draw() for _ in range(n1)] for _ in range(n0)],
        antisymmetric_tensor(rng, dens, n0, n0, 2, entries),
        [[[draw() for _ in range(n1)] for _ in range(n1)] for _ in range(n0)],
        antisymmetric_tensor(rng, dens, n0, n1, 3, entries),
    )


def random_transport(L, seed):
    rng = random.Random(seed)
    return transport(L, random_invertible(rng, L.n0, 2), random_invertible(rng, L.n1, 2),
                     random_antisymmetric_correction(rng, L.n0, L.n1, 2))


SEEDS = range(24)
# 5+4, 5+4, 5+3, 4+4, 4+4, 4+3: every equation has tuples to check
LARGE_SEEDS = (5, 12, 19, 3, 9, 15)


# ---------------------------------------------------------------------------
# core.verify
# ---------------------------------------------------------------------------


class TestVerifyAgainstOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_algebras_pass(self, seed):
        assert assert_same_algebra_report(random_algebra(seed)).passed

    @pytest.mark.parametrize("kind", sorted(DENOMINATORS))
    @pytest.mark.parametrize("where", ["d", "b00", "b01", "jac"])
    def test_single_entry_perturbations(self, kind, where):
        rng = random.Random(f"verify-{where}-{kind}")
        perturb = {"d": perturb_d, "b00": perturb_b00, "b01": perturb_b01, "jac": perturb_jac}
        failed = 0
        for seed in LARGE_SEEDS:
            L = random_algebra(seed)
            for _ in range(3):
                report = assert_same_algebra_report(perturb[where](L, rng, DENOMINATORS[kind]))
                assert not report.structure_errors
                failed += not report.passed
        assert failed

    @pytest.mark.parametrize("kind", sorted(DENOMINATORS))
    def test_random_structure_maps(self, kind):
        rng = random.Random(f"verify-random-{kind}")
        for n0, n1 in [(1, 1), (2, 3), (3, 2), (4, 3), (5, 2)]:
            report = assert_same_algebra_report(random_structure(rng, DENOMINATORS[kind], n0, n1))
            assert not report.structure_errors

    @pytest.mark.parametrize("kind", sorted(DENOMINATORS))
    def test_d_symmetry_failures_against_all_pairs(self, kind):
        # verify walks d-bracket-symmetry on the pairs i <= j only, the oracle
        # on all n1 x n1 pairs: perturbing d or b01 must give the same first
        # failure, both off the diagonal and on it
        rng = random.Random(f"d-symmetry-{kind}")
        firsts = set()
        for seed in LARGE_SEEDS:
            L = random_algebra(seed)
            for perturb in (perturb_d, perturb_b01) * 4:
                report = assert_same_algebra_report(perturb(L, rng, DENOMINATORS[kind]))
                if failure := report.failure_for(EQ_D_SYMMETRY):
                    i, j = failure.args
                    firsts.add("i < j" if i < j else "i = j" if i == j else "i > j")
        assert firsts == {"i < j", "i = j"}

    @pytest.mark.parametrize("where", ["b00", "jac"])
    def test_antisymmetry_violations(self, where):
        rng = random.Random(f"antisymmetry-{where}")
        perturb = {"b00": perturb_b00, "jac": perturb_jac}[where]
        for seed in LARGE_SEEDS:
            L = random_algebra(seed)
            report = assert_same_algebra_report(perturb(L, rng, PRIMES, mirrored=False))
            assert report.structure_errors and not report.failures

    def test_diagonal_antisymmetry_violations(self):
        L = random_algebra(5)
        b00, jac = nested(L.b00), nested(L.jac)
        b00[2][2][0] = F(1, 999_953)
        jac[1][3][1][2] = F(-7, 12)
        report = assert_same_algebra_report(with_parts(L, b00=b00, jac=jac))
        assert len(report.structure_errors) == 2

    @pytest.mark.parametrize("n0, n1", [(0, 0), (0, 3), (3, 0), (4, 0), (1, 0), (0, 1)])
    def test_empty_degrees(self, n0, n1):
        rng = random.Random(f"empty-{n0}-{n1}")
        assert assert_same_algebra_report(TwoTermAlgebra.zero(n0, n1)).passed
        for kind in sorted(DENOMINATORS):
            assert_same_algebra_report(random_structure(rng, DENOMINATORS[kind], n0, n1))

    def test_distinct_400_digit_denominators(self):
        # every entry has its own 400-digit denominator, so each leaf's
        # common denominator is a product of five of them; the reports hold
        # numbers far past the int-to-str limit, so lines() is not compared
        rng = random.Random("400-digit")

        def draw():
            return F(rng.randrange(-10**400, 10**400), rng.randrange(10**399, 10**400))

        L = random_structure(rng, None, 5, 5, entries=draw)
        report = assert_same_algebra_report(L, lines=False)
        assert [f.equation for f in report.failures] == list(ALGEBRA_EQUATIONS)


# ---------------------------------------------------------------------------
# morphisms.verify_morphism
# ---------------------------------------------------------------------------


def with_maps(m, source=None, target=None, **maps):
    data = {"phi0": m.phi0, "phi1": m.phi1, "Phi": m.Phi, **maps}
    return Morphism(source or m.source, target or m.target,
                    data["phi0"], data["phi1"], data["Phi"])


def perturb_matrix(m, rng, dens):
    rows = nested(m.to_rows())
    rows[rng.randrange(m.rows)][rng.randrange(m.cols)] += entry(rng, dens)
    return Matrix.from_rows(rows, cols=m.cols)


def perturb_Phi(m, rng, dens, mirrored=True):
    Phi = nested(m.Phi)
    i, j = rng.sample(range(m.source.n0), 2)
    t, x = rng.randrange(m.target.n1), entry(rng, dens)
    Phi[i][j][t] += x
    if mirrored:
        Phi[j][i][t] -= x
    return Phi


class TestVerifyMorphismAgainstOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_transport_morphisms_pass(self, seed):
        L = random_algebra(seed)
        _, mor = random_transport(L, seed)
        assert assert_same_morphism_report(mor).passed

    @pytest.mark.parametrize("kind", sorted(DENOMINATORS))
    @pytest.mark.parametrize("where", ["phi0", "phi1", "Phi", "target"])
    def test_single_entry_perturbations(self, kind, where):
        rng = random.Random(f"morphism-{where}-{kind}")
        dens = DENOMINATORS[kind]
        failed = 0
        for seed in LARGE_SEEDS:
            _, mor = random_transport(random_algebra(seed), seed)
            for _ in range(3):
                if where == "Phi":
                    m = with_maps(mor, Phi=perturb_Phi(mor, rng, dens))
                elif where == "target":
                    perturb = rng.choice([perturb_d, perturb_b00, perturb_b01, perturb_jac])
                    m = with_maps(mor, target=perturb(mor.target, rng, dens))
                else:
                    m = with_maps(mor, **{where: perturb_matrix(getattr(mor, where), rng, dens)})
                report = assert_same_morphism_report(m)
                assert not report.structure_errors
                failed += not report.passed
        assert failed

    def test_non_antisymmetric_Phi(self):
        rng = random.Random("Phi-antisymmetry")
        for seed in LARGE_SEEDS:
            _, mor = random_transport(random_algebra(seed), seed)
            report = assert_same_morphism_report(
                with_maps(mor, Phi=perturb_Phi(mor, rng, PRIMES, mirrored=False)))
            assert report.structure_errors and not report.failures
        Phi = nested(mor.Phi)
        Phi[1][1][0] = F(3, 4)
        assert len(assert_same_morphism_report(with_maps(mor, Phi=Phi)).structure_errors) == 1

    @pytest.mark.parametrize("kind", sorted(DENOMINATORS))
    def test_random_linear_maps_between_random_algebras(self, kind):
        rng = random.Random(f"morphism-random-{kind}")
        dens = DENOMINATORS[kind]
        for (a, b) in [((2, 1), (3, 2)), ((3, 3), (3, 3)), ((4, 2), (2, 4)), ((5, 3), (4, 2))]:
            src = random_structure(rng, dens, *a)
            tgt = random_structure(rng, dens, *b)
            m = Morphism(src, tgt,
                         [[entry(rng, dens) for _ in range(a[0])] for _ in range(b[0])],
                         [[entry(rng, dens) for _ in range(a[1])] for _ in range(b[1])],
                         antisymmetric_tensor(rng, dens, a[0], b[1], 2))
            assert_same_morphism_report(m)

    @pytest.mark.parametrize("a, b", [((0, 0), (0, 0)), ((0, 2), (1, 2)), ((3, 0), (3, 1)),
                                      ((2, 2), (0, 0)), ((1, 3), (3, 0))])
    def test_empty_degrees(self, a, b):
        rng = random.Random(f"morphism-empty-{a}-{b}")
        for kind in sorted(DENOMINATORS):
            dens = DENOMINATORS[kind]
            m = Morphism(random_structure(rng, dens, *a), random_structure(rng, dens, *b),
                         [[entry(rng, dens) for _ in range(a[0])] for _ in range(b[0])],
                         [[entry(rng, dens) for _ in range(a[1])] for _ in range(b[1])],
                         antisymmetric_tensor(rng, dens, a[0], b[1], 2))
            assert_same_morphism_report(m)
