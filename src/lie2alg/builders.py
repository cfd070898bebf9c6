"""Constructors: worked examples, the standard-shape algebra, a small catalog
of Lie algebras and representations, and a seeded random-instance generator.

Quaternions are implemented here as a 4-dimensional rational algebra with the
usual multiplication table (i^2 = j^2 = k^2 = ijk = -1); they are only used
to build the two quaternionic examples.

Everything here is finite-dimensional.  Smooth path/loop algebra variants of
the string construction are infinite-dimensional and out of scope; the
skeletal builder covers the finite-dimensional side.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .linalg import Matrix, ZERO, _invertible, _reduce, block_diag, rat, vec_zero
from .core import (TwoTermAlgebra, _ZERO_SCALED, _alternating, _scale, _scale_tensor, verify,
                   zero_tensor)
from .morphisms import Morphism
from .cohomology import (
    Cochain,
    LieAlgebra,
    Quadruple,
    Representation,
    cocycle_basis,
    vec_to_cochain,
)

# ---------------------------------------------------------------------------
# quaternions
# ---------------------------------------------------------------------------

Quaternion = tuple[Fraction, Fraction, Fraction, Fraction]


def quaternion(a=0, b=0, c=0, d=0) -> Quaternion:
    return (rat(a), rat(b), rat(c), rat(d))


def qmul(p: Quaternion, q: Quaternion) -> Quaternion:
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def qsub(p: Quaternion, q: Quaternion) -> Quaternion:
    return tuple(x - y for x, y in zip(p, q))


def qre(p: Quaternion) -> Fraction:
    return p[0]


def qim(p: Quaternion) -> Quaternion:
    return (ZERO, p[1], p[2], p[3])


_QUAT_TERM = re.compile(r"([+-]?)([0-9]+(?:/[0-9]+)?)?([ijk]?)")


def parse_quaternion(text: str) -> Quaternion:
    """Parse 'a+bi+cj+dk' with rational coefficients, e.g. '1+2i+3j+5k',
    '1/2-3k', 'i', '0'."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty quaternion literal")
    coeffs = {"": ZERO, "i": ZERO, "j": ZERO, "k": ZERO}
    pos = 0
    while pos < len(s):
        m = _QUAT_TERM.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"invalid quaternion literal {text!r} at position {pos}")
        sign, number, unit = m.groups()
        if number is None and not unit:
            raise ValueError(f"invalid quaternion literal {text!r} at position {pos}")
        try:
            value = Fraction(number or 1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in quaternion literal {text!r}") from None
        if sign == "-":
            value = -value
        coeffs[unit] += value
        pos = m.end()
    return (coeffs[""], coeffs["i"], coeffs["j"], coeffs["k"])


# ---------------------------------------------------------------------------
# Lie algebra and representation catalog
# ---------------------------------------------------------------------------


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(n, zero_tensor((n, n, n)))


def _from_brackets(n: int, brackets) -> LieAlgebra:
    """The n-dimensional Lie algebra whose nonzero brackets are [e_i, e_j] =
    sum of c e_k over the (i, j, k, c) in ``brackets``, each with i < j;
    antisymmetry gives [e_j, e_i]."""
    sc = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, c in brackets:
        sc[i][j][k] += c
        sc[j][i][k] -= c
    return LieAlgebra(n, sc)


def nonabelian2() -> LieAlgebra:
    """The unique nonabelian 2-dimensional algebra: [e0, e1] = e1."""
    return _from_brackets(2, [(0, 1, 1, 1)])


def heisenberg3() -> LieAlgebra:
    """[e0, e1] = e2, e2 central."""
    return _from_brackets(3, [(0, 1, 2, 1)])


def so3() -> LieAlgebra:
    """[e0, e1] = e2 cyclically."""
    return _from_brackets(3, [(0, 1, 2, 1), (1, 2, 0, 1), (0, 2, 1, -1)])


def sl2() -> LieAlgebra:
    """Basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return _from_brackets(3, [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)])


def trivial_rep(g: LieAlgebra, n: int = 1) -> Representation:
    return Representation(g, n, tuple(Matrix.zero(n, n) for _ in range(g.dim)))


def adjoint_rep(g: LieAlgebra) -> Representation:
    return Representation(g, g.dim, tuple(g.ad(i) for i in range(g.dim)))


def direct_sum_rep(a: Representation, b: Representation) -> Representation:
    if a.g != b.g:
        raise ValueError("summands must represent the same Lie algebra")
    return Representation(a.g, a.dimV + b.dimV, tuple(map(block_diag, a.rho, b.rho)))


_FIXED_ALGEBRAS = {
    "nonabelian2": nonabelian2,
    "heisenberg3": heisenberg3,
    "so3": so3,
    "sl2": sl2,
}


def lie_algebra(name: str) -> LieAlgebra:
    """Catalog lookup: 'abelianN' (N >= 0 without leading zeros),
    'nonabelian2', 'heisenberg3', 'so3', 'sl2'."""
    if name in _FIXED_ALGEBRAS:
        return _FIXED_ALGEBRAS[name]()
    m = re.fullmatch(r"abelian(0|[1-9][0-9]*)", name)
    if m:
        return abelian(int(m.group(1)))
    raise ValueError(f"unknown Lie algebra {name!r}")


def lie_algebra_names(max_dim: int = 4) -> tuple[str, ...]:
    names = [f"abelian{n}" for n in range(1, max_dim + 1)]
    names += [n for n, build in _FIXED_ALGEBRAS.items() if build().dim <= max_dim]
    return tuple(names)


def representation(g: LieAlgebra, name: str) -> Representation:
    """Catalog lookup: 'trivial', 'trivialN' (N without leading zeros),
    'adjoint', and '+'-joined direct sums such as 'adjoint+trivial1'."""
    if "+" in name:
        parts = name.split("+")
        rep = representation(g, parts[0])
        for p in parts[1:]:
            rep = direct_sum_rep(rep, representation(g, p))
        return rep
    if name == "trivial":
        return trivial_rep(g, 1)
    m = re.fullmatch(r"trivial(0|[1-9][0-9]*)", name)
    if m:
        return trivial_rep(g, int(m.group(1)))
    if name == "adjoint":
        return adjoint_rep(g)
    raise ValueError(f"unknown representation {name!r}")


def catalog_pairs(max_dim_g: int = 4, max_dim_v: int = 4):
    """All catalog (Lie algebra, representation) pairs within the bounds."""
    for g_name in lie_algebra_names(max_dim_g):
        g = lie_algebra(g_name)
        rep_names = [f"trivial{n}" for n in range(1, max_dim_v + 1)]
        if g.dim <= max_dim_v:
            rep_names.append("adjoint")
            if g.dim + 1 <= max_dim_v:
                rep_names.append("adjoint+trivial1")
        for rep_name in rep_names:
            yield g_name, g, rep_name, representation(g, rep_name)


# ---------------------------------------------------------------------------
# standard-shape algebras
# ---------------------------------------------------------------------------


def normal_form_algebra(q: Quadruple) -> TwoTermAlgebra:
    """Assemble the 2-term algebra of a quadruple.

    Degree 0 is g followed by U, degree 1 is V followed by U.  The
    differential embeds the degree-1 copy of U as the degree-0 copy, the
    bracket restricts to g and acts on V through the representation, and the
    Jacobiator is the cocycle on g-arguments.  The structure is assembled on
    the scaled-integer form, which the result stores; the result is
    re-verified before being returned.
    """
    return _verified(_standard_shape(q))


def _standard_shape(q: Quadruple) -> TwoTermAlgebra:
    """The algebra ``normal_form_algebra`` returns, not yet verified, marked
    by ``_built_from`` as built from ``q``."""
    gdim, u, v = q.g.dim, q.dim_u, q.rep.dimV
    n0, n1 = gdim + u, v + u

    zero = _ZERO_SCALED
    d = tuple((((gdim + j - v, 1),), 1) if j >= v else zero for j in range(n1))
    b00 = _alternating(n0, 2, {(i, j): q.g._scaled[i][j]
                               for i, j in combinations(range(gdim), 2)})
    b01 = tuple(tuple(q.rep.rho[i]._columns[jv] if i < gdim and jv < v else zero
                      for jv in range(n1)) for i in range(n0))
    jac = _alternating(n0, 3, {key: _scale(q.jtilde.values[key])
                               for key in combinations(range(gdim), 3)})
    return _built_from(q, TwoTermAlgebra._of(n0, n1, d, b00, b01, jac))


def _built_from(q: Quadruple, shape: TwoTermAlgebra) -> TwoTermAlgebra:
    """``shape``, the standard shape of ``q``, keeping ``q`` (checked when it
    was built) under "quadruple" and "built from": its quadruple, and the
    mark that it is its own normal form, so that ``classify`` neither
    decomposes nor rebuilds it.  ``q`` does not refer back to the shape."""
    shape._kept("quadruple", lambda: q)
    shape._kept("built from", lambda: q)
    return shape


def _verified(L: TwoTermAlgebra) -> TwoTermAlgebra:
    """L, once ``verify`` passes on it (the report is kept on L)."""
    report = verify(L)
    if not report.passed:
        raise RuntimeError(f"assembled algebra failed verification: {report.lines()}")
    return L


def killing_form(g: LieAlgebra) -> Matrix:
    """K(x, y) = trace(ad x · ad y) on basis pairs: K(e_i, e_j) is the sum
    over s, t of sc[i][s][t] * sc[j][t][s], summed on integers over den**2,
    each stored constant's numerator over den, the lcm of their denominators."""
    n = g.dim
    den = math.lcm(*[d for plane in g._scaled for _, d in plane])
    sc = [[{t: x * (den // d) for t, x in items} for items, d in plane] for plane in g._scaled]
    return Matrix._of([_reduce(([sum([x * sc[j][t].get(s, 0) for s in range(n)
                                      for t, x in sc[i][s].items()]) for j in range(n)], den * den))
                       for i in range(n)], n)


def cartan_cocycle(g: LieAlgebra, k=1) -> Cochain:
    """The 3-cocycle k * <x, [y, z]> built from the Killing form."""
    kf = killing_form(g)
    scale = rat(k)
    values = {}
    for (a, b, c) in combinations(range(g.dim), 3):
        values[(a, b, c)] = (scale * kf.apply(g.sc[b][c])[a],)
    return Cochain(3, g, 1, values)


def skeletal_string(g: LieAlgebra, k) -> TwoTermAlgebra:
    """Skeletal algebra on g + a 1-dimensional degree-1 line: zero
    differential, bracket from g, trivial action, Jacobiator k * <x,[y,z]>."""
    q = Quadruple(g, 0, trivial_rep(g, 1), cartan_cocycle(g, k))
    return normal_form_algebra(q)


# ---------------------------------------------------------------------------
# the quaternionic examples
# ---------------------------------------------------------------------------


def quaternion_example(v) -> TwoTermAlgebra:
    """The 4+4-dimensional algebra on two copies of the quaternions.

    Both degrees carry the basis (1, i, j, k).  The differential takes the
    real part, brackets multiply imaginary parts and keep the imaginary
    part of the product, and the Jacobiator sends (i, j, k) to Im(v).
    """
    if isinstance(v, str):
        v = parse_quaternion(v)
    v = quaternion(*v)

    units = [quaternion(1, 0, 0, 0), quaternion(0, 1, 0, 0),
             quaternion(0, 0, 1, 0), quaternion(0, 0, 0, 1)]

    d = ((((0, 1),), 1),) + (_ZERO_SCALED,) * 3   # the columns of the real part

    table = _scale_tensor([[qim(qmul(qim(units[p]), qim(units[q]))) for q in range(4)]
                           for p in range(4)], 2)

    jac = _alternating(4, 3, {(1, 2, 3): _scale(qim(v))})
    return TwoTermAlgebra._of(4, 4, d, table, table, jac)


def example27_automorphism(v) -> Morphism:
    """The cyclic automorphism of the quaternionic example.

    The linear part rotates i -> j -> k -> i in both degrees and fixes 1;
    the correction on imaginary wedge pairs is Re(v (a - b)) times the third
    imaginary unit.
    """
    if isinstance(v, str):
        v = parse_quaternion(v)
    v = quaternion(*v)
    L = quaternion_example(v)

    cols = {0: 0, 1: 2, 2: 3, 3: 1}        # image index per source basis index
    phi = tuple((((cols[j], 1),), 1) for j in range(4))   # the columns of phi

    qi = quaternion(0, 1, 0, 0)
    qj = quaternion(0, 0, 1, 0)
    qk = quaternion(0, 0, 0, 1)
    c_ij = qre(qmul(v, qsub(qi, qj)))
    c_jk = qre(qmul(v, qsub(qj, qk)))
    c_ki = qre(qmul(v, qsub(qk, qi)))

    Phi = _alternating(4, 2, {
        (1, 2): _scale((ZERO, ZERO, ZERO, c_ij)),    # Phi(i ^ j) = Re(v(i-j)) k
        (2, 3): _scale((ZERO, c_jk, ZERO, ZERO)),    # Phi(j ^ k) = Re(v(j-k)) i
        (1, 3): _scale((ZERO, ZERO, -c_ki, ZERO)),   # Phi(i ^ k) = -Re(v(k-i)) j
    })

    return Morphism._of(L, L, (phi, phi, Phi))


# ---------------------------------------------------------------------------
# seeded random instances
# ---------------------------------------------------------------------------


class RandomProfile(NamedTuple):
    """Catalog selection and dimension bounds for the random generator."""

    algebras: tuple[str, ...] = (
        "abelian1", "abelian2", "nonabelian2", "heisenberg3", "so3", "sl2",
    )
    representations: tuple[str, ...] = ("trivial1", "trivial2", "adjoint")
    max_dim_u: int = 2
    entry_bound: int = 2


DEFAULT_PROFILE = RandomProfile()
ZERO_PROFILE = RandomProfile(algebras=("abelian0",), representations=("trivial0",), max_dim_u=0)


def random_invertible(rng: random.Random, n: int, bound: int) -> Matrix:
    while True:
        m = Matrix.from_rows(
            [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)],
            cols=n,
        )
        if _invertible(m):
            return m


def random_cocycle(rng: random.Random, rep: Representation, bound: int) -> Cochain:
    basis = cocycle_basis(3, rep)
    total = vec_zero(math.comb(rep.g.dim, 3) * rep.dimV)
    for b in basis:
        c = rng.randint(-bound, bound)
        if c:
            total = tuple(x + c * y for x, y in zip(total, b))
    return vec_to_cochain(3, rep.g, rep.dimV, total)


def random_antisymmetric_correction(rng: random.Random, n0: int, n1: int, bound: int):
    phi = [[list(vec_zero(n1)) for _ in range(n0)] for _ in range(n0)]
    for i in range(n0):
        for j in range(i + 1, n0):
            value = [Fraction(rng.randint(-bound, bound)) for _ in range(n1)]
            phi[i][j] = value
            phi[j][i] = [-x for x in value]
    return phi


def random_algebra(seed: int, profile: RandomProfile | None = None) -> TwoTermAlgebra:
    """Deterministic random instance: pick catalog data and a random cocycle,
    assemble the standard shape, then push it through a random invertible
    graded map with a random antisymmetric correction.

    The output is verified by construction (the transport step re-verifies).
    """
    profile = profile or DEFAULT_PROFILE
    if profile.max_dim_u < 0:
        raise ValueError(f"max_dim_u must be nonnegative, got {profile.max_dim_u}")
    for field in ("algebras", "representations"):
        if not (names := getattr(profile, field)):
            raise ValueError(f"{field} must name at least one catalog entry, got {names!r}")
    rng = random.Random(seed)
    g = lie_algebra(rng.choice(profile.algebras))
    rep = representation(g, rng.choice(profile.representations))
    dim_u = rng.randint(0, profile.max_dim_u)
    jt = random_cocycle(rng, rep, profile.entry_bound)
    q = Quadruple(g, dim_u, rep, jt)
    nf = normal_form_algebra(q)

    from .classify import transport

    phi0 = random_invertible(rng, nf.n0, profile.entry_bound)
    phi1 = random_invertible(rng, nf.n1, profile.entry_bound)
    correction = random_antisymmetric_correction(rng, nf.n0, nf.n1, profile.entry_bound)
    algebra, _ = transport(nf, phi0, phi1, correction)
    return algebra
