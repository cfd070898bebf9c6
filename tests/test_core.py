import decimal
import math
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from lie2alg import (
    Element,
    TwoTermAlgebra,
    bracket,
    coherence_lhs,
    homology_dims,
    quaternion_example,
    random_algebra,
    shuffles,
    skeletal_string,
    so3,
    structure_violations,
    verify,
)
from lie2alg.core import (
    EQ_JACOBI_DEFECT,
    _digits,
    _int_text,
    _isum,
    _rational_text,
    _reduce,
    _scale,
    _scale_tensor,
    _unscale,
    perm_sign,
    tensor,
    zero_tensor,
)

F = Fraction


def brute_force_shuffles(m, n):
    """Independent oracle: enumerate the symmetric group and filter."""
    out = []
    for perm in permutations(range(m + n)):
        ok = True
        for i in range(m + n - 1):
            if i == m - 1:
                continue
            if perm[i] > perm[i + 1]:
                ok = False
                break
        if ok:
            inv = sum(
                1
                for a in range(len(perm))
                for b in range(a + 1, len(perm))
                if perm[a] > perm[b]
            )
            out.append((perm, -1 if inv % 2 else 1))
    return sorted(out)


class TestShuffles:
    def test_sh_1_2_exact(self):
        got = shuffles(1, 2).elements
        assert got == (((0, 1, 2), 1), ((1, 0, 2), -1), ((2, 0, 1), 1))

    def test_sh_2_2_count(self):
        assert len(shuffles(2, 2).elements) == 6

    def test_against_brute_force(self):
        for m in range(0, 4):
            for n in range(0, 4):
                assert tuple(brute_force_shuffles(m, n)) == shuffles(m, n).elements

    def test_identity_cases(self):
        for n in range(0, 5):
            assert shuffles(0, n).elements == ((tuple(range(n)), 1),)
            assert shuffles(n, 0).elements == ((tuple(range(n)), 1),)

    def test_sizes_are_binomial(self):
        for m in range(0, 4):
            for n in range(0, 4):
                elems = shuffles(m, n).elements
                assert len(elems) == math.comb(m + n, m)
                assert len({p for p, _ in elems}) == len(elems)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            shuffles(5, 4)


class TestVerifyExamples:
    @pytest.mark.parametrize("v", ["0", "1", "i", "1+2i+3j+5k"])
    def test_quaternion_passes(self, v):
        assert verify(quaternion_example(v)).passed

    @pytest.mark.parametrize("dims", [(0, 0), (3, 0), (2, 2), (4, 1)])
    def test_zero_algebra_passes(self, dims):
        assert verify(TwoTermAlgebra.zero(*dims)).passed

    def test_imaginary_output_perturbation_breaks_jacobi(self):
        # adding e_i to [i, j] changes the bracket's Jacobi defect while the
        # Jacobiator stays fixed, so the defect equation must fail at (i,j,k)
        L = quaternion_example("1+2i+3j+5k")
        b00 = [[list(row) for row in plane] for plane in L.b00]
        b00[1][2][1] += 1
        b00[2][1][1] -= 1
        perturbed = TwoTermAlgebra(4, 4, L.d, b00, L.b01, L.jac)
        report = verify(perturbed)
        assert not report.passed
        failure = report.failure_for(EQ_JACOBI_DEFECT)
        assert failure is not None
        assert failure.args == (1, 2, 3)

    def test_central_output_perturbation_still_verifies(self):
        # adding the real unit to [i, j] leaves every defining equation
        # intact: the extra term brackets to zero and never reaches the
        # Jacobiator, so the perturbed algebra is a genuinely new valid one
        L = quaternion_example("1+2i+3j+5k")
        b00 = [[list(row) for row in plane] for plane in L.b00]
        b00[1][2][0] += 1
        b00[2][1][0] -= 1
        perturbed = TwoTermAlgebra(4, 4, L.d, b00, L.b01, L.jac)
        assert verify(perturbed).passed

    def test_non_antisymmetric_reported_before_equations(self):
        L = quaternion_example("0")
        b00 = [[list(row) for row in plane] for plane in L.b00]
        b00[0][0][0] = 1
        broken = TwoTermAlgebra(4, 4, L.d, b00, L.b01, L.jac)
        report = verify(broken)
        assert not report.passed
        assert report.structure_errors
        assert "b00 antisymmetry violated at (0, 0)" in report.structure_errors[0]
        assert report.failures == ()

    def test_structure_violations_jac(self):
        L = TwoTermAlgebra.zero(3, 1)
        jac = [[[list(row) for row in plane] for plane in block] for block in L.jac]
        jac[0][1][2][0] = 1  # no antisymmetric counterparts
        broken = TwoTermAlgebra(3, 1, L.d, L.b00, L.b01, jac)
        assert any("jac antisymmetry" in e for e in structure_violations(broken))

    def test_d_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="d must be 1x1"):
            TwoTermAlgebra(1, 1, [[0], [0]], zero_tensor((1, 1, 1)), zero_tensor((1, 1, 1)),
                           zero_tensor((1, 1, 1, 1)))


class TestElement:
    def test_add_and_sub(self):
        a = Element((1, F(1, 2)), (3,))
        b = Element((F(1, 3), 0), (-3,))
        assert a + b == Element((F(4, 3), F(1, 2)), (0,))
        assert a - b == Element((F(2, 3), F(1, 2)), (6,))
        assert (a - a).is_zero() and not (a + b).is_zero()


class TestBracket:
    def test_quaternion_i_j_gives_k(self):
        L = quaternion_example("0")
        x = Element.basis0(L, 1)
        y = Element.basis0(L, 2)
        out = bracket(L, x, y)
        assert out.deg0 == (F(0), F(0), F(0), F(1))
        assert out.deg1 == (F(0),) * 4

    def test_degree_one_brackets_vanish(self):
        L = quaternion_example("1+2i+3j+5k")
        u = Element.basis1(L, 1)
        v = Element.basis1(L, 3)
        assert bracket(L, u, v).is_zero()

    def test_skeletal_string_mixed_bracket_vanishes(self):
        L = skeletal_string(so3(), 1)
        x = Element.basis0(L, 0)
        v = Element.basis1(L, 0)
        assert bracket(L, x, v).is_zero()

    def test_graded_antisymmetry(self):
        L = quaternion_example("1+2i+3j+5k")
        x = Element.degree0(L, (1, 2, 0, 1))
        v = Element.degree1(L, (0, 1, 1, 2))
        xy = bracket(L, x, v)
        yx = bracket(L, v, x)
        assert xy.deg1 == tuple(-c for c in yx.deg1)

    def test_against_brute_force(self):
        rng = random.Random(23)
        L = random_algebra(4)
        n0, n1 = L.n0, L.n1
        for _ in range(20):
            x = Element(random_tensor(rng, (n0,)), random_tensor(rng, (n1,)))
            y = Element(random_tensor(rng, (n0,)), random_tensor(rng, (n1,)))
            out = bracket(L, x, y)
            assert out.deg0 == brute_force_contract(L.b00, [x.deg0, y.deg0], n0)
            mixed = (brute_force_contract(L.b01, [x.deg0, y.deg1], n1),
                     brute_force_contract(L.b01, [y.deg0, x.deg1], n1))
            assert out.deg1 == tuple(a - b for a, b in zip(*mixed))

    def test_wrong_lengths_rejected(self):
        L = quaternion_example("0")
        x = Element.basis0(L, 1)
        for bad in (Element((1, 0, 0, 0, 5), (0,) * 4), Element((1, 0, 0), (0,) * 4)):
            with pytest.raises(ValueError, match="length 4"):
                bracket(L, bad, x)
        with pytest.raises(ValueError, match="length 4"):
            bracket(L, x, Element((0,) * 4, (1, 2)))


def random_tensor(rng, shape):
    if len(shape) == 1:
        return tuple(
            F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6 else F(0)
            for _ in range(shape[0])
        )
    return tuple(random_tensor(rng, shape[1:]) for _ in range(shape[0]))


def brute_force_contract(tensor, vectors, n):
    """Independent oracle: a `Fraction` sum over every index tuple of nonzero
    coordinates (the other tuples add zero)."""
    out = [F(0)] * n
    for idx in product(*([i for i, x in enumerate(v) if x] for v in vectors)):
        coeff, node = F(1), tensor
        for v, i in zip(vectors, idx):
            coeff *= v[i]
            node = node[i]
        for t in range(n):
            if node[t]:
                out[t] += coeff * node[t]
    return tuple(out)


def isum_contract(tensor, vectors, n):
    """The contraction of ``tensor`` with ``vectors`` as one ``core._isum`` on
    their scaled forms, converted back to `Fraction`s."""
    scaled = _scale_tensor(tensor, len(vectors))
    return _unscale(_reduce(_isum(n, ((1, scaled, [_scale(v) for v in vectors]),))), n)


class TestContract:
    def test_against_brute_force(self):
        rng = random.Random(17)
        for _ in range(300):
            order = rng.randint(2, 4)
            shape = tuple(rng.randint(0, 3) for _ in range(order))
            tensor = random_tensor(rng, shape)
            vectors = [random_tensor(rng, (k,)) for k in shape[:-1]]
            got = isum_contract(tensor, vectors, shape[-1])
            assert got == brute_force_contract(tensor, vectors, shape[-1]), shape
            assert len(got) == shape[-1]

    def test_zero_length_axis_keeps_output_length(self):
        assert isum_contract((), [()], 3) == (F(0),) * 3
        assert isum_contract(((), ()), [(F(1), F(2)), ()], 2) == (F(0),) * 2

    def test_bracket_of_basis_vectors_is_table_lookup(self):
        L = quaternion_example("1+2i+3j+5k")
        e = [tuple(F(int(k == i)) for k in range(L.n0)) for i in range(L.n0)]
        for i in range(L.n0):
            for j in range(L.n0):
                assert isum_contract(L.b00, [e[i], e[j]], L.n0) == L.b00[i][j]


class TestCoherenceSmoke:
    def test_repeated_argument_vanishes(self):
        # on a valid algebra the coherence sum is alternating, so a repeated
        # basis index must collapse to zero
        L = quaternion_example("1+2i+3j+5k")
        for args in ((0, 0, 1, 2), (1, 1, 2, 3), (0, 2, 2, 3), (3, 1, 0, 3)):
            assert all(c == 0 for c in coherence_lhs(L, args))


class TestHomology:
    def test_quaternion(self):
        assert homology_dims(quaternion_example("1")) == (3, 3)

    def test_skeletal_string(self):
        assert homology_dims(skeletal_string(so3(), 1)) == (3, 1)

    def test_zero(self):
        assert homology_dims(TwoTermAlgebra.zero(5, 0)) == (5, 0)


class TestTensor:
    @pytest.mark.parametrize("shape", [(2, 3, 1), (3, 0, 0), (0, 2, 2), (2, 1, 3, 2)])
    def test_builds_fraction_tuples(self, shape):
        data = random_tensor(random.Random(len(shape)), shape)
        t = tensor(as_lists(data), shape)
        assert t == data and type(t) is tuple
        assert zero_tensor(shape) == tensor(zero_lists(shape), shape)

    @pytest.mark.parametrize("shape, depth", [
        ((2, 3, 1), 0), ((2, 3, 1), 1), ((2, 3, 1), 2),
        ((2, 2, 2, 3), 0), ((2, 2, 2, 3), 1), ((2, 2, 2, 3), 2), ((2, 2, 2, 3), 3),
    ])
    def test_shape_mismatch_names_full_shape(self, shape, depth):
        data = zero_lists(shape)
        node = data
        for _ in range(depth):
            node = node[-1]
        node.pop()
        with pytest.raises(ValueError) as info:
            tensor(data, shape)
        assert str(info.value) == f"tensor shape mismatch, expected {shape}"


def zero_lists(shape):
    if len(shape) == 1:
        return [0] * shape[0]
    return [zero_lists(shape[1:]) for _ in range(shape[0])]


def as_lists(t):
    return [as_lists(x) for x in t] if isinstance(t, tuple) else t


class TestPermSign:
    def test_values(self):
        assert perm_sign((0, 1, 2)) == 1
        assert perm_sign((1, 0, 2)) == -1
        assert perm_sign((2, 0, 1)) == 1

    def test_composition_property(self):
        for p in permutations(range(4)):
            inv = sum(
                1 for a in range(4) for b in range(a + 1, 4) if p[a] > p[b]
            )
            assert perm_sign(p) == (-1) ** inv


def chunked_value(text):
    """The integer a decimal string stands for, read 1000 digits at a time
    (each piece below Python's int-from-str digit limit)."""
    digits = text.removeprefix("-")
    assert digits.isdigit() and (digits == "0" or digits[0] != "0")
    total = 0
    for k in range(0, len(digits), 1000):
        piece = digits[k:k + 1000]
        total = total * 10 ** len(piece) + int(piece)
    return -total if text.startswith("-") else total


def split_digits(n):
    """Reference for ``_digits``: split in two near half of the decimal
    digits with ``divmod`` (quadratic, but plainly correct)."""
    if n.bit_length() <= 2000:
        return str(n)
    k = n.bit_length() * 3 // 20
    high, low = divmod(abs(n), 10 ** k)
    return "-" * (n < 0) + split_digits(high) + split_digits(low).zfill(k)


class TestDigits:
    def test_matches_reference_splitter(self):
        rng = random.Random(21)
        values = [2 ** 2000 - 1, 2 ** 2000, 2 ** 2000 + 1, 2 ** 2001 - 1]
        for digits in (602, 603, 604, 1000, 4300, 4301, 20_000, 60_000):
            values += [10 ** digits, 10 ** digits - 1, 10 ** digits + 1,
                       rng.randrange(10 ** (digits - 1), 10 ** digits)]
        for bits in (1999, 2000, 2001, 2047, 2048, 2049, 4001, 4096, 65_537, 199_999):
            values += [rng.getrandbits(bits) | 1 << (bits - 1), 1 << bits]
        before = decimal.getcontext().copy()
        for n in values:
            for signed in (n, -n):
                text = _digits(signed)
                assert text == split_digits(signed)
                assert _int_text(text) == signed
        after = decimal.getcontext()
        assert (after.prec, after.Emax, after.flags, after.traps) == (
            before.prec, before.Emax, before.flags, before.traps)

    def test_short_and_zero(self):
        for n in (0, 1, -1, 9, -10, 2 ** 64, -(2 ** 1999)):
            assert _digits(n) == str(n)


class TestRationalText:
    def test_short_values_match_str(self):
        for x in (F(0), F(7), F(-3, 4), F(10**600 + 1, 3), F(-(2**1999), 2**1999 - 1)):
            assert _rational_text(x) == str(x)

    def test_long_values_past_digit_limit(self):
        # numbers of up to 18,000 digits: str() of these raises by default
        rng = random.Random(11)
        for bits in (2001, 2400, 14_300, 30_000, 60_000):
            for n in (rng.getrandbits(bits) | 1 << (bits - 1), 10 ** (bits * 3 // 10),
                      10 ** (bits * 3 // 10) - 1):
                for x in (F(n), F(-n, 3), F(7, n | 1), F(-n, n + 2 if n % 2 else n + 1)):
                    text = _rational_text(x)
                    num, _, den = text.partition("/")
                    assert chunked_value(num) == x.numerator
                    assert chunked_value(den or "1") == x.denominator
                    assert _int_text(num) == x.numerator
                    assert _int_text(den or "1") == x.denominator

    def test_int_text_reads_signed_strings_of_any_length(self):
        rng = random.Random(12)
        for length in (1, 600, 601, 4301, 18_000):
            digits = str(rng.randrange(1, 10)) + "".join(
                rng.choice("0123456789") for _ in range(length - 1))
            value = chunked_value(digits)
            assert _int_text(digits) == _int_text("+" + digits) == value
            assert _int_text("-" + digits) == -value
            assert _int_text("000" + digits) == value
