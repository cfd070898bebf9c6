import contextlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from lie2alg import (RandomProfile, TwoTermAlgebra, compose, extract_quadruple_maps,
                     identity_morphism, inverse, normal_form, quaternion_example, random_algebra,
                     transport)
from lie2alg.builders import random_antisymmetric_correction, random_invertible
from lie2alg.core import VerificationReport, perm_sign
from lie2alg.cli import _checked_algebra_document, main
from lie2alg.documents import (
    algebra_to_document,
    dumps,
    load_algebra,
    load_morphism,
    maps_to_document,
    morphism_to_document,
    save_document,
    transport_to_document,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def data(name):
    return os.path.join(DATA, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def so3_doc(tmp_path):
    """so3 as an algebra document with n1 = 0, as ``cohomology`` reads it."""
    from lie2alg import Matrix, so3
    from lie2alg.core import zero_tensor

    g = so3()
    L = TwoTermAlgebra(
        3, 0, Matrix.zero(3, 0), g.sc,
        zero_tensor((3, 0, 0)), zero_tensor((3, 3, 3, 0)),
    )
    path = tmp_path / "so3.json"
    save_document(str(path), algebra_to_document(L, name="so3"))
    return str(path)


class TestVerify:
    def test_quaternion_passes(self, capsys):
        code, out, _ = run(capsys, "verify", data("quaternion.json"))
        assert code == 0
        assert "PASS" in out

    def test_zero_passes(self, capsys):
        code, _, _ = run(capsys, "verify", data("zero_2_1.json"))
        assert code == 0

    def test_equation_failure_exits_1(self, capsys, tmp_path):
        L = quaternion_example("1+2i+3j+5k")
        b00 = [[list(row) for row in plane] for plane in L.b00]
        b00[1][2][1] += 1
        b00[2][1][1] -= 1
        bad = TwoTermAlgebra(4, 4, L.d, b00, L.b01, L.jac)
        path = tmp_path / "bad.json"
        save_document(str(path), algebra_to_document(bad))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "jacobi-defect: FAIL at (1, 2, 3)" in out

    def test_structural_failure_exits_2(self, capsys, tmp_path):
        doc = algebra_to_document(TwoTermAlgebra.zero(2, 0))
        doc["b00"] = [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
        path = tmp_path / "struct.json"
        with open(path, "w") as fh:
            fh.write(dumps(doc))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "antisymmetry violated at (0, 0)" in err

    @pytest.mark.parametrize("text", [
        "[" * 50_000 + "]" * 50_000,
        dumps({**algebra_to_document(TwoTermAlgebra.zero(1, 1)), "n0": 1.9}),
    ], ids=["deep-json", "float-n0"])
    def test_malformed_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("bad", [True, "\u0661"], ids=["true", "arabic-indic"])
    def test_coerced_entry_exits_2(self, capsys, tmp_path, bad):
        with open(data("quaternion.json")) as fh:
            doc = json.load(fh)
        doc["d"][0][0] = bad
        path = tmp_path / "coerced.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "d[0][0]: invalid rational" in err

    def test_repeated_key_exits_2(self, capsys):
        # without the check the last "n0" wins and this prints PASS
        code, out, err = run(capsys, "verify", data("malformed/zero_2_1_repeated_n0.json"))
        assert (code, out, err) == (2, "", "error: invalid JSON: repeated key 'n0'\n")

    def test_unreadable_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "/no/such/file.json")
        assert code == 2
        assert "cannot read" in err

    def test_quiet(self, capsys):
        code, out, _ = run(capsys, "verify", "--quiet", data("quaternion.json"))
        assert code == 0
        assert out == ""

    def test_report_past_int_str_digit_limit(self, capsys, tmp_path):
        # a well-formed 4+3 algebra, antisymmetric where it must be, whose
        # entries each have their own random 300-digit denominator: the
        # discrepancies of its failing equations run past 4300 digits
        rng = random.Random(5)

        def entry():
            return Fraction(rng.randrange(-10**300, 10**300), rng.randrange(10**299, 10**300))

        n0, n1 = 4, 3
        d = [[entry() for _ in range(n1)] for _ in range(n0)]
        b00 = [[[0] * n0 for _ in range(n0)] for _ in range(n0)]
        for i, j in combinations(range(n0), 2):
            b00[i][j] = [entry() for _ in range(n0)]
            b00[j][i] = [-x for x in b00[i][j]]
        b01 = [[[entry() for _ in range(n1)] for _ in range(n1)] for _ in range(n0)]
        jac = [[[[0] * n1 for _ in range(n0)] for _ in range(n0)] for _ in range(n0)]
        for key in combinations(range(n0), 3):
            value = [entry() for _ in range(n1)]
            for order in permutations(range(3)):
                a, b, c = (key[o] for o in order)
                jac[a][b][c] = [perm_sign(order) * x for x in value]
        path = tmp_path / "long.json"
        save_document(str(path), algebra_to_document(TwoTermAlgebra(n0, n1, d, b00, b01, jac)))
        code, out, err = run(capsys, "verify", str(path))
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "d-bracket-compat", "d-bracket-symmetry", "jacobi-defect",
            "jacobi-defect-deg1", "jacobiator-coherence", "FAIL"]
        assert max(len(line) for line in lines) > 2 * 4300


class TestNormalize:
    def test_summary_and_outputs(self, capsys, tmp_path):
        nf = tmp_path / "nf.json"
        mor = tmp_path / "mor.json"
        code, out, _ = run(
            capsys,
            "normalize",
            data("quaternion.json"),
            "--out",
            str(nf),
            "--out-morphism",
            str(mor),
        )
        assert code == 0
        assert "g=3, U=1, V=3, coboundary=true" in out
        from lie2alg import verify, verify_morphism

        assert verify(load_algebra(str(nf))).passed
        assert verify_morphism(load_morphism(str(mor))).passed

    def test_skeletal_summary(self, capsys):
        code, out, _ = run(capsys, "normalize", data("skeletal_string_so3_k1.json"))
        assert code == 0
        assert "g=3, U=0, V=1, coboundary=false" in out

    def test_self_check_failure_exits_3(self, capsys, monkeypatch):
        def failing(_):
            raise RuntimeError("normalizing morphism failed verification")

        monkeypatch.setattr("lie2alg.cli.normal_form", failing)
        code, out, err = run(capsys, "normalize", data("quaternion.json"))
        assert code == 3
        assert out == ""
        assert err == "internal error: normalizing morphism failed verification\n"
        assert "Traceback" not in err

    def test_refused_write_exits_3(self, capsys, monkeypatch):
        # every algebra the CLI writes is built by the package, so a refusal is a bug
        failing = VerificationReport(equations=(), structure_errors=("injected",), failures=())
        monkeypatch.setattr("lie2alg.cli.verify", lambda _: failing)
        code, out, err = run(capsys, "example", "zero", "--n0", "1", "--n1", "1")
        assert code == 3
        assert out == ""
        assert err == "internal error: refusing to write an algebra that fails verification\n"
        assert "Traceback" not in err


class TestInvariants:
    def test_golden_quaternion(self, capsys):
        code, out, _ = run(capsys, "invariants", data("quaternion.json"))
        assert code == 0
        with open(data("quaternion.invariants.txt")) as fh:
            assert out == fh.read()

    def test_golden_skeletal(self, capsys):
        code, out, _ = run(capsys, "invariants", data("skeletal_string_so3_k1.json"))
        assert code == 0
        with open(data("skeletal_string_so3_k1.invariants.txt")) as fh:
            assert out == fh.read()

    def test_byte_identical_across_runs(self, capsys):
        _, first, _ = run(capsys, "invariants", data("quaternion.json"))
        _, second, _ = run(capsys, "invariants", data("quaternion.json"))
        assert first == second

    def test_k0_k1_differ_exactly_in_coboundary_line(self, capsys):
        _, out0, _ = run(capsys, "invariants", data("skeletal_string_so3_k0.json"))
        _, out1, _ = run(capsys, "invariants", data("skeletal_string_so3_k1.json"))
        diff = [
            (a, b)
            for a, b in zip(out0.splitlines(), out1.splitlines())
            if a != b
        ]
        assert diff == [
            ("Jtilde coboundary flag=true", "Jtilde coboundary flag=false")
        ]


class TestCohomology:
    def test_trivial_h3(self, capsys, so3_doc):
        code, out, _ = run(capsys, "cohomology", so3_doc, "trivial", "3")
        assert code == 0
        assert out.startswith("dim H^3 = 1")

    def test_adjoint_h3(self, capsys, so3_doc):
        code, out, _ = run(capsys, "cohomology", so3_doc, "adjoint", "3")
        assert code == 0
        assert "dim H^3 = 0" in out

    def test_basis_flag(self, capsys, so3_doc):
        code, out, _ = run(capsys, "cohomology", so3_doc, "trivial", "3", "--basis")
        assert code == 0
        assert "cocycle 0" in out

    def test_abelian2(self, capsys, tmp_path):
        doc = algebra_to_document(TwoTermAlgebra.zero(2, 0))
        path = tmp_path / "ab2.json"
        save_document(str(path), doc)
        code, out, _ = run(capsys, "cohomology", str(path), "trivial", "1")
        assert code == 0
        assert "dim H^1 = 2" in out

    def test_abelian9_top_degrees(self, capsys, tmp_path):
        # degree 8 of a 9-dimensional algebra brackets positions of 9-tuples
        path = tmp_path / "ab9.json"
        save_document(str(path), algebra_to_document(TwoTermAlgebra.zero(9, 0)))
        code, out, err = run(capsys, "cohomology", str(path), "trivial", "8")
        assert (code, out, err) == (0, "dim H^8 = 9\n", "")

    def test_nonzero_degree1_rejected(self, capsys):
        code, _, err = run(capsys, "cohomology", data("quaternion.json"), "trivial", "1")
        assert code == 2
        assert "n1 = 0" in err

    @pytest.mark.parametrize("degree", ["99999999999999999999", "9223372036854775808"])
    def test_degree_past_the_largest_index_exits_2(self, capsys, so3_doc, degree):
        code, out, err = run(capsys, "cohomology", so3_doc, "adjoint", degree)
        assert (code, out) == (2, "")
        assert err == f"error: degree {degree} is larger than the largest index {sys.maxsize}\n"

    def test_oversized_representation_exits_2(self, capsys, so3_doc):
        code, out, err = run(capsys, "cohomology", so3_doc, "trivial99999999999999999999", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("degree", ["4", "9223372036854775807"])
    def test_degree_above_dim_g_is_zero(self, capsys, so3_doc, degree):
        # C^n = 0 past dim g = 3, answered without building any n-tuple
        code, out, err = run(capsys, "cohomology", so3_doc, "adjoint", degree, "--basis")
        assert (code, out, err) == (0, f"dim H^{degree} = 0\n", "")

    def test_out_of_memory_exits_3(self, capsys, monkeypatch, so3_doc):
        # a large enough cochain space exhausts memory; stand in for that
        # without allocating
        def exhausted(_):
            raise MemoryError

        monkeypatch.setattr("lie2alg.cli.cmd_cohomology", exhausted)
        code, out, err = run(capsys, "cohomology", so3_doc, "adjoint", "8")
        assert (code, out, err) == (3, "", "internal error: out of memory\n")


class TestCompare:
    def test_distinguished(self, capsys):
        code, out, _ = run(
            capsys,
            "compare",
            data("skeletal_string_so3_k0.json"),
            data("skeletal_string_so3_k1.json"),
        )
        assert code == 1
        assert "DISTINGUISHED: Jtilde coboundary flag" in out

    def test_self_inconclusive(self, capsys):
        code, out, _ = run(
            capsys,
            "compare",
            data("quaternion.json"),
            data("quaternion.json"),
        )
        assert code == 0
        assert "INCONCLUSIVE (invariants equal)" in out

    def test_certified_isomorphic(self, capsys, tmp_path):
        iso = tmp_path / "iso.json"
        code, out, _ = run(
            capsys,
            "compare",
            data("skeletal_string_so3_k1.json"),
            data("skeletal_string_so3_k2.json"),
            "--maps",
            data("maps_identity_scale2.json"),
            "--out",
            str(iso),
        )
        assert code == 0
        assert "ISOMORPHIC" in out
        from lie2alg import is_isomorphism, verify_morphism

        written = load_morphism(str(iso))
        assert verify_morphism(written).passed
        assert is_isomorphism(written)

    def test_maps_nonlist_row_exits_2(self, capsys, tmp_path):
        maps = tmp_path / "maps.json"
        with open(data("maps_identity_scale2.json")) as fh:
            doc = json.load(fh)
        doc["chi"] = [5]
        maps.write_text(dumps(doc))
        code, _, err = run(
            capsys,
            "compare",
            data("skeletal_string_so3_k1.json"),
            data("skeletal_string_so3_k2.json"),
            "--maps",
            str(maps),
        )
        assert code == 2
        assert "chi[0]" in err

    def test_not_cohomologous(self, capsys):
        code, out, _ = run(
            capsys,
            "compare",
            data("skeletal_string_so3_k0.json"),
            data("skeletal_string_so3_k1.json"),
            "--maps",
            data("maps_identity_scale2.json"),
        )
        assert code == 1
        assert "cocycles not cohomologous" in out


class TestGeneration:
    def test_example_writes_verified_document(self, capsys, tmp_path):
        out_path = tmp_path / "q.json"
        code, _, _ = run(
            capsys, "example", "quaternion", "--v", "i", "--out", str(out_path)
        )
        assert code == 0
        code, _, _ = run(capsys, "verify", "--quiet", str(out_path))
        assert code == 0

    def test_example_stdout(self, capsys):
        code, out, _ = run(capsys, "example", "zero", "--n0", "1", "--n1", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "algebra"

    def test_random_deterministic(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, "random", "--seed", "7", "--out", str(a))
        run(capsys, "random", "--seed", "7", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_random_verifies(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        code, _, _ = run(capsys, "random", "--seed", "3", "--out", str(path))
        assert code == 0
        code, _, _ = run(capsys, "verify", "--quiet", str(path))
        assert code == 0

    @pytest.mark.parametrize("literal", ["1/0", "2-3/0k"])
    def test_zero_denominator_in_v_exits_2(self, capsys, literal):
        code, out, err = run(capsys, "example", "quaternion", "--v", literal)
        assert (code, out) == (2, "")
        assert err == f"error: zero denominator in quaternion literal {literal!r}\n"

    @pytest.mark.parametrize("argv", [
        ("example", "zero", "--n0", "99999999999999999999", "--n1", "0"),
        ("example", "skeletal-string", "--lie", "abelian99999999999999999999", "--k", "1"),
    ])
    def test_size_past_the_largest_index_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("cohomology", "{so3}", "trivial\u0663", "2"),
        ("cohomology", "{so3}", "adjoint+trivial\u0663", "2"),
        ("example", "skeletal-string", "--lie", "abelian\u0663"),
        ("example", "quaternion", "--v", "\u0663i"),
    ])
    def test_non_ascii_digits_exit_2(self, capsys, so3_doc, argv):
        # ARABIC-INDIC DIGIT THREE is a digit to int() and to the pattern
        # \d, but not to a catalog name or a quaternion literal
        code, out, err = run(capsys, *[a.replace("{so3}", so3_doc) for a in argv])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "\u0663" in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (("cohomology", "{so3}", "trivial01", "1"), "unknown representation 'trivial01'"),
        (("cohomology", "{so3}", "adjoint+trivial00", "2"), "unknown representation 'trivial00'"),
        (("example", "skeletal-string", "--lie", "abelian007", "--k", "1"),
         "unknown Lie algebra 'abelian007'"),
        (("random", "--algebras", "abelian01"), "unknown Lie algebra 'abelian01'"),
    ])
    def test_catalog_numbers_with_leading_zeros_exit_2(self, capsys, so3_doc, argv, message):
        # one spelling per catalog entry: trivial01 is not read as trivial1
        code, out, err = run(capsys, *[a.replace("{so3}", so3_doc) for a in argv])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, option, text", [
        (("example", "zero", "--n0", "\u0662", "--n1", "1"), "--n0", "\u0662"),
        (("example", "zero", "--n0", "1", "--n1", "1_0"), "--n1", "1_0"),
        (("example", "zero", "--n0", " 2"), "--n0", " 2"),
        (("random", "--seed", "\u0663"), "--seed", "\u0663"),
        (("random", "--seed", "+-3"), "--seed", "+-3"),
        (("random", "--max-u", "\u0661"), "--max-u", "\u0661"),
        (("random", "--max-u", "1_0"), "--max-u", "1_0"),
        (("cohomology", "{so3}", "trivial", "\u0663"), "degree", "\u0663"),
        (("cohomology", "{so3}", "trivial", "0x3"), "degree", "0x3"),
    ])
    def test_integer_options_take_ascii_digits_only(self, capsys, so3_doc, argv, option, text):
        # int() reads any Unicode decimal digit, underscores between digits
        # and surrounding spaces; an integer option takes [+-]?[0-9]+ alone,
        # and anything else is argparse's usage error, exit 2
        with pytest.raises(SystemExit) as info:
            main([a.replace("{so3}", so3_doc) for a in argv])
        out, err = capsys.readouterr()
        assert (info.value.code, out) == (2, "")
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [err.splitlines()[-1]]
        assert errors[0].endswith(f"error: argument {option}: invalid integer "
                                  f"(ASCII digits only): {text!r}")

    @pytest.mark.parametrize("argv, error", [
        (("--max-u", "-1"), "argument --max-u: must be nonnegative: '-1'"),
        (("--max-u", "-0002"), "argument --max-u: must be nonnegative: '-0002'"),
        (("--algebras", ""), "argument --algebras: empty name in comma-separated list: ''"),
        (("--reps", ""), "argument --reps: empty name in comma-separated list: ''"),
        (("--algebras", "so3,,sl2"),
         "argument --algebras: empty name in comma-separated list: 'so3,,sl2'"),
        (("--reps", "adjoint,"), "argument --reps: empty name in comma-separated list: 'adjoint,'"),
    ])
    def test_random_profile_options_are_checked(self, capsys, argv, error):
        # a negative --max-u once reached randrange and an empty list fell
        # back to the default catalog; each is argparse's usage error, exit 2
        with pytest.raises(SystemExit) as info:
            main(["random", "--seed", "1", *argv])
        out, err = capsys.readouterr()
        assert (info.value.code, out) == (2, "")
        assert err.splitlines()[-1] == f"lie2alg random: error: {error}"

    @pytest.mark.parametrize("argv, attrs", [
        (("example", "zero", "--n0", "+2", "--n1", "007"), {"n0": 2, "n1": 7}),
        (("random", "--seed", "-3", "--max-u", "1"), {"seed": -3, "max_u": 1}),
        (("cohomology", "A", "trivial", "+2"), {"degree": 2}),
    ])
    def test_integer_options_parse_ascii_digits(self, argv, attrs):
        from lie2alg.cli import build_parser

        args = vars(build_parser().parse_args(list(argv)))
        assert {k: args[k] for k in attrs} == attrs

    @pytest.mark.parametrize("argv", [
        ("example", "zero", "--out", "{dir}"),
        ("example", "zero", "--out", "{dir}/missing/zero.json"),
        ("normalize", data("quaternion.json"), "--quiet", "--out-morphism", "{dir}"),
    ])
    def test_unwritable_output_exits_2(self, capsys, tmp_path, argv):
        argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {argv[-1]}: ") and "Traceback" not in err

    @pytest.mark.parametrize("flags, profile", [
        (("--algebras", "so3,sl2"), RandomProfile(algebras=("so3", "sl2"))),
        (("--reps", "adjoint"), RandomProfile(representations=("adjoint",))),
        (("--max-u", "0"), RandomProfile(max_dim_u=0)),
        (("--algebras", "heisenberg3", "--reps", "trivial2,adjoint", "--max-u", "1"),
         RandomProfile(algebras=("heisenberg3",), representations=("trivial2", "adjoint"),
                       max_dim_u=1)),
    ])
    def test_random_profile_flags(self, capsys, flags, profile):
        code, out, _ = run(capsys, "random", "--seed", "5", *flags)
        assert code == 0
        want = _checked_algebra_document(random_algebra(5, profile), name="random seed=5")
        assert out == dumps(want)
        # seed 5 draws a different algebra under each of these profiles
        assert out != run(capsys, "random", "--seed", "5")[1]


class TestComposeTransport:
    def test_compose_with_inverse_gives_identity_document(self, capsys, tmp_path):
        from lie2alg import example27_automorphism, inverse
        from lie2alg.documents import morphism_to_document

        m = example27_automorphism("1+2i+3j+5k")
        a = tmp_path / "m.json"
        b = tmp_path / "minv.json"
        out_path = tmp_path / "id.json"
        save_document(str(a), morphism_to_document(m))
        save_document(str(b), morphism_to_document(inverse(m)))
        code, _, _ = run(capsys, "compose", str(a), str(b), "--out", str(out_path))
        assert code == 0
        from lie2alg import Matrix, identity_morphism

        written = load_morphism(str(out_path))
        assert written == identity_morphism(m.source)

    def test_transport_identity_echoes_canonically(self, capsys, tmp_path):
        from lie2alg import Matrix
        from lie2alg.core import zero_tensor
        from lie2alg.documents import transport_to_document

        L = load_algebra(data("quaternion.json"))
        maps = tmp_path / "tid.json"
        save_document(
            str(maps),
            transport_to_document(
                Matrix.identity(4), Matrix.identity(4), zero_tensor((4, 4, 4))
            ),
        )
        out_path = tmp_path / "echo.json"
        code, _, _ = run(
            capsys, "transport", data("quaternion.json"), str(maps), "--out", str(out_path)
        )
        assert code == 0
        assert load_algebra(str(out_path)) == L

    def test_transport_past_int_str_digit_limit(self, capsys, tmp_path):
        # d = [[1]] scaled by p and q, two 2500-digit numbers: the transported
        # differential p*q has about 5000 digits
        from lie2alg import Matrix, transport
        from lie2alg.core import zero_tensor
        from lie2alg.documents import transport_to_document

        rng = random.Random(8)
        p, q = (rng.randrange(10**2499, 10**2500) for _ in range(2))
        A = TwoTermAlgebra(1, 1, Matrix.identity(1), zero_tensor((1, 1, 1)),
                           zero_tensor((1, 1, 1)), zero_tensor((1, 1, 1, 1)))
        a_path, t_path, out_path = (tmp_path / name for name in ("A.json", "T.json", "out.json"))
        save_document(str(a_path), algebra_to_document(A))
        save_document(str(t_path), transport_to_document(
            Matrix.from_rows([[p]]), Matrix.from_rows([[Fraction(1, q)]]), zero_tensor((1, 1, 1))))
        code, _, err = run(capsys, "transport", str(a_path), str(t_path), "--out", str(out_path))
        assert (code, err) == (0, "")
        written = load_algebra(str(out_path))
        assert written.d == Matrix.from_rows([[p * q]])
        assert written == transport(A, [[p]], [[Fraction(1, q)]], zero_tensor((1, 1, 1)))[0]

    def test_transport_automorphism_returns_same_algebra(self, capsys, tmp_path):
        from lie2alg import example27_automorphism
        from lie2alg.documents import transport_to_document

        m = example27_automorphism("1+2i+3j+5k")
        maps = tmp_path / "t27.json"
        save_document(str(maps), transport_to_document(m.phi0, m.phi1, m.Phi))
        out_path = tmp_path / "same.json"
        mor_path = tmp_path / "mor.json"
        code, _, _ = run(
            capsys,
            "transport",
            data("quaternion.json"),
            str(maps),
            "--out",
            str(out_path),
            "--out-morphism",
            str(mor_path),
        )
        assert code == 0
        assert load_algebra(str(out_path)) == m.source
        from lie2alg import verify_morphism

        assert verify_morphism(load_morphism(str(mor_path))).passed

    def test_transport_writes_the_library_transport(self, capsys, tmp_path):
        # the command hands the correction it read, in scaled form, straight
        # to the transport body: both documents must be those of the public
        # transport of the maps the public reader returns
        from lie2alg.documents import transport_from_document

        rng = random.Random(31)
        for seed in (2, 5, 12):
            L = random_algebra(seed)
            Phi = [[[0] * L.n1 for _ in range(L.n0)] for _ in range(L.n0)]
            for i, j in combinations(range(L.n0), 2):
                Phi[i][j] = [Fraction(rng.randint(-3, 3), rng.choice((1, 3, 999_953)))
                             for _ in range(L.n1)]
                Phi[j][i] = [-x for x in Phi[i][j]]
            doc = transport_to_document(random_invertible(rng, L.n0, 2),
                                        random_invertible(rng, L.n1, 2), Phi)
            paths = [tmp_path / f"{name}{seed}.json" for name in ("A", "T", "out", "mor")]
            save_document(str(paths[0]), algebra_to_document(L))
            save_document(str(paths[1]), doc)
            code, _, err = run(capsys, "transport", *map(str, paths[:2]), "--out", str(paths[2]),
                               "--out-morphism", str(paths[3]))
            assert (code, err) == (0, "")
            M, mor = transport(L, *transport_from_document(doc, L))
            assert paths[2].read_text() == dumps(_checked_algebra_document(M))
            assert paths[3].read_text() == dumps(morphism_to_document(mor))

    def test_transport_names_a_bad_correction(self, capsys, tmp_path):
        from lie2alg import Matrix
        from lie2alg.documents import transport_to_document

        Phi = [[[0] * 4 for _ in range(4)] for _ in range(4)]
        Phi[0][1] = [1, 0, 0, 0]           # Phi[1][0] should be its negative
        maps = tmp_path / "bad_phi.json"
        save_document(str(maps), transport_to_document(Matrix.identity(4), Matrix.identity(4),
                                                       Phi))
        out_path = tmp_path / "never.json"
        code, out, err = run(capsys, "transport", data("quaternion.json"), str(maps),
                             "--out", str(out_path))
        assert (code, out, err) == (2, "", "error: correction antisymmetry violated at (0, 1)\n")
        assert not out_path.exists()


    @pytest.mark.parametrize("check, message", [
        ("verify", "transported algebra failed verification"),
        ("verify_morphism", "transport produced an invalid morphism"),
    ])
    def test_self_check_failure_exits_3(self, capsys, monkeypatch, tmp_path, check, message):
        # the command verifies its input first, so a failed check of what
        # transport built is a bug
        from lie2alg import Matrix, classify
        from lie2alg.core import zero_tensor
        from lie2alg.documents import transport_to_document

        maps = tmp_path / "tid.json"
        save_document(str(maps), transport_to_document(Matrix.identity(4), Matrix.identity(4),
                                                       zero_tensor((4, 4, 4))))
        failing = VerificationReport(equations=(), structure_errors=("injected",), failures=())
        real, answers = getattr(classify, check), iter([failing])
        monkeypatch.setattr(classify, check, lambda x: next(answers, None) or real(x))
        code, out, err = run(capsys, "transport", data("quaternion.json"), str(maps))
        assert (code, out) == (3, "")
        assert err == f"internal error: {message}: ['structure: injected']\n"


def _shape_cases():
    """(document kind, field, index path, expected length) for a list cut
    short at every depth of every field; the algebra is 3 + 2 dimensional."""
    shapes = {"d": (3, 2), "b00": (3, 3, 3), "b01": (3, 2, 2), "jac": (3, 3, 3, 2),
              "Phi": (3, 3, 2), "phi0": (3, 3)}
    for field, shape in shapes.items():
        kind = "transport" if field in ("Phi", "phi0") else "algebra"
        for depth, n in enumerate(shape):
            yield pytest.param(kind, field, (0, 1, 2)[:depth], n, id=f"{field}-depth{depth}")
    # a maps matrix takes its shape from its first row, so only rows can be short
    yield pytest.param("maps", "chi", (1,), 3, id="chi-depth1")


@pytest.mark.parametrize("kind, field, path, length", _shape_cases())
def test_shape_error_names_path_and_exits_2(capsys, tmp_path, kind, field, path, length):
    from lie2alg import Matrix
    from lie2alg.core import zero_tensor
    from lie2alg.documents import (DocumentError, algebra_from_document, maps_from_document,
                                   maps_to_document, transport_from_document,
                                   transport_to_document)

    A = TwoTermAlgebra.zero(3, 2)
    a_path = tmp_path / "A.json"
    save_document(str(a_path), algebra_to_document(A))
    doc = {"algebra": algebra_to_document(A),
           "transport": transport_to_document(Matrix.identity(3), Matrix.identity(2),
                                              zero_tensor((3, 3, 2))),
           "maps": maps_to_document(Matrix.identity(3), Matrix.zero(0, 0),
                                    Matrix.identity(2))}[kind]
    node = doc[field]
    for i in path:
        node = node[i]
    node.pop()
    where = field + "".join(f"[{i}]" for i in path)
    message = f"{where}: expected length {length}"

    parse = {"algebra": algebra_from_document,
             "transport": lambda d: transport_from_document(d, A),
             "maps": maps_from_document}[kind]
    with pytest.raises(DocumentError) as info:
        parse(doc)
    assert str(info.value) == message

    doc_path = tmp_path / "doc.json"
    save_document(str(doc_path), doc)
    argv = {"algebra": ("verify", str(doc_path)),
            "transport": ("transport", str(a_path), str(doc_path)),
            "maps": ("compare", str(a_path), str(a_path), "--maps", str(doc_path))}[kind]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


class TestOptions:
    """Each subcommand takes only the options it reads: --out where it
    writes a document, --seed on random, --quiet where it prints a report."""

    @pytest.mark.parametrize("argv", [
        ("verify", "A", "--out", "f.json"),
        ("verify", "A", "--seed", "1"),
        ("invariants", "A", "--out", "f.json", "--quiet"),
        ("invariants", "A", "--quiet"),
        ("cohomology", "A", "trivial", "1", "--out", "f.json"),
        ("cohomology", "A", "trivial", "1", "--quiet"),
        ("normalize", "A", "--seed", "1"),
        ("compare", "A", "A", "--seed", "1"),
        ("example", "zero", "--quiet"),
        ("example", "zero", "--seed", "1"),
        ("random", "--quiet"),
        ("compose", "M", "M", "--quiet"),
        ("transport", "A", "T", "--seed", "1"),
    ], ids="_".join)
    def test_dropped_options_exit_2(self, capsys, tmp_path, argv):
        a_path = tmp_path / "A.json"
        save_document(str(a_path), algebra_to_document(TwoTermAlgebra.zero(2, 0)))
        names = {"A": str(a_path), "f.json": str(tmp_path / "f.json")}
        with pytest.raises(SystemExit) as info:
            main([names.get(a, a) for a in argv])
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err
        assert not (tmp_path / "f.json").exists()

    def test_help_names_every_exit_code(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        out = capsys.readouterr().out
        assert info.value.code == 0
        for code, meaning in (("0", "success"), ("1", "semantic failure"), ("2", "input error"),
                              ("3", "internal error")):
            assert f"  {code}  " in out and meaning in out

    @pytest.mark.parametrize("argv, attrs", [
        (("normalize", "A", "--out", "f", "--quiet"), {"out": "f", "quiet": True}),
        (("compare", "A", "B", "--out", "f", "--quiet"), {"out": "f", "quiet": True}),
        (("example", "zero", "--out", "f"), {"out": "f"}),
        (("random", "--out", "f", "--seed", "5"), {"out": "f", "seed": 5}),
        (("compose", "M", "N", "--out", "f"), {"out": "f"}),
        (("transport", "A", "T", "--out", "f", "--quiet"), {"out": "f", "quiet": True}),
        (("verify", "A", "--quiet"), {"quiet": True}),
    ])
    def test_kept_options_parse(self, argv, attrs):
        from lie2alg.cli import build_parser

        args = vars(build_parser().parse_args(list(argv)))
        assert {k: args[k] for k in attrs} == attrs


def test_cold_import_loads_no_dataclasses():
    # every command pays for what importing the cli loads; dataclasses (with
    # inspect, ast and dis under it) was about a third of that
    import subprocess

    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    out = subprocess.run(
        [sys.executable, "-c", "import lie2alg.cli, sys; print('dataclasses' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    ).stdout
    assert out == "False\n"


def console_scripts(path):
    """The ``name = "module:function"`` entries of the [project.scripts]
    table of a pyproject.toml, read line by line: ``tomllib`` is new in
    Python 3.11, and the package supports 3.10."""
    scripts, table = {}, None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line.startswith("["):
                table = line
            elif table == "[project.scripts]" and "=" in line:
                name, value = (part.strip() for part in line.split("=", 1))
                scripts[name] = value.strip('"')
    return scripts


def test_console_script_of_pyproject_runs_verify():
    # the installed ``lie2alg`` command calls the function [project.scripts]
    # names, as ``sys.exit(main())``: run that call on a document, as the
    # install step of the CI workflow does, without installing
    import subprocess

    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    scripts = console_scripts(os.path.join(root, "pyproject.toml"))
    if sys.version_info >= (3, 11):
        import tomllib
        with open(os.path.join(root, "pyproject.toml"), "rb") as f:
            assert tomllib.load(f)["project"]["scripts"] == scripts
    assert scripts == {"lie2alg": "lie2alg.cli:main"}
    module, _, function = scripts["lie2alg"].partition(":")
    script = f"import sys; from {module} import {function}; sys.exit({function}())"
    for argv, last in ((["--help"], "3  internal error"), (["verify", data("quaternion.json")], "PASS")):
        done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.path.join(root, "src")})
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines()[-1].strip().startswith(last)


# -- the exit-code contract under arbitrary input ------------------------------

def _exit_code(argv):
    """``main(argv)`` with its output discarded: what it returns."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(option=st.sampled_from([("quaternion", "--v"), ("skeletal-string", "--k")]),
       text=st.one_of(st.text(max_size=10), st.text("0123456789/+-ijk. ", max_size=10)))
def test_any_parameter_text_gets_an_exit_code(option, text):
    name, flag = option
    assert _exit_code(["example", name, f"{flag}={text}"]) in (0, 1, 2, 3)


_SMALL_DOCUMENT = algebra_to_document(random_algebra(
    0, RandomProfile(algebras=("nonabelian2",), representations=("trivial1",), max_dim_u=1)))


@st.composite
def _mutated_documents(draw):
    """The small algebra document with one field, or one entry or list
    inside it, of a wrong type, a bad rational or a wrong length."""
    doc = json.loads(json.dumps(_SMALL_DOCUMENT))
    parent, key = doc, draw(st.sampled_from(sorted(doc)))
    while isinstance(parent[key], list) and parent[key] and draw(st.booleans()):
        parent, key = parent[key], draw(st.integers(0, len(parent[key]) - 1))
    value = parent[key]
    parent[key] = draw(st.one_of(
        st.sampled_from([None, True, 1.5, 7, "x", [], {}]),
        st.sampled_from(["1/0", "1.5", "1e3", "", "2/-3", "\u0663", 2.5]),
        st.just(value[:-1] if isinstance(value, list) else [value]),
        st.just(value + value[-1:] if isinstance(value, list) else [value, value])))
    return doc


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(doc=_mutated_documents(), command=st.sampled_from(["verify", "invariants", "normalize"]))
def test_any_mutated_document_gets_an_exit_code(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert _exit_code([command, path]) in (0, 1, 2, 3)


def _other_documents():
    """A morphism, a maps and a transport document around the small algebra
    A: the transport to B, the certificate maps of A and B, and the
    morphism that transport builds."""
    A = random_algebra(0, RandomProfile(algebras=("nonabelian2",), representations=("trivial1",),
                                        max_dim_u=1))
    rng = random.Random(0)
    phi0, phi1 = random_invertible(rng, A.n0, 2), random_invertible(rng, A.n1, 2)
    corr = random_antisymmetric_correction(rng, A.n0, A.n1, 2)
    B, mor = transport(A, phi0, phi1, corr)
    bridge = compose(compose(inverse(normal_form(A).morphism), mor), normal_form(B).morphism)
    maps = extract_quadruple_maps(bridge)
    return A, B, {"compose": morphism_to_document(mor),
                  "compare": maps_to_document(maps.tau, maps.f_u, maps.t_v),
                  "transport": transport_to_document(phi0, phi1, corr)}


_A, _B, _OTHER_DOCUMENTS = _other_documents()


@st.composite
def _mutated_other_documents(draw):
    """A subcommand and its morphism, maps or transport document with one
    field, or one entry, list or inline algebra field inside it, of a wrong
    type, a bad rational or a wrong length."""
    command = draw(st.sampled_from(sorted(_OTHER_DOCUMENTS)))
    doc = json.loads(json.dumps(_OTHER_DOCUMENTS[command]))
    holder, key = doc, draw(st.sampled_from(sorted(doc)))
    while isinstance(holder[key], (list, dict)) and holder[key] and draw(st.booleans()):
        node = holder[key]
        holder, key = node, draw(st.sampled_from(sorted(node)) if isinstance(node, dict)
                                 else st.integers(0, len(node) - 1))
    value = holder[key]
    holder[key] = draw(st.one_of(
        st.sampled_from([None, True, 1.5, 7, "x", [], {}]),
        st.sampled_from(["1/0", "1.5", "1e3", "", "2/-3", "\u0663", 2.5]),
        st.just(value[:-1] if isinstance(value, list) else [value]),
        st.just(value + value[-1:] if isinstance(value, list) else [value, value])))
    return command, doc


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=_mutated_other_documents())
def test_any_mutated_morphism_maps_or_transport_document_gets_an_exit_code(case):
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        def save(name, content):
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(content, fh)
            return path

        a, b = save("a.json", algebra_to_document(_A)), save("b.json", algebra_to_document(_B))
        path = save("doc.json", doc)
        argv = {"compose": ["compose", path,
                            save("id.json", morphism_to_document(identity_morphism(_B)))],
                "compare": ["compare", a, b, "--maps", path],
                "transport": ["transport", a, path]}[command]
        assert _exit_code(argv) in (0, 1, 2, 3)
