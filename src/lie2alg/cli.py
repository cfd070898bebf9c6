"""Command-line front end.

Subcommands: verify, normalize, invariants, cohomology, compare, example,
random, compose, transport.  Exit codes: 0 pass/success, 1 semantic failure
(equations fail, not isomorphic, bad certification maps), 2 input error
(unreadable file, malformed document, structural violation), 3 internal
error (a self-check failed: a bug, not the input; or memory ran out).

Every command that writes an algebra re-verifies it first and refuses, with
exit 3, to write one that fails: the package built it, so that is a bug.
"""

from __future__ import annotations

import argparse
import sys

from .core import TwoTermAlgebra, _rational_text, verify
from .cohomology import (
    IntertwinerError,
    LieAlgebra,
    LieMorphismError,
    cohomology_basis,
    cohomology_dim,
    is_coboundary,
)
from .classify import (
    InvertibilityError,
    certify_isomorphism,
    distinguish,
    invariants,
    normal_form,
    transport,
)
from .builders import (
    RandomProfile,
    lie_algebra,
    parse_quaternion,
    quaternion_example,
    random_algebra,
    representation,
    skeletal_string,
)
from .documents import (
    DocumentError,
    algebra_to_document,
    dumps,
    load_algebra,
    load_document,
    load_morphism,
    maps_from_document,
    morphism_to_document,
    parse_rational,
    save_document,
    transport_from_document,
)
from . import morphisms as morphism_ops


_EXIT_CODES = """exit codes:
  0  pass / success
  1  semantic failure: equations fail, not isomorphic, bad certification maps
  2  input error: unreadable or malformed document, structural violation, usage
  3  internal error: a self-check of lie2alg failed (a bug), or out of memory"""


def _say(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _emit(args, doc: dict) -> None:
    if args.out:
        save_document(args.out, doc)
    else:
        sys.stdout.write(dumps(doc))


def _checked_algebra_document(L: TwoTermAlgebra, name: str | None = None) -> dict:
    report = verify(L)
    if not report.passed:
        raise RuntimeError("refusing to write an algebra that fails verification")
    return algebra_to_document(L, name=name)


def cmd_verify(args) -> int:
    L = load_algebra(args.path)
    report = verify(L)
    for line in report.lines():
        _say(args, line)
    if report.passed:
        _say(args, "PASS")
        return 0
    _say(args, "FAIL")
    return 1


def cmd_normalize(args) -> int:
    L = load_algebra(args.path)
    if not verify(L).passed:
        _say(args, "input algebra fails verification")
        return 1
    result = normal_form(L)
    q = result.quadruple
    flag = "true" if is_coboundary(q.jtilde, q.rep) is not None else "false"
    _say(args, f"g={q.g.dim}, U={q.dim_u}, V={q.rep.dimV}, coboundary={flag}")
    if args.out:
        save_document(args.out, _checked_algebra_document(result.algebra))
    if args.out_morphism:
        save_document(args.out_morphism, morphism_to_document(result.morphism))
    return 0


def cmd_invariants(args) -> int:
    L = load_algebra(args.path)
    if not verify(L).passed:
        print("input algebra fails verification")
        return 1
    for line in invariants(L).lines():
        print(line)
    return 0


def _load_lie_algebra(path: str) -> LieAlgebra:
    L = load_algebra(path)
    if L.n1 != 0:
        raise DocumentError("a Lie algebra document must have n1 = 0")
    return LieAlgebra._of(L.n0, L._scaled.b00)


def cmd_cohomology(args) -> int:
    g = _load_lie_algebra(args.path)
    rep = representation(g, args.rep)
    n = args.degree
    dim = cohomology_dim(n, rep)
    print(f"dim H^{n} = {dim}")
    if args.basis:
        for idx, cocycle in enumerate(cohomology_basis(n, rep)):
            entries = ", ".join(
                f"{key}->({', '.join(_rational_text(c) for c in value)})"
                for key, value in cocycle.values.items()
            )
            print(f"cocycle {idx}: {entries}")
    return 0


def cmd_compare(args) -> int:
    A = load_algebra(args.path_a)
    B = load_algebra(args.path_b)
    for name, L in (("first", A), ("second", B)):
        if not verify(L).passed:
            _say(args, f"{name} algebra fails verification")
            return 1
    if not args.maps:
        reason = distinguish(A, B)
        if reason is None:
            _say(args, "INCONCLUSIVE (invariants equal)")
            return 0
        _say(args, f"DISTINGUISHED: {reason}")
        return 1
    chi, f_u, t_v = maps_from_document(load_document(args.maps))
    iso = certify_isomorphism(A, B, chi, f_u, t_v)
    if iso is None:
        _say(args, "NOT ISOMORPHIC: cocycles not cohomologous under these maps")
        return 1
    _say(args, "ISOMORPHIC")
    if args.out:
        save_document(args.out, morphism_to_document(iso))
    return 0


def cmd_example(args) -> int:
    if args.name == "quaternion":
        L = quaternion_example(parse_quaternion(args.v))
        doc = _checked_algebra_document(L, name=f"quaternion v={args.v}")
    elif args.name == "skeletal-string":
        g = lie_algebra(args.lie)
        k = parse_rational(args.k, "--k")
        L = skeletal_string(g, k)
        doc = _checked_algebra_document(L, name=f"skeletal-string {args.lie} k={args.k}")
    else:   # zero: argparse's choices admit no other name
        L = TwoTermAlgebra.zero(args.n0, args.n1)
        doc = _checked_algebra_document(L, name=f"zero {args.n0}+{args.n1}")
    _emit(args, doc)
    return 0


def cmd_random(args) -> int:
    profile = RandomProfile()
    if args.algebras:
        profile = profile._replace(algebras=tuple(args.algebras.split(",")))
    if args.reps:
        profile = profile._replace(representations=tuple(args.reps.split(",")))
    if args.max_u is not None:
        profile = profile._replace(max_dim_u=args.max_u)
    L = random_algebra(args.seed, profile)
    _emit(args, _checked_algebra_document(L, name=f"random seed={args.seed}"))
    return 0


def cmd_compose(args) -> int:
    first = load_morphism(args.first)
    second = load_morphism(args.second)
    _emit(args, morphism_to_document(morphism_ops.compose(first, second)))
    return 0


def cmd_transport(args) -> int:
    L = load_algebra(args.algebra)
    if not verify(L).passed:
        _say(args, "input algebra fails verification")
        return 1
    phi0, phi1, Phi = transport_from_document(load_document(args.maps), L)
    out, mor = transport(L, phi0, phi1, Phi)
    _emit(args, _checked_algebra_document(out))
    if args.out_morphism:
        save_document(args.out_morphism, morphism_to_document(mor))
    return 0


def build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the primary output document here")
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", action="store_true", help="suppress progress/report text")

    parser = argparse.ArgumentParser(
        prog="lie2alg",
        description="Exact verification, cohomology and classification of 2-term L-infinity algebras",
        epilog=_EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[quiet], help="check the defining equations")
    p.add_argument("path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("normalize", parents=[out, quiet],
                       help="compute the standard shape and its isomorphism")
    p.add_argument("path")
    p.add_argument("--out-morphism", help="write the normalizing morphism here")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("invariants", help="print the invariant fingerprint")
    p.add_argument("path")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("cohomology", help="Lie algebra cohomology dimensions")
    p.add_argument("path", help="algebra document with n1 = 0")
    p.add_argument("rep", help="trivial | trivialN | adjoint | sums joined with '+'")
    p.add_argument("degree", type=int)
    p.add_argument("--basis", action="store_true", help="also print representative cocycles")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("compare", parents=[out, quiet], help="distinguish or certify two algebras")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument("--maps", help="maps document (chi, fU, tV) for certification")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("example", parents=[out], help="write a built-in example algebra")
    p.add_argument("name", choices=["quaternion", "skeletal-string", "zero"])
    p.add_argument("--v", default="0", help="quaternion parameter, e.g. '1+2i+3j+5k'")
    p.add_argument("--lie", default="so3", help="catalog Lie algebra name")
    p.add_argument("--k", default="1", help="scaling of the skeletal-string cocycle")
    p.add_argument("--n0", type=int, default=0)
    p.add_argument("--n1", type=int, default=0)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("random", parents=[out], help="write a seeded random algebra")
    p.add_argument("--seed", type=int, default=0, help="seed for random generation")
    p.add_argument("--algebras", help="comma-separated catalog names")
    p.add_argument("--reps", help="comma-separated representation names")
    p.add_argument("--max-u", type=int, default=None)
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("compose", parents=[out], help="compose two morphism documents")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("transport", parents=[out, quiet],
                       help="push structure through a graded isomorphism")
    p.add_argument("algebra")
    p.add_argument("maps", help="transport document (phi0, phi1, Phi)")
    p.add_argument("--out-morphism", help="write the connecting morphism here")
    p.set_defaults(func=cmd_transport)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LieMorphismError, IntertwinerError, InvertibilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("internal error: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
