"""Command-line driver.

Subcommands: reduce, mul, inv, eq, green, idem, eggbox, band, image,
classify, infer, verify.  Families are selected with --family n,m (use
"inf" for an infinite bound) or --group-case 1..4 with --order d|inf;
--order belongs to --group-case alone.  --format dot is band's only.
Exit codes: 0 success, 1 domain error, 2 usage error.  Output goes to
stdout, diagnostics to stderr; identical arguments produce identical
bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import classify as classify_mod
from . import family as family_mod
from . import normal_form as nf
from . import oracle as oracle_mod
from . import quotient as quotient_mod
from . import render as render_mod
from . import structure as structure_mod
from .errors import OrthoxError
from .family import FamilySpec, Relation
from .words import decimal


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # Every command but classify and infer takes a family selector.
        family = (_family_from(args),) if "group_case" in args else ()
        out = args.handler(args, *family)
    except OrthoxError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if out:
        print(out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthox",
        description="Exact algebra for semigroups generated by two mutually "
                    "inverse elements.")
    sub = parser.add_subparsers(dest="command", required=True)

    fam = argparse.ArgumentParser(add_help=False)
    fam.add_argument("--family", metavar="N,M",
                     help="combinatorial family bounds, e.g. 3,inf")
    fam.add_argument("--group-case", type=int, choices=(1, 2, 3, 4),
                     metavar="C", help="group-generator case 1..4")
    fam.add_argument("--order", metavar="D",
                     help="generator order for --group-case (default inf)")

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", default="ascii", choices=("ascii", "json"))

    p = sub.add_parser("reduce", parents=[fam, fmt],
                       help="canonical form of a word")
    p.add_argument("word")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("mul", parents=[fam, fmt], help="product of two words")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_mul)

    p = sub.add_parser("inv", parents=[fam, fmt],
                       help="canonical inverse of a word")
    p.add_argument("word")
    p.set_defaults(handler=_cmd_inv)

    p = sub.add_parser("eq", parents=[fam], help="equality of two words")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_eq)

    p = sub.add_parser("green", parents=[fam],
                       help="Green's relation between two words")
    p.add_argument("--rel", required=True, choices=("R", "L", "H", "D"))
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_green)

    p = sub.add_parser("idem", parents=[fam, fmt],
                       help="test a word for idempotency, or list the "
                            "window idempotents with --bound")
    p.add_argument("word", nargs="?")
    p.add_argument("--bound", type=int, default=4)
    p.set_defaults(handler=_cmd_idem)

    p = sub.add_parser("eggbox", parents=[fam, fmt],
                       help="eggbox grid over a window")
    p.add_argument("--window", default="3,3,3,3", metavar="U,D,L,R",
                   help="edge rows above/below and edge columns "
                        "left/right of the center")
    p.add_argument("--reps", type=int, default=3,
                   help="representatives per group-case cell")
    p.set_defaults(handler=_cmd_eggbox)

    p = sub.add_parser("band", parents=[fam],
                       help="idempotent band diagram")
    p.add_argument("--format", default="ascii", choices=("ascii", "dot", "json"))
    p.add_argument("--bound", type=int, default=3)
    p.set_defaults(handler=_cmd_band)

    p = sub.add_parser("image", parents=[fam],
                       help="image in the maximum inverse-semigroup quotient")
    p.add_argument("word")
    p.set_defaults(handler=_cmd_image)

    p = sub.add_parser("classify", help="classify a relation u = v")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("infer", help="infer the family presented by relations")
    p.add_argument("--rel", action="append", default=[], metavar="U=V",
                   dest="rels")
    p.add_argument("--format", default="ascii", choices=("ascii", "json"))
    p.set_defaults(handler=_cmd_infer)

    p = sub.add_parser("verify", parents=[fam, fmt],
                       help="cross-check the reducer against the word oracle")
    p.add_argument("--max-len", type=int, default=7)
    p.add_argument("--cap", type=int, default=None,
                   help="longest rule the oracle's completion may adopt "
                        "(default no limit)")
    p.set_defaults(handler=_cmd_verify)

    return parser


def _family_from(args) -> FamilySpec:
    if args.family is not None and args.group_case is not None:
        raise OrthoxError("pass exactly one of --family and --group-case")
    if args.family is not None:
        if args.order is not None:
            raise OrthoxError("--order applies to --group-case only")
        return family_mod.parse_combinatorial(args.family)
    if args.group_case is not None:
        order = "inf" if args.order is None else args.order
        return family_mod.group_case(args.group_case,
                                     family_mod.parse_bound(order, "--order"))
    raise OrthoxError("a family selector is required "
                      "(--family n,m or --group-case C)")


def _element_out(x, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(nf.element_to_json(x))
    return nf.format_element(x)


def _cmd_reduce(args, f: FamilySpec) -> str:
    return _element_out(nf.reduce(args.word, f), args.format)


def _cmd_mul(args, f: FamilySpec) -> str:
    prod = nf.multiply(nf.reduce(args.left, f), nf.reduce(args.right, f))
    return _element_out(prod, args.format)


def _cmd_inv(args, f: FamilySpec) -> str:
    return _element_out(nf.canonical_inverse(nf.reduce(args.word, f)),
                        args.format)


def _cmd_eq(args, f: FamilySpec) -> str:
    same = nf.equal(nf.reduce(args.left, f), nf.reduce(args.right, f))
    return "true" if same else "false"


def _cmd_green(args, f: FamilySpec) -> str:
    hit = structure_mod.related(nf.reduce(args.left, f),
                                nf.reduce(args.right, f), args.rel)
    return "true" if hit else "false"


def _cmd_idem(args, f: FamilySpec) -> str:
    if args.word is not None:
        return "true" if nf.is_idempotent(nf.reduce(args.word, f)) else "false"
    names = [nf.format_element(e)
             for e in structure_mod.idempotents_window(f, args.bound)]
    if args.format == "json":
        return json.dumps(names)
    return "\n".join(names)


def _cmd_eggbox(args, f: FamilySpec) -> str:
    counts = args.window.split(",")
    if len(counts) != 4:
        raise OrthoxError(f"--window takes four counts, got {args.window!r}")
    try:
        window = render_mod.EggboxWindow(*(int(c) for c in counts))
    except ValueError:
        raise OrthoxError(f"--window counts must be integers, got {args.window!r}")
    matrix = render_mod.eggbox_grid(f, window, reps=args.reps)
    if args.format == "json":
        return json.dumps(matrix)
    return render_mod.grid_text(matrix)


def _cmd_band(args, f: FamilySpec) -> str:
    if args.format == "dot":
        return render_mod.band_dot(f, args.bound)
    if args.format == "json":
        return render_mod.band_json(f, args.bound)
    return render_mod.band_text(f, args.bound)


def _cmd_image(args, f: FamilySpec) -> str:
    image = quotient_mod.inverse_image(nf.reduce(args.word, f))
    if isinstance(image, quotient_mod.CyclicImage):
        return decimal(image.value)
    return nf.format_element(image.element)


def _cmd_classify(args) -> str:
    return str(classify_mod.classify_relation(args.left, args.right))


def _cmd_infer(args) -> str:
    rels = []
    for text in args.rels:
        lhs, sep, rhs = text.partition("=")
        if not sep or not lhs or not rhs:
            raise OrthoxError(f"--rel expects U=V, got {text!r}")
        rels.append(Relation(lhs.strip(), rhs.strip()))
    inferred = classify_mod.infer_family(rels)
    if args.format == "json":
        return json.dumps(family_mod.family_to_json(inferred))
    return family_mod.describe(inferred)


def _cmd_verify(args, f: FamilySpec) -> str:
    report = oracle_mod.verify_reducer(f, args.max_len, args.cap,
                                       names=("--max-len", "--cap"))
    if args.format == "json":
        return json.dumps(report.to_json())
    payload = report.to_json()
    lines = [f"agreements: {payload['agreements']}",
             f"mismatches: {len(payload['mismatches'])}"]
    lines.extend(f"  {m['kind']}: {m['left']} vs {m['right']}"
                 for m in payload["mismatches"])
    lines.append(f"cap_warning: {str(payload['cap_warning']).lower()}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
