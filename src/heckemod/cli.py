"""Command-line interface: enumeration, construction, verification,
classification and twisting, with JSON files in and JSON on stdout.

Exit codes: 0 success; 1 malformed input or usage; 2 mathematical rejection
(invalid shape, failed weight condition); 3 verification failure or internal
fault, named on stderr without a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import classify as cl
from . import modules as md
from . import shapes as sh
from .cyclo import fraction_from_str, fraction_to_str
from .errors import ConditionFailed, HeckemodError, NotScalar, NotStandard, ShapeError


# suite builds and verifies every shape: at ell = 1009 and n = 2 there are
# 511 563 of them, while ell = 16 up to n = 3 takes about a second
_SUITE_MAX_ELL = 16
# shapes counts before it lists (100 000 shapes take about 7 s and 475 MB),
# and ell = 100003 gives 5 000 550 012 shapes at n = 2 and window 2
_SHAPES_MAX_COUNT = 50_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on malformed flags, not argparse's 2
        raise _UsageError(message)


def _int_at_least(low: int, high: int | None = None):
    """argparse type: an integer of at least ``low`` and, if given, at most ``high``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return parse


def _rational(text: str) -> Fraction:
    """argparse type: a rational, read as in the JSON formats."""
    try:
        return fraction_from_str(text, "KAPPA")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _emit(data) -> None:
    sys.stdout.write(json.dumps(data, indent=2) + "\n")  # whole, or nothing on a failure


def _load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _load_shape(path: str) -> sh.SkewShapeL:
    return sh.shape_from_json(_load_json(path))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_shapes(args) -> int:
    catalog = sh._one_coordinate_catalog(args.n, args.window)  # built once for both
    count = sh._count_of(args.ell, args.n, catalog)
    if count > _SHAPES_MAX_COUNT:
        raise _UsageError(f"argument --ell: ell={args.ell}, n={args.n} and window="
                          f"{args.window} give {count} shapes, more than the "
                          f"{_SHAPES_MAX_COUNT} that shapes lists")
    shapes = sh._shapes_of(args.ell, args.n, catalog)
    del catalog  # not held while the JSON is written
    _emit({"ell": args.ell, "n": args.n, "window": args.window,
           "count": len(shapes), "shapes": [sh.shape_to_json(s) for s in shapes]})
    return 0


def _cmd_syt(args) -> int:
    shape = _load_shape(args.shape)
    tableaux = sh.enumerate_syt(shape)
    data = {"shape": sh.shape_to_json(shape), "count": len(tableaux),
            "tableaux": [sh.tableau_to_json(t) for t in tableaux]}
    parts = sh.partitions_of(shape)
    if parts is not None:
        data["hook_dimension"] = sh.hook_dimension(shape.ell, parts)
    _emit(data)
    return 0


def _cmd_build(args) -> int:
    module = md.build_module(_load_shape(args.shape))
    dump = args.dump_matrices or args.dense
    _emit(md.module_to_json(module, include_matrices=dump, dense=args.dense))
    return 0


def _cmd_verify(args) -> int:
    shape = _load_shape(args.shape)
    module = md.build_module(shape)
    data = {"relations": md.verify_relations(module).to_json()}
    ok = data["relations"]["ok"]
    if args.intertwiners:
        data["intertwiners"] = md.verify_intertwiners(module).to_json()
        ok = ok and data["intertwiners"]["ok"]
    if args.jm:
        data["jucys_murphy"] = md.jm_consistency(module).to_json()
        ok = ok and data["jucys_murphy"]["ok"]
    if args.commutant:
        dim = md.commutant_dimension(module)
        data["commutant_dimension"] = dim
        data["irreducible"] = dim == 1
        ok = ok and dim == 1
    data["ok"] = ok
    _emit(data)
    return 0 if ok else 3


def _cmd_classify(args) -> int:
    weight, ell = sh.weight_from_json(_load_json(args.weight))
    try:
        shape, tableau = cl.reconstruct(weight, ell)
    except ConditionFailed as exc:
        _emit({"rejected": exc.violation.to_json()})
        return 2
    _emit({"shape": sh.shape_to_json(shape), "tableau": sh.tableau_to_json(tableau)})
    return 0


def _cmd_twist(args) -> int:
    shape = _load_shape(args.shape)
    module = md.build_module(shape)
    if args.t is not None:
        twisted = md.twist(module, "t", args.t)
        auto = {"kind": "t", "kappa": fraction_to_str(args.t)}
    else:
        twisted = md.twist(module, "rho")
        auto = {"kind": "rho"}
    reconstructed = {cl.reconstruct(w, shape.ell)[0] for w in twisted.weights}
    if len(reconstructed) != 1:
        raise NotScalar("twisted module weights classify to several shapes")
    _emit({"automorphism": auto,
           "input_shape": sh.shape_to_json(shape),
           "twisted_shape": sh.shape_to_json(next(iter(reconstructed)))})
    return 0


def _cmd_jm_check(args) -> int:
    module = md.build_module(_load_shape(args.shape))
    report = md.jm_consistency(module)
    _emit(report.to_json())
    return 0 if report.ok else 3


def _cmd_suite(args) -> int:
    rows = []
    all_ok = True
    for n in range(1, args.max_n + 1):
        shapes = sh.enumerate_shapes(args.ell, n, n)
        partition_count = 0
        fails = dict.fromkeys(("relations", "intertwiners", "commutant", "central_character",
                               "roundtrip", "jucys_murphy", "hook_dimension"), 0)
        for shape in shapes:
            module = md.build_module(shape)
            fails["relations"] += not md.verify_relations(module).ok
            fails["intertwiners"] += not md.verify_intertwiners(module).ok
            fails["commutant"] += md.commutant_dimension(module) != 1
            try:
                md.central_character(module)
            except NotScalar:
                fails["central_character"] += 1
            fails["roundtrip"] += not cl.classify_roundtrip(shape).ok
            parts = sh.partitions_of(shape)
            if parts is not None:
                partition_count += 1
                fails["jucys_murphy"] += not md.jm_consistency(module).ok
                fails["hook_dimension"] += sh.hook_dimension(shape.ell, parts) != module.dim
        for check, failed in fails.items():
            partitions_only = check in ("jucys_murphy", "hook_dimension")
            count = partition_count if partitions_only else len(shapes)
            if count:
                all_ok = all_ok and not failed
                rows.append((check, n, count, f"FAIL ({failed})" if failed else "pass"))
    width = max(len(r[0]) for r in rows)
    print(f"{'check'.ljust(width)}  n  shapes  result")
    for check, n, count, result in rows:
        print(f"{check.ljust(width)}  {n}  {count:6d}  {result}")
    print(f"suite: {'pass' if all_ok else 'FAIL'} (ell={args.ell}, n<={args.max_n})")
    return 0 if all_ok else 3


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="heckemod",
                     description="Exact seminormal modules on skew tableaux: "
                                 "build, verify, classify, twist.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shapes", help="enumerate canonical shapes")
    p.add_argument("--ell", type=_int_at_least(1), required=True)
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--window", type=_int_at_least(0), required=True)
    p.set_defaults(func=_cmd_shapes)

    p = sub.add_parser("syt", help="list standard tableaux of a shape")
    p.add_argument("--shape", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_syt)

    p = sub.add_parser("build", help="construct the module of a shape")
    p.add_argument("--shape", required=True, metavar="FILE")
    p.add_argument("--dump-matrices", action="store_true")
    p.add_argument("--dense", action="store_true",
                   help="dump matrices densely (implies --dump-matrices)")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="check the defining relations")
    p.add_argument("--shape", required=True, metavar="FILE")
    p.add_argument("--intertwiners", action="store_true")
    p.add_argument("--jm", action="store_true",
                   help="also compare Jucys-Murphy sums with the u-action")
    p.add_argument("--commutant", action="store_true",
                   help="also compute the commutant dimension")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classify", help="reconstruct shape and tableau from a weight")
    p.add_argument("--weight", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("twist", help="classify an automorphism twist of a module")
    p.add_argument("--shape", required=True, metavar="FILE")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", metavar="KAPPA", type=_rational,
                       help="shift contents by the rational KAPPA")
    group.add_argument("--rho", action="store_true", help="reverse indices")
    p.set_defaults(func=_cmd_twist)

    p = sub.add_parser("jm-check", help="Jucys-Murphy consistency for a partition shape")
    p.add_argument("--shape", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_jm_check)

    p = sub.add_parser("suite", help="run the verification corpus")
    p.add_argument("--ell", type=_int_at_least(1, _SUITE_MAX_ELL), required=True,
                   help=f"at most {_SUITE_MAX_ELL}: every shape is built and verified")
    p.add_argument("--max-n", type=_int_at_least(1), required=True)
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    args = None
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ShapeError, NotStandard) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 2
    except HeckemodError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: malformed input: {exc!r}", file=sys.stderr)
        return 1
    except Exception as exc:  # a fault of the program, not of its input
        command = args.command if args else "heckemod"
        print(f"internal fault in '{command}': {exc!r}", file=sys.stderr)
        return 3


def console_main(argv=None) -> None:
    raise SystemExit(main(argv))
