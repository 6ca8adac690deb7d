"""Command-line front end.

Exit codes: 0 success / certificate found, 1 predicate failure (witness
JSON on stdout), 2 schema or input errors (one `schema error: <path>: ...`
or `input error (<kind>): ...` line on stderr), 3 model-relative search
exhaustion or `level budget exhausted: ...`.  All JSON payloads carry
schema_version and are byte-identical across runs for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import jsonio
from .covers import DELTA, FULL_NERVE, delta_subcomplex, nerve, unindexed_delta
from .dimension import (
    CRefinement,
    dim_oracle,
    mu_driver,
    n_plus_one,
    omega,
    omega_plus_one,
    ostrand_refine,
    search_c_refinement,
    verify_c_refinement,
)
from .errors import (
    LevelBudgetExceeded,
    PolycoverError,
    SchemaError,
    SkeletonViolation,
    WitnessFailure,
)
from .realization import PolyhedralSpace
from .selections import (
    DEFAULT_MAX_LEVEL,
    build_canonical,
    cone_extend,
    extract_c_refinement,
    is_skeletal_selection,
    why_not_canonical,
    why_not_selection,
)
from .selftest import format_table, run_corpus


def _read_json(path: str, what: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as err:
        raise SchemaError(what, f"cannot read {path!r}: {err.strerror}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(what, f"invalid JSON at line {err.lineno}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _kappa_arg(value: str):
    if value in ("omega", "w"):
        return None
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError("kappa is an integer or 'omega'") from None


def _mode_arg(value: str):
    if value == "c":
        return omega_plus_one()
    if value == "finite-c":
        return omega()
    if value.startswith("dim:"):
        try:
            return n_plus_one(int(value[4:]))
        except ValueError:
            raise argparse.ArgumentTypeError("dimension mode is dim:<n>") from None
    raise argparse.ArgumentTypeError("mode is one of c, finite-c, dim:<n>")


def _shared(*names, **options) -> argparse.ArgumentParser:
    """A parent parser declaring one option that several commands share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **options)
    return parent


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycover",
        description="Exact nerves, canonical maps, selections, and disjoint "
        "refinements of star-set covers on compact polyhedra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = _shared("--out", default=None)
    cover = _shared("--cover", required=True, help="cover JSON file, or -")
    prefix = _shared("--kappa", type=_kappa_arg, default=None)
    max_level = _shared("--max-level", type=int, default=DEFAULT_MAX_LEVEL)

    p = sub.add_parser("complex", help="validate a complex and emit its closure",
                       parents=[out])
    p.set_defaults(run=_cmd_complex)
    p.add_argument("input", help="complex JSON file, or - for stdin")
    p.add_argument("--format", choices=("json", "dot"), default="json")

    for name, help_text in (
        ("nerve", "the nerve of a cover prefix"),
        ("delta", "the one-vertex-per-level subcomplex of the nerve"),
    ):
        p = sub.add_parser(name, help=help_text, parents=[cover, prefix, out])
        p.set_defaults(run=_cmd_nerve)
        p.add_argument("--unindexed", action="store_true",
                       help="use deduplicated raw point sets (counterexample variant)")
        p.add_argument("--format", choices=("json", "dot"), default="json")

    p = sub.add_parser("canonical", help="build a canonical map for a cover prefix",
                       parents=[cover, prefix, max_level, out])
    p.set_defaults(run=_cmd_canonical)
    p.add_argument("--target", choices=(DELTA, "nerve"), default=DELTA)

    p = sub.add_parser("selection", help="check predicates of a map against a cover",
                       parents=[cover, prefix, out])
    p.set_defaults(run=_cmd_selection)
    p.add_argument("--map", required=True, dest="map_file")
    p.add_argument(
        "--predicate",
        choices=("canonical", "selection", "both", "skeletal"),
        default="both",
    )
    p.add_argument("--tables", default=None, help="carrier tables JSON (skeletal)")

    p = sub.add_parser("crefine", help="construct, search, verify, or extract refinements")
    p.set_defaults(run=_cmd_crefine)
    action = p.add_subparsers(dest="action", required=True)

    a = action.add_parser("construct", help="barycenter dimension-class families",
                          parents=[cover, max_level, out])
    a.add_argument("--n", type=int, required=True, help="builds n+1 families")

    a = action.add_parser("search", help="exhaustive bounded-level search",
                          parents=[cover, out])
    a.add_argument("--kappa", type=int, required=True)
    a.add_argument("--max-level", type=int, required=True)
    a.add_argument("--min-level", type=int, default=0)

    a = action.add_parser("verify", help="check the three refinement invariants",
                          parents=[cover, out])
    a.add_argument("--refinement", required=True)

    a = action.add_parser("extract", help="star-set fibers of a canonical map",
                          parents=[cover, prefix, out])
    a.add_argument("--map", required=True, dest="map_file")

    p = sub.add_parser("dim", help="covering dimension of a complex", parents=[out])
    p.set_defaults(run=_cmd_dim)
    p.add_argument("input")

    p = sub.add_parser("cone-extend", help="extend a map over a cone via a witness",
                       parents=[out])
    p.set_defaults(run=_cmd_cone_extend)
    p.add_argument("input")

    p = sub.add_parser("mu-driver", help="run both equivalence directions",
                       parents=[max_level, out])
    p.set_defaults(run=_cmd_mu_driver)
    p.add_argument("cover")
    p.add_argument("--mode", "--mu", type=_mode_arg, required=True)

    p = sub.add_parser("selftest", help="run the fixture corpus", parents=[out])
    p.set_defaults(run=_cmd_selftest)
    return parser


def _cmd_complex(args) -> int:
    c = jsonio.complex_from_json(_read_json(args.input, "input"))
    if args.format == "dot":
        _emit(jsonio.complex_to_dot(c), args.out)
    else:
        _emit(jsonio.dumps(jsonio.complex_to_json(c)), args.out)
    return 0


def _cmd_nerve(args) -> int:
    kind = FULL_NERVE if args.command == "nerve" else DELTA
    cs = jsonio.cover_from_json(_read_json(args.cover, "cover"))
    if args.unindexed:
        if kind != DELTA:
            raise SchemaError("--unindexed", "only the delta command supports it")
        c = unindexed_delta(cs, args.kappa)
        if args.format == "dot":
            raise SchemaError("--format", "unindexed output is JSON only")
        _emit(jsonio.dumps(jsonio.unindexed_to_json(c)), args.out)
        return 0
    built = nerve(cs, args.kappa) if kind == FULL_NERVE else delta_subcomplex(cs, args.kappa)
    if args.format == "dot":
        _emit(jsonio.nerve_to_dot(built, kind), args.out)
    else:
        _emit(jsonio.dumps(jsonio.nerve_to_json(built, kind)), args.out)
    return 0


def _cmd_canonical(args) -> int:
    cs = jsonio.cover_from_json(_read_json(args.cover, "cover"))
    f = build_canonical(cs, args.kappa, args.target, args.max_level)
    _emit(jsonio.dumps(jsonio.canonical_map_to_json(f)), args.out)
    return 0


def _cmd_selection(args) -> int:
    cs = jsonio.cover_from_json(_read_json(args.cover, "cover"))
    if args.predicate == "skeletal":
        if args.tables is None:
            raise SchemaError("--tables", "the skeletal predicate needs carrier tables")
        if args.kappa is not None:
            raise SchemaError("--kappa", "the skeletal predicate reads every cover level")
        phi = jsonio.tables_from_json(cs.space, _read_json(args.tables, "tables"))
        f = jsonio.delta_map_from_json(
            cs, phi.target, _read_json(args.map_file, "map")
        )
        ok = is_skeletal_selection(f, cs, phi)
        witness = None if ok else {"reason": "some skeleton image leaves its table"}
    else:
        f = jsonio.canonical_map_from_json(
            cs, _read_json(args.map_file, "map"), kappa=args.kappa
        )
        witness = None
        ok = True
        if args.predicate in ("canonical", "both") and ok:
            witness = why_not_canonical(f, cs, args.kappa)
            ok = witness is None
        if args.predicate in ("selection", "both") and ok:
            witness = why_not_selection(f, cs, args.kappa)
            ok = witness is None
    _emit(jsonio.dumps({"ok": ok, "witness": witness}), args.out)
    return 0 if ok else 1


def _cmd_crefine(args) -> int:
    cs = jsonio.cover_from_json(_read_json(args.cover, "cover"))
    if args.action == "construct":
        r = ostrand_refine(cs, args.n, args.max_level)
        _emit(jsonio.dumps(jsonio.refinement_to_json(r)), args.out)
        return 0
    if args.action == "search":
        result = search_c_refinement(cs, args.kappa, args.max_level, args.min_level)
        _emit(jsonio.dumps(jsonio.search_to_json(result)), args.out)
        return 0 if result.status == "found" else 3
    if args.action == "verify":
        r = jsonio.refinement_from_json(cs, _read_json(args.refinement, "refinement"))
        report = verify_c_refinement(r)
        _emit(jsonio.dumps(jsonio.report_to_json(report)), args.out)
        return 0 if report.ok else 1
    f = jsonio.canonical_map_from_json(
        cs, _read_json(args.map_file, "map"), kappa=args.kappa
    )
    families = extract_c_refinement(f, cs, args.kappa)
    kappa = args.kappa if args.kappa is not None else cs.num_levels
    r = CRefinement(tuple(families), kappa, cs)
    _emit(jsonio.dumps(jsonio.refinement_to_json(r)), args.out)
    return 0


def _cmd_dim(args) -> int:
    c = jsonio.complex_from_json(_read_json(args.input, "input"))
    _emit(jsonio.dumps({"dim": dim_oracle(PolyhedralSpace(c))}), args.out)
    return 0


def _cmd_cone_extend(args) -> int:
    doc = jsonio.cone_input_from_json(_read_json(args.input, "input"))
    try:
        h = cone_extend(
            doc["map"], doc["new_vertex"], doc["witness"], doc["chain"]
        )
    except (WitnessFailure, SkeletonViolation) as err:
        _emit(jsonio.dumps({"ok": False, "witness": {"reason": str(err)}}), args.out)
        return 1
    _emit(jsonio.dumps(jsonio.simplicial_map_to_json(h)), args.out)
    return 0


def _cmd_mu_driver(args) -> int:
    cs = jsonio.cover_from_json(_read_json(args.cover, "cover"))
    try:
        report = mu_driver(cs, args.mode, args.max_level)
    except LevelBudgetExceeded as budget:
        _emit(jsonio.dumps(jsonio.mu_report_to_json(budget.report)), args.out)
        return 3
    _emit(jsonio.dumps(jsonio.mu_report_to_json(report)), args.out)
    if report.success:
        return 0
    return 3 if report.search_status == "exhausted" else 1


def _cmd_selftest(args) -> int:
    rows, ok = run_corpus()
    _emit(format_table(rows), args.out)
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except SchemaError as err:
        sys.stderr.write(f"schema error: {err}\n")
        return 2
    except LevelBudgetExceeded as err:
        sys.stderr.write(f"level budget exhausted: {err}\n")
        return 3
    except PolycoverError as err:
        sys.stderr.write(f"input error ({type(err).__name__}): {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
