"""Command-line front end.

Subcommands: table (run an engine on a sequence file), integrate (the
semi-infinite integral driver), bench (operation counts), check (the
exact consistency suite).  Machine output is strict JSON on stdout;
diagnostics go to stderr only; table and integrate can render text
instead (--format, --full).  Exit codes: 0 success, 2 input/parse error
(an --output file that cannot be written included), 3 when no entry
beyond column 0 is valid and at least one of them broke down, 64 usage
error (a size above its MAX_* cap included).  JSON is laid out byte for
byte as json.dumps(indent=2) lays it out.  The parser is built once,
when this module is imported.

A table document is checked here only for its JSON shape; every value is
turned into a number by the chosen field's convert, JSON floats as their
literal text, so the CLI refuses exactly what the field refuses.  An exact
result longer than the interpreter's digit limit for writing an int (4300
by default) is an input error too.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, List, Optional

from .crosscheck import run_equivalence_suite
from .engines import METHODS, accelerate
from .opbench import MIN_L, bench_method
from .quadrature import QuadratureConfig, g_transform, make_spec
from .scalars import FloatField, ParseError, RationalField
from .tables import (ArgumentError, EntryStatus, ExtrapolationTable,
                     InitializationError)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ALL_BREAKDOWN = 3
EXIT_USAGE = 64

# Caps on the size of one call, refused as usage errors before any work.
# Engine time and memory grow as L^2: float fsqd takes about a second at
# L = 500, and a counting run there makes 11 times the operations of one
# at L = 150, a few seconds.  integrate writes (L+1)(L+2)/2 table rows,
# about 13 MB of JSON at L = 500.  Sampling makes n_max times
# --subdivisions integrand calls; Simpson with 4096 subdivisions on a
# unit panel is below double rounding for a smooth integrand.  A table
# document's A holds L+1 values in general mode: integrate's largest
# table.  check takes about 27 ms a case at L = 5: 14 s for 500 cases.
MAX_TABLE_VALUES = 501
MAX_N_MAX = 500
MAX_SUBDIVISIONS = 4096
MAX_BENCH_L = 500
MAX_CHECK_CASES = 500


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64, and a token
    that starts like a negative number (-1e3, -.5, -inf) read as a value:
    older argparse reads only -123 and -1.5 as one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.I)

    def error(self, message):
        raise ArgumentError(message)


class _InputError(Exception):
    pass


def _load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=str, parse_constant=str)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # Besides json.JSONDecodeError: an integer literal longer than the
        # interpreter's digit limit for int parsing, or nesting deeper
        # than its recursion limit.
        raise _InputError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise _InputError(f"{path}: top level must be an object")
    return doc


def _parse_values(raw, field_name: str, fld) -> list:
    """A document list of numbers, each turned into one by fld.convert.

    The document is loaded with every JSON float literal, NaN and
    Infinity kept as its text, so a literal is read at face value (0.1
    means 1/10 and 1e400 means 10**400 in exact mode), and NaN, Infinity
    and, in float mode, an overflowing literal such as 1e400 fail to
    parse.
    """
    if not isinstance(raw, list) or not raw:
        raise _InputError(f"field {field_name!r} must be a non-empty list")
    out = []
    for i, v in enumerate(raw):
        # bool is an int subclass, but not a number in a document.
        if isinstance(v, bool) or not isinstance(v, (str, int)):
            raise _InputError(
                f"{field_name}[{i}]: unsupported type {type(v).__name__}"
            )
        try:
            out.append(fld.convert(v))
        except ParseError as exc:
            raise _InputError(f"{field_name}[{i}]: {exc}") from None
    return out


def _table_document(table: ExtrapolationTable, exact: bool) -> Dict[str, Any]:
    write = str if exact else float
    valid = EntryStatus.VALID.value
    try:
        rows = [{"j": j, "n": n, "value": None, "status": slot.value}
                if isinstance(slot, EntryStatus) else
                {"j": j, "n": n, "value": write(slot), "status": valid}
                for j, n, slot in table.slots()]
    except ValueError:  # str() of an int longer than the digit limit
        raise _InputError(
            f"an exact value has more than {sys.get_int_max_str_digits()} "
            "digits, the limit for writing an integer"
        ) from None
    return {"method": table.method, "L": table.limit, "table": rows,
            "diagonal": [row["value"] for row in rows if row["j"] == 0]}


# The JSON writer.  json.dumps runs its C encoder only without indent, so
# the indent=2 layout is built here from compact encodings of the leaves.
_STRICT = json.JSONEncoder(allow_nan=False).encode
_SCALAR = (str, int, float)
_ROW_KEYS = ("j", "n", "value", "status")
_ROW = ('    {\n      "j": %s,\n      "n": %s,\n      "value": %s,\n'
        '      "status": %s\n    }')


def _leaf(v) -> str:
    """A JSON scalar as json.dumps writes it.  A float that is not finite
    raises ValueError, a container TypeError."""
    if type(v) is float and math.isfinite(v):
        return repr(v)
    if v is None:
        return "null"
    if type(v) is int:
        return repr(v)
    if type(v) is str:
        return encode_basestring_ascii(v)
    if isinstance(v, _SCALAR):
        return _STRICT(v)
    raise TypeError(f"not a JSON scalar: {type(v).__name__}")


def _member(v) -> str:
    """One value of the top-level object, as json.dumps(indent=2) writes
    it there.  A list of table rows fills a row template; a list of
    scalars is joined at its indent; a container that holds a container
    is written by json.dumps and indented one level (a JSON string holds
    no raw newline, so every newline is the layout's)."""
    try:
        if type(v) is not list:
            return _leaf(v)
        if v and all(type(r) is dict and tuple(r) == _ROW_KEYS for r in v):
            return "[\n" + ",\n".join([
                _ROW % (_leaf(r["j"]), _leaf(r["n"]), _leaf(r["value"]),
                        _leaf(r["status"]))
                for r in v]) + "\n  ]"
        if v:
            return "[\n    " + ",\n    ".join(map(_leaf, v)) + "\n  ]"
    except TypeError:
        pass
    return json.dumps(v, indent=2, allow_nan=False).replace("\n", "\n  ")


def _dumps(doc: Dict[str, Any]) -> str:
    """json.dumps(doc, indent=2, allow_nan=False), byte for byte, for an
    object with string keys."""
    if not doc:
        return "{}"
    return "{\n" + ",\n".join([
        f"  {encode_basestring_ascii(key)}: {_member(v)}"
        for key, v in doc.items()]) + "\n}"


def _emit(doc: Dict[str, Any], args) -> None:
    if getattr(args, "format", "json") == "text":
        payload = _render_text(doc, full=args.full)
    else:
        # A non-finite number raises ValueError rather than being written
        # as a NaN or Infinity token, which is not JSON.
        payload = _dumps(doc) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise _InputError(f"cannot write {args.output}: {exc}") from None
    else:
        sys.stdout.write(payload)


def _render_text(doc: Dict[str, Any], full: bool) -> str:
    lines = [f"method {doc['method']}  L={doc['L']}"]
    if "x" in doc:
        lines.append(f"x={doc['x']}  h={doc['h']}")
    lines.append("diagonal:")
    errors = doc.get("errors")
    for n, v in enumerate(doc.get("diagonal", [])):
        row = f"  n={n:<3} {v if v is not None else '(unavailable)'}"
        if errors is not None and n < len(errors) and errors[n] is not None:
            row += f"   error {errors[n]:.3e}"
        lines.append(row)
    if doc.get("reference") is not None:
        lines.append(f"reference: {doc['reference']}")
    deltas = doc.get("diagonal_deltas")
    if deltas:
        shown = ", ".join(
            "-" if d is None else f"{d:.3e}" for d in deltas
        )
        lines.append(f"diagonal deltas: {shown}")
    if full and "table" in doc:
        lines.append("table:")
        for row in doc["table"]:
            lines.append(
                f"  ({row['j']},{row['n']}) {row['status']}"
                + (f" {row['value']}" if row["value"] is not None else "")
            )
    return "\n".join(lines) + "\n"


def cmd_table(args) -> int:
    doc = _load_document(args.input)
    if isinstance(doc.get("A"), list) and len(doc["A"]) > MAX_TABLE_VALUES:
        raise ArgumentError(f"a table document's A is capped at "
                            f"{MAX_TABLE_VALUES} values, got {len(doc['A'])}")
    exact = args.exact
    fld = RationalField() if exact else FloatField()
    A = _parse_values(doc.get("A"), "A", fld)
    mode = doc.get("mode")
    has_u = "u" in doc and doc["u"] is not None
    if mode is None:
        mode = "general" if has_u else "shanks"
    if mode not in ("general", "shanks"):
        raise _InputError(f"mode must be 'general' or 'shanks', got {mode!r}")
    if mode == "shanks" and has_u:
        raise _InputError("field 'u' must be absent in shanks mode")
    # Parsed here and checked by accelerate for every method: eps ignores
    # the values of u but refuses a u that breaks the input rule.
    u = _parse_values(doc.get("u"), "u", fld) if mode == "general" else None

    try:
        table = accelerate(args.method, A, u, field=fld)
    except ArgumentError as exc:
        # A holds L+1 values, so only an overlong u is refused here.
        raise _InputError(f"field 'u': {exc}") from None

    out = _table_document(table, exact)
    _emit(out, args)
    if table.broken_beyond_first_column():
        return EXIT_ALL_BREAKDOWN
    return EXIT_OK


def _finite_float(text: str) -> float:
    """argparse type for the integrate limits and spacing."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}"
        )
    return value


def cmd_integrate(args) -> int:
    if args.n_max > MAX_N_MAX:
        raise ArgumentError(f"--n-max is capped at {MAX_N_MAX}, got {args.n_max}")
    if args.subdivisions > MAX_SUBDIVISIONS:
        raise ArgumentError(f"--subdivisions is capped at {MAX_SUBDIVISIONS}, "
                            f"got {args.subdivisions}")
    spec = make_spec(args.integrand, a=args.a)
    cfg = QuadratureConfig(
        subdivisions_per_panel=args.subdivisions,
        analytic_F=args.analytic_f,
    )
    result = g_transform(
        spec, x=args.x, h=args.h, n_max=args.n_max, engine=args.engine, cfg=cfg
    )
    doc = _table_document(result.table, exact=False)
    doc["x"] = args.x
    doc["h"] = args.h
    doc["reference"] = spec.reference
    doc["errors"] = result.errors
    if result.errors is None:
        doc["diagonal_deltas"] = result.diagonal_deltas
    _emit(doc, args)
    if result.table.broken_beyond_first_column():
        return EXIT_ALL_BREAKDOWN
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.L > MAX_BENCH_L:
        raise ArgumentError(f"bench is capped at L <= {MAX_BENCH_L}, got {args.L}")
    doc = asdict(bench_method(args.method, args.L, args.seed))
    doc["seed"] = args.seed
    _emit(doc, args)
    return EXIT_OK


def cmd_check(args) -> int:
    if args.L > 5:
        raise ArgumentError(f"check is capped at L <= 5, got {args.L}")
    if args.L < 1:
        raise ArgumentError(f"L must be >= 1, got {args.L}")
    if args.cases < 1:
        raise ArgumentError(f"cases must be >= 1, got {args.cases}")
    if args.cases > MAX_CHECK_CASES:
        raise ArgumentError(f"check is capped at {MAX_CHECK_CASES} cases, "
                            f"got {args.cases}")
    report = run_equivalence_suite(L=args.L, cases=args.cases, seed=args.seed)
    doc = {
        "cases": report.cases,
        "passed": report.ok,
        "first_counterexample": report.first_counterexample(),
    }
    _emit(doc, args)
    if not report.ok:
        sys.stderr.write(
            f"counterexample: {report.first_counterexample()}\n"
        )
        return 1
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="gtransform", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write the output here instead of stdout")
    render = argparse.ArgumentParser(add_help=False)
    render.add_argument("--format", choices=("json", "text"), default="json")
    render.add_argument("--full", action="store_true",
                        help="text format: include the full table")

    p_table = sub.add_parser("table", help="run an engine on a sequence file",
                             parents=[output, render])
    p_table.add_argument("--input", required=True, help="InputDocument JSON path")
    p_table.add_argument("--method", required=True, choices=METHODS)
    p_table.add_argument("--exact", action="store_true",
                         help="exact rational arithmetic")
    p_table.set_defaults(fn=cmd_table)

    p_int = sub.add_parser("integrate", help="accelerate a semi-infinite integral",
                           parents=[output, render])
    p_int.add_argument("--integrand", required=True,
                       choices=("exp_decay", "t_exp", "sinc"))
    p_int.add_argument("--a", type=_finite_float, default=0.0,
                       help="lower limit")
    p_int.add_argument("--x", type=_finite_float, required=True,
                       help="first sample point")
    p_int.add_argument("--h", type=_finite_float, default=1.0,
                       help="sample spacing")
    p_int.add_argument("--n-max", type=int, required=True, dest="n_max",
                       help=f"transformation order, at most {MAX_N_MAX}")
    p_int.add_argument("--engine", choices=METHODS, default="fsqd")
    p_int.add_argument("--subdivisions", type=int, default=64,
                       help="Simpson subdivisions per panel, at most "
                       f"{MAX_SUBDIVISIONS}")
    p_int.add_argument("--analytic-f", action="store_true", dest="analytic_f",
                       help="use the closed-form running integral when known")
    p_int.set_defaults(fn=cmd_integrate)

    p_bench = sub.add_parser("bench", help="operation-count benchmark",
                             parents=[output])
    p_bench.add_argument("--method", required=True, choices=METHODS)
    p_bench.add_argument("--L", type=int, required=True,
                         help=f"table size, {MIN_L} to {MAX_BENCH_L}")
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.set_defaults(fn=cmd_bench)

    p_check = sub.add_parser("check", help="exact consistency suite",
                             parents=[output])
    p_check.add_argument("--L", type=int, default=4)
    p_check.add_argument("--cases", type=int, default=20,
                         help=f"cases per battery, 1 to {MAX_CHECK_CASES}")
    p_check.add_argument("--seed", type=int, default=7)
    p_check.set_defaults(fn=cmd_check)
    return parser


_PARSER = _build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        # Before Python 3.12 argparse stores "--opt=--" as an empty list.
        if [] in vars(args).values():
            raise ArgumentError("an option was given '--' as its value")
        return args.fn(args)
    except ArgumentError as exc:
        sys.stderr.write(f"gtransform: usage error: {exc}\n")
        return EXIT_USAGE
    except (_InputError, InitializationError, ParseError) as exc:
        sys.stderr.write(f"gtransform: input error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
