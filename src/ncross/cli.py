"""Command-line front end: seeded verification suites and one-shot computes.

verify      run a named suite over a ring and report pass/fail
compute     evaluate one registered operation on a JSON input file
list-suites print the suite registry

Exit codes: 0 all pass, 1 failures or operation errors, 2 usage/parse errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

from .crossratio import PolarizationQuad, cross_ratio, dv
from .errors import DimensionMismatch, NCError
from .geometry import collinear
from .jets import Jet
from .linalg import quasidet
from .pentagram import (Pentad, classical_pentagram, leapfrog_compatible,
                        pentagram_relations_check)
from .plucker import Vec2, qp_left, qp_right
from .scalars import Scalar, scalar_from_json, scalar_to_json
from .schwarzian import nc_schwarzian
from .suites import SuiteConfig, list_suites, run_suite


# ---------------------------------------------------------------------------
# JSON output with a fixed number format (17 significant digits)


def _dump(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"{obj} has no JSON encoding")
        return format(obj, ".17g")
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, Scalar):
        raise TypeError(f"a scalar is encoded by scalar_to_json, not dumped "
                        f"bare: {obj!r}")
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dump(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_dump(v)}"
                               for k, v in obj.items()) + "}"
    raise TypeError(f"not JSON-serializable: {obj!r}")


def _emit(obj, fh=None):
    (fh or sys.stdout).write(_dump(obj) + "\n")


# ---------------------------------------------------------------------------
# input decoding: each value is checked to have the JSON shape its decoder
# reads, so a missing field or a wrong type is a ValueError naming the field
# by its path in the input, such as ``points[0].x2``


def _at(path: str, key) -> str:
    """The path of ``key`` inside the value at ``path``."""
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def _field(obj, path: str, key: str):
    """Field ``key`` of the JSON object at ``path`` ("" for the input)."""
    if not isinstance(obj, dict):
        raise ValueError(f"field {path!r} must be a JSON object" if path
                         else "input must be a JSON object")
    if key not in obj:
        raise ValueError(f"missing field {_at(path, key)!r}")
    return obj[key]


def _seq(value, path: str, decode) -> list:
    """The JSON list at ``path``, decoded entry by entry with
    ``decode(entry, path)``."""
    if not isinstance(value, list):
        raise ValueError(f"field {path!r} must be a list")
    return [decode(v, _at(path, i)) for i, v in enumerate(value)]


def _list(obj, path: str, key: str, decode) -> list:
    return _seq(_field(obj, path, key), _at(path, key), decode)


def _scalar(obj, path: str):
    """The scalar at ``path``; the checks of ``scalar_from_json`` keep
    their own messages."""
    if not isinstance(obj, dict):
        raise ValueError(f"field {path!r} must be a scalar object")
    try:
        return scalar_from_json(obj)
    except KeyError as e:
        raise ValueError(f"missing field {e.args[0]!r} in the scalar at "
                         f"{path!r}") from None
    except TypeError as e:
        raise ValueError(f"malformed scalar at {path!r}: {e}") from None


def _index(data, key: str) -> int:
    """Field ``key``: an integer, or a float with an integral value."""
    v = _field(data, "", key)
    integral = isinstance(v, int) or isinstance(v, float) and v.is_integer()
    if isinstance(v, bool) or not integral:
        raise ValueError(f"field {key!r} must be an integer")
    return int(v)


def _vec2(obj, path: str) -> Vec2:
    return Vec2(*(_scalar(_field(obj, path, key), _at(path, key))
                  for key in ("x1", "x2")))


def _matrix(data) -> list[list]:
    """The rows of the input's JSON ``matrix``: at least one row, all of one
    non-zero length, and agreeing with the optional ``rows``/``cols``
    fields."""
    obj = _field(data, "", "matrix")
    rows = _list(obj, "matrix", "entries",
                 lambda row, path: _seq(row, path, _scalar))
    if not rows:
        raise DimensionMismatch("empty matrix")
    cols = len(rows[0])
    if any(len(r) != cols for r in rows):
        raise DimensionMismatch("ragged rows")
    if not cols:
        raise DimensionMismatch("row 0 has no entries")
    if len(rows) != obj.get("rows", len(rows)) or cols != obj.get("cols", cols):
        raise ValueError("rows/cols fields disagree with entries")
    return rows


def _items(data, key: str, decode, n: int, op: str) -> list:
    """``data[key]`` decoded entry by entry; ``op`` needs exactly ``n``."""
    items = _list(data, "", key, decode)
    if len(items) != n:
        raise ValueError(f"{op} needs exactly {n} {key}")
    return items


def _jet(data) -> Jet:
    coeffs = _list(data, "", "coeffs", _scalar)
    if not coeffs:
        raise ValueError("coeffs needs at least one scalar")
    if data.get("order", len(coeffs) - 1) != len(coeffs) - 1:
        raise ValueError("order field disagrees with coeffs")
    return Jet(coeffs)


# ---------------------------------------------------------------------------
# compute registry: name -> (input decoder+evaluator) returning JSON-able


def _op_cross_ratio(data):
    vs = _items(data, "vectors", _vec2, 4, "cross_ratio")
    return scalar_to_json(cross_ratio(*vs))


def _op_quasidet(data):
    return scalar_to_json(quasidet(_matrix(data), _index(data, "p"),
                                   _index(data, "q")))


def _qp(data, fn, family, n):
    idx = [_index(data, key) for key in "ijk"]
    if not all(0 <= v < n for v in idx):
        raise IndexError(f"indices {idx} out of range for {n} vectors")
    return scalar_to_json(fn(family, *idx))


def _op_qp_left(data):
    rows = _matrix(data)
    if len(rows) != 2:
        raise DimensionMismatch(f"qp_left needs a 2 x n matrix, not "
                                f"{len(rows)} x {len(rows[0])}")
    return _qp(data, qp_left, list(zip(*rows)), len(rows[0]))


def _op_qp_right(data):
    rows = _matrix(data)
    if len(rows[0]) != 2:
        raise DimensionMismatch(f"qp_right needs an n x 2 matrix, not "
                                f"{len(rows)} x {len(rows[0])}")
    return _qp(data, qp_right, rows, len(rows))


def _op_dv(data):
    quad = PolarizationQuad(*(_scalar(_field(data, "", k), k)
                              for k in ("P1", "P2", "Q1", "Q2")))
    return scalar_to_json(dv(quad))


def _op_collinear(data):
    pts = _items(data, "points", _vec2, 3, "collinear")
    return {"collinear": collinear(*pts)}


def _op_schwarzian(data):
    return scalar_to_json(nc_schwarzian(_jet(data)))


def _op_pentagram_classical(data):
    pts = _list(data, "", "points", _scalar)
    y, residuals = classical_pentagram(pts)
    return {"y": [scalar_to_json(v) for v in y],
            "residuals": list(residuals)}


def _op_pentagram_nc(data):
    vs = _items(data, "vectors", _vec2, 5, "pentagram_nc")
    rep = pentagram_relations_check(Pentad(*vs))
    return {"x": [scalar_to_json(v) for v in rep.x],
            "residuals": list(rep.residuals)}


def _op_leapfrog(data):
    pts = _items(data, "points", _scalar, 5, "leapfrog")
    return {"compatible": leapfrog_compatible(*pts)}


OPS = {
    "cross_ratio": _op_cross_ratio,
    "quasidet": _op_quasidet,
    "qp_left": _op_qp_left,
    "qp_right": _op_qp_right,
    "dv": _op_dv,
    "collinear": _op_collinear,
    "nc_schwarzian": _op_schwarzian,
    "pentagram_classical": _op_pentagram_classical,
    "pentagram_nc": _op_pentagram_nc,
    "leapfrog": _op_leapfrog,
}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verify(args) -> int:
    cfg = SuiteConfig(suite=args.suite, ring=args.ring, dim=args.dim,
                      trials=args.trials, seed=args.seed, tol=args.tol,
                      skip_policy=args.skip_policy)
    try:
        # like shell redirection, --out is created or truncated before the
        # run, so an unwritable path fails before any trial is computed
        with (open(args.out, "w") if args.out
              else contextlib.nullcontext(sys.stdout)) as fh:
            report = run_suite(cfg, workers=args.workers)
            if args.format == "json":
                _emit(report.to_json(), fh)
            else:
                fh.write(_text_report(report))
    except OSError as e:
        print(f"cannot write output: {e}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


def _text_report(report) -> str:
    """The report as aligned lines for ``--format text``."""
    lines = [
        f"suite         {report.suite}",
        f"ring          {report.ring}",
        f"trials run    {report.trials_run}",
        f"skipped       {report.trials_skipped}",
        f"max residual  {format(report.max_residual, '.17g')}",
        f"failures      {len(report.failures)}",
        f"pass          {report.passed}",
        f"wall time     {report.wall_time:.3f}s",
    ]
    if report.notes:
        lines.append(f"notes         {report.notes}")
    for f in report.failures[:20]:
        lines.append(f"  trial {f.counter}: " + (
            "skipped" if f.residual is None
            else f"residual {format(f.residual, '.17g')}"))
    return "\n".join(lines) + "\n"


def _cmd_compute(args) -> int:
    try:
        with open(args.input) as fh:
            data = json.load(fh)
    except OSError as e:
        print(f"cannot read input: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"malformed JSON at line {e.lineno} column {e.colno}: {e.msg}",
              file=sys.stderr)
        return 2
    op = OPS.get(args.op)
    if op is None:
        print(f"unknown op {args.op!r}; available: {', '.join(sorted(OPS))}",
              file=sys.stderr)
        return 2
    try:
        _emit(op(data))
    except (NCError, ValueError, KeyError, TypeError, IndexError,
            ArithmeticError) as e:
        _emit({"error": type(e).__name__, "message": str(e)})
        return 1
    return 0


def _cmd_list_suites(args) -> int:
    for name, desc, rings in list_suites():
        print(f"{name:28s} {desc}  [rings: {', '.join(rings)}]")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ncross",
        description="verification suites and computations for "
                    "noncommutative projective invariants")
    sub = parser.add_subparsers(dest="command")

    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument("--suite", required=True)
    pv.add_argument("--ring", default="quaternion",
                    choices=("quaternion", "matrix", "complex", "rational"))
    pv.add_argument("--dim", type=int, default=3,
                    help="matrix scalar dimension (ring=matrix)")
    pv.add_argument("--trials", type=int, default=1000)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--tol", type=float, default=1e-9)
    pv.add_argument("--skip-policy", default="count", choices=("count", "fail"))
    pv.add_argument("--workers", type=int, default=1,
                    help="accepted for compatibility; has no effect, "
                         "trials run serially")
    pv.add_argument("--format", default="json", choices=("json", "text"))
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=_cmd_verify)

    pc = sub.add_parser("compute", help="evaluate one operation on a file")
    pc.add_argument("--op", required=True)
    pc.add_argument("--input", required=True)
    pc.set_defaults(func=_cmd_compute)

    pl = sub.add_parser("list-suites", help="print the suite registry")
    pl.set_defaults(func=_cmd_list_suites)

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except NCError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
