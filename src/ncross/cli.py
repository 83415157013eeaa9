"""Command-line front end: seeded verification suites and one-shot computes.

verify      run a named suite over a ring and report pass/fail
compute     evaluate one registered operation on a JSON input file
list-suites print the suite registry

Exit codes: 0 all pass, 1 failures or operation errors, 2 usage/parse errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .crossratio import PolarizationQuad, cross_ratio, dv
from .errors import DimensionMismatch, NCError
from .geometry import Point2, collinear
from .jets import Jet
from .linalg import RingMatrix, quasidet
from .pentagram import (Pentad, classical_pentagram, leapfrog_compatible,
                        pentagram_relations_check)
from .plucker import Vec2, qp_left, qp_right
from .scalars import Scalar, ring_by_name, scalar_from_json, scalar_to_json
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
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dump(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_dump(v)}"
                               for k, v in obj.items()) + "}"
    raise TypeError(f"not JSON-serializable: {obj!r}")


def _emit(obj, out_path=None):
    text = _dump(obj) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# input decoding


def _vec2(obj) -> Vec2:
    return Vec2(scalar_from_json(obj["x1"]), scalar_from_json(obj["x2"]))


def _point(obj) -> Point2:
    return Point2(scalar_from_json(obj["x1"]), scalar_from_json(obj["x2"]))


def _matrix(obj) -> RingMatrix:
    m = RingMatrix([[scalar_from_json(v) for v in row]
                    for row in obj["entries"]])
    if m.rows != obj.get("rows", m.rows) or m.cols != obj.get("cols", m.cols):
        raise ValueError("rows/cols fields disagree with entries")
    return m


def _jet(obj) -> Jet:
    coeffs = [scalar_from_json(c) for c in obj["coeffs"]]
    if obj.get("order", len(coeffs) - 1) != len(coeffs) - 1:
        raise ValueError("order field disagrees with coeffs")
    return Jet(coeffs, coeffs[0].ring)


# ---------------------------------------------------------------------------
# compute registry: name -> (input decoder+evaluator) returning JSON-able


def _op_cross_ratio(data):
    vs = [_vec2(v) for v in data["vectors"]]
    if len(vs) != 4:
        raise ValueError("cross_ratio needs exactly 4 vectors")
    return scalar_to_json(cross_ratio(*vs))


def _op_quasidet(data):
    return scalar_to_json(quasidet(_matrix(data["matrix"]),
                                   int(data["p"]), int(data["q"])))


def _qp(data, fn, family, n):
    idx = [int(data[key]) for key in "ijk"]
    if not all(0 <= v < n for v in idx):
        raise IndexError(f"indices {idx} out of range for {n} vectors")
    return scalar_to_json(fn(family, *idx))


def _op_qp_left(data):
    m = _matrix(data["matrix"])
    if m.rows != 2:
        raise DimensionMismatch(f"qp_left needs a 2 x n matrix, not "
                                f"{m.rows} x {m.cols}")
    return _qp(data, qp_left, [m.column(j) for j in range(m.cols)], m.cols)


def _op_qp_right(data):
    m = _matrix(data["matrix"])
    if m.cols != 2:
        raise DimensionMismatch(f"qp_right needs an n x 2 matrix, not "
                                f"{m.rows} x {m.cols}")
    return _qp(data, qp_right, m.entries, m.rows)


def _op_dv(data):
    quad = PolarizationQuad(*(scalar_from_json(data[k])
                              for k in ("P1", "P2", "Q1", "Q2")))
    return scalar_to_json(dv(quad))


def _op_collinear(data):
    pts = [_point(p) for p in data["points"]]
    if len(pts) != 3:
        raise ValueError("collinear needs exactly 3 points")
    return {"collinear": collinear(*pts)}


def _op_schwarzian(data):
    return scalar_to_json(nc_schwarzian(_jet(data)))


def _op_pentagram_classical(data):
    pts = [scalar_from_json(p) for p in data["points"]]
    y, residuals = classical_pentagram(pts)
    return {"y": [scalar_to_json(v) for v in y],
            "residuals": list(residuals)}


def _op_pentagram_nc(data):
    p = Pentad(*(_vec2(v) for v in data["vectors"]))
    rep = pentagram_relations_check(p)
    return {"x": [scalar_to_json(v) for v in rep.x],
            "residuals": list(rep.residuals)}


def _op_leapfrog(data):
    pts = [scalar_from_json(p) for p in data["points"]]
    if len(pts) != 5:
        raise ValueError("leapfrog needs exactly 5 scalars: "
                         "S_{i-1}, S_i, S_{i+1}, S_i^-, S_i^+")
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
    report = run_suite(cfg, workers=args.workers)
    if args.format == "json":
        _emit(report.to_json(), args.out)
    else:
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
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    return 0 if report.passed else 1


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
