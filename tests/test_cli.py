import json

import pytest

from ncross.cli import OPS, _dump, main
from ncross.crossratio import PolarizationQuad, cross_ratio, dv
from ncross.geometry import Point2, collinear
from ncross.jets import Jet
from ncross.linalg import RingMatrix, quasidet
from ncross.pentagram import (Pentad, classical_pentagram, leapfrog_compatible,
                              pentagram_relations_check)
from ncross.plucker import Vec2, qp_left, qp_right
from ncross.scalars import COMPLEX, QUATERNION, Seed, sample, scalar_to_json
from ncross.schwarzian import nc_schwarzian


def rat(n, d=1):
    return {"ring": "rational", "num": n, "den": d}


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def compute(capsys, tmp_path, op, payload):
    path = write(tmp_path, "in.json", payload)
    code = main(["compute", "--op", op, "--input", path])
    return code, capsys.readouterr().out


def test_cross_ratio_four_thirds(capsys, tmp_path):
    vecs = [{"x1": rat(p), "x2": rat(1)} for p in (0, 1, 2, 3)]
    code, out = compute(capsys, tmp_path, "cross_ratio", {"vectors": vecs})
    assert code == 0
    assert json.loads(out) == {"ring": "rational", "num": 4, "den": 3}


def test_quasidet_identity(capsys, tmp_path):
    m = {"entries": [[rat(1), rat(0)], [rat(0), rat(1)]]}
    code, out = compute(capsys, tmp_path, "quasidet",
                        {"matrix": m, "p": 0, "q": 0})
    assert code == 0
    assert json.loads(out) == {"ring": "rational", "num": 1, "den": 1}


def test_malformed_json_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    code = main(["compute", "--op", "cross_ratio", "--input", str(path)])
    assert code == 2
    assert "malformed JSON at line" in capsys.readouterr().err


def test_unknown_op_exit_2(capsys, tmp_path):
    path = write(tmp_path, "in.json", {})
    code = main(["compute", "--op", "frobnicate", "--input", path])
    assert code == 2
    assert "unknown op" in capsys.readouterr().err


def test_operation_error_exit_1(capsys, tmp_path):
    # two points instead of three: structured error object, exit 1
    pts = [{"x1": rat(0), "x2": rat(0)}, {"x1": rat(1), "x2": rat(1)}]
    code, out = compute(capsys, tmp_path, "collinear", {"points": pts})
    assert code == 1
    err = json.loads(out)
    assert err["error"] == "ValueError"
    assert "3 points" in err["message"]


def test_degenerate_input_exit_1(capsys, tmp_path):
    # coincident vectors make the cross-ratio undefined
    v = {"x1": rat(1), "x2": rat(1)}
    code, out = compute(capsys, tmp_path, "cross_ratio", {"vectors": [v] * 4})
    assert code == 1
    assert "error" in json.loads(out)


def test_leapfrog_compute(capsys, tmp_path):
    pts = [rat(-1), rat(0), rat(1), rat(3), rat(-3)]
    code, out = compute(capsys, tmp_path, "leapfrog", {"points": pts})
    assert code == 0
    assert json.loads(out) == {"compatible": True}


def test_pentagram_classical_compute(capsys, tmp_path):
    code, out = compute(capsys, tmp_path, "pentagram_classical",
                        {"points": [rat(p) for p in range(5)]})
    assert code == 0
    doc = json.loads(out)
    assert [c["num"] for c in doc["y"]] == [3, 1, 8, 1, 3]
    assert [c["den"] for c in doc["y"]] == [1, 2, 1, 2, 1]
    assert doc["residuals"] == [0.0] * 5


def test_missing_subcommand_exit_2(capsys):
    assert main([]) == 2


def test_bad_flag_exit_2(capsys):
    assert main(["verify", "--suite", "menelaus", "--ring", "octonion"]) == 2


def test_list_suites(capsys):
    assert main(["list-suites"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 18
    assert any(line.startswith("plucker-properties") for line in lines)


def test_verify_pass_json(capsys, tmp_path):
    out_path = tmp_path / "rep.json"
    code = main(["verify", "--suite", "dv-equivalence", "--ring", "quaternion",
                 "--trials", "25", "--seed", "7", "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["suite"] == "dv-equivalence"
    assert doc["ring"] == "quaternion"
    assert doc["pass"] is True
    assert doc["trials_run"] >= 24
    assert doc["max_residual"] <= 1e-9


def test_verify_text_format(capsys):
    code = main(["verify", "--suite", "leapfrog", "--ring", "rational",
                 "--trials", "10", "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "pass          True" in out


def test_verify_fail_exit_1(capsys):
    # an impossible tolerance forces failures
    code = main(["verify", "--suite", "crossratio-cocycles",
                 "--ring", "quaternion", "--trials", "10", "--tol", "1e-30"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False
    assert doc["failures"] or doc["notes"]


@pytest.mark.parametrize("tol", ["nan", "0", "-1.0"])
def test_verify_bad_tol_exit_2(capsys, tol):
    code = main(["verify", "--suite", "dv-cocycle", "--trials", "5",
                 "--tol", tol])
    assert code == 2
    assert "tol must be positive" in capsys.readouterr().err


def test_verify_unknown_suite_exit_1(capsys):
    assert main(["verify", "--suite", "no-such-suite", "--trials", "5"]) == 1
    assert "UnknownSuite" in capsys.readouterr().err


def test_verify_unsupported_ring_exit_1(capsys):
    code = main(["verify", "--suite", "pentagram-classical",
                 "--ring", "quaternion", "--trials", "5"])
    assert code == 1
    assert "UnsupportedRingForSuite" in capsys.readouterr().err


def test_verify_deterministic_output(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = main(["verify", "--suite", "plucker-properties",
                     "--ring", "quaternion", "--trials", "30",
                     "--seed", "11", "--out", str(p)])
        assert code == 0
    docs = [json.loads(p.read_text()) for p in paths]
    for d in docs:
        d.pop("wall_time")
    assert docs[0] == docs[1]


def test_verify_parallel_matches_serial(capsys, tmp_path):
    docs = []
    for workers in ("1", "4"):
        p = tmp_path / f"w{workers}.json"
        main(["verify", "--suite", "crossratio-cocycles", "--ring",
              "quaternion", "--trials", "40", "--seed", "3",
              "--workers", workers, "--out", str(p)])
        doc = json.loads(p.read_text())
        doc.pop("wall_time")
        docs.append(doc)
    assert docs[0] == docs[1]


# ---------------------------------------------------------------------------
# every compute op against the library call it wraps


def qs(n, seed=5):
    return [sample(QUATERNION, Seed(seed, k)) for k in range(n)]


def pair(a, b):
    return {"x1": scalar_to_json(a), "x2": scalar_to_json(b)}


def grid(rows):
    return {"entries": [[scalar_to_json(v) for v in row] for row in rows]}


def _case_cross_ratio():
    s = qs(8)
    return ({"vectors": [pair(s[2 * k], s[2 * k + 1]) for k in range(4)]},
            scalar_to_json(cross_ratio(*(Vec2(s[2 * k], s[2 * k + 1])
                                         for k in range(4)))))


def _case_quasidet():
    rows = [qs(9)[3 * r:3 * r + 3] for r in range(3)]
    return ({"matrix": grid(rows), "p": 1, "q": 2},
            scalar_to_json(quasidet(RingMatrix(rows), 1, 2)))


def _case_qp_left():
    s = qs(8)
    rows = [s[:4], s[4:]]
    cols = [Vec2(rows[0][j], rows[1][j]) for j in range(4)]
    return ({"matrix": grid(rows), "i": 3, "j": 0, "k": 1},
            scalar_to_json(qp_left(cols, 3, 0, 1)))


def _case_qp_right():
    s = qs(8)
    rows = [s[2 * r:2 * r + 2] for r in range(4)]
    return ({"matrix": grid(rows), "i": 0, "j": 2, "k": 3},
            scalar_to_json(qp_right(rows, 0, 2, 3)))


def _case_dv():
    s = qs(4)
    return (dict(zip(("P1", "P2", "Q1", "Q2"), map(scalar_to_json, s))),
            scalar_to_json(dv(PolarizationQuad(*s))))


def _case_collinear():
    s = qs(6)
    pts = [Point2(s[2 * k], s[2 * k + 1]) for k in range(3)]
    return ({"points": [pair(p.x1, p.x2) for p in pts]},
            {"collinear": collinear(*pts)})


def _case_nc_schwarzian():
    s = qs(5)
    return ({"coeffs": [scalar_to_json(v) for v in s]},
            scalar_to_json(nc_schwarzian(Jet(s, QUATERNION))))


def _case_pentagram_classical():
    s = [sample(COMPLEX, Seed(5, k)) for k in range(5)]
    y, res = classical_pentagram(s)
    return ({"points": [scalar_to_json(v) for v in s]},
            {"y": [scalar_to_json(v) for v in y], "residuals": list(res)})


def _case_pentagram_nc():
    s = qs(10)
    vecs = [Vec2(s[2 * k], s[2 * k + 1]) for k in range(5)]
    rep = pentagram_relations_check(Pentad(*vecs))
    return ({"vectors": [pair(v.x1, v.x2) for v in vecs]},
            {"x": [scalar_to_json(v) for v in rep.x],
             "residuals": list(rep.residuals)})


def _case_leapfrog():
    s = qs(5)
    return ({"points": [scalar_to_json(v) for v in s]},
            {"compatible": leapfrog_compatible(*s)})


OP_CASES = {
    "cross_ratio": _case_cross_ratio,
    "quasidet": _case_quasidet,
    "qp_left": _case_qp_left,
    "qp_right": _case_qp_right,
    "dv": _case_dv,
    "collinear": _case_collinear,
    "nc_schwarzian": _case_nc_schwarzian,
    "pentagram_classical": _case_pentagram_classical,
    "pentagram_nc": _case_pentagram_nc,
    "leapfrog": _case_leapfrog,
}


def test_op_cases_cover_every_op():
    assert set(OP_CASES) == set(OPS)


@pytest.mark.parametrize("op", sorted(OP_CASES))
def test_compute_matches_library(capsys, tmp_path, op):
    payload, expected = OP_CASES[op]()
    code, out = compute(capsys, tmp_path, op, payload)
    assert code == 0, out
    assert json.loads(out) == expected


@pytest.mark.parametrize("op, shape", [("qp_left", (3, 4)), ("qp_left", (4, 2)),
                                       ("qp_right", (2, 4)), ("qp_right", (4, 3))])
def test_qp_wrong_shape_exit_1(capsys, tmp_path, op, shape):
    s = qs(shape[0] * shape[1])
    rows = [s[r * shape[1]:(r + 1) * shape[1]] for r in range(shape[0])]
    code, out = compute(capsys, tmp_path, op,
                        {"matrix": grid(rows), "i": 0, "j": 1, "k": 2})
    assert code == 1
    assert json.loads(out)["error"] == "DimensionMismatch"


@pytest.mark.parametrize("op, payload", [
    ("qp_left", {"matrix": grid([qs(3), qs(3, 6)]), "i": 0, "j": 1, "k": 3}),
    ("qp_right", {"matrix": grid([qs(2), qs(2, 6), qs(2, 7)]),
                  "i": -1, "j": 0, "k": 1}),
    ("quasidet", {"matrix": grid([qs(2), qs(2, 6)]), "p": 5, "q": 0}),
])
def test_index_out_of_range_exit_1(capsys, tmp_path, op, payload):
    code, out = compute(capsys, tmp_path, op, payload)
    assert code == 1
    assert json.loads(out)["error"] == "IndexError"


@pytest.mark.parametrize("bad", [
    {"ring": "quaternion", "coeffs": [float("nan"), 0.0, 0.0, 1.0]},
    {"ring": "complex", "re": 1.0, "im": float("inf")},
    {"ring": "matrix", "entries": [[1.0, 0.0], [0.0, float("nan")]]},
    {"ring": "rational", "num": 1, "den": 0},
])
def test_non_finite_or_undefined_input_exit_1(capsys, tmp_path, bad):
    v = {"x1": bad, "x2": bad}
    code, out = compute(capsys, tmp_path, "cross_ratio", {"vectors": [v] * 4})
    assert code == 1
    assert set(json.loads(out)) == {"error", "message"}


def test_dump_rejects_non_finite():
    assert _dump({"a": [1.5, None, True]}) == '{"a": [1.5, null, true]}'
    for x in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            _dump({"residual": x})


def test_verify_skip_policy_fail_is_valid_json(capsys):
    code = main(["verify", "--suite", "gauge-theorem", "--ring", "matrix",
                 "--trials", "60", "--seed", "0", "--skip-policy", "fail"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["trials_skipped"] > 0
    skipped = [f for f in doc["failures"] if f["residual"] is None]
    assert len(skipped) == doc["trials_skipped"]
    assert all(f["inputs"] for f in skipped)
