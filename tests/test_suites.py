import dataclasses
import json
import math

import pytest

from ncross import crossratio, schwarzian
from ncross.cli import main
from ncross.errors import (DrawBudgetExceeded, NumericalBreakdown,
                           UndefinedExpression)
from ncross.scalars import (QUATERNION, Quaternion, Seed, ring_by_name,
                            scalar_to_json)
from ncross.suites import _STRIDE, SUITES, Draw, SuiteConfig, run_suite


def test_draw_budget_enforced():
    d = Draw(QUATERNION, 0, 2)
    d.k = _STRIDE - 1
    # the last scalar of the budget is the trial's own
    assert d.scalar() == QUATERNION.sample(Seed(0, 3 * _STRIDE - 1))
    assert d.k == _STRIDE
    with pytest.raises(DrawBudgetExceeded) as info:
        d.scalar()
    # an overrun must fail the run, not be skipped as a degenerate draw
    assert not isinstance(info.value, UndefinedExpression)
    assert d.k == _STRIDE


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_residual_fails_trial(monkeypatch, capsys, bad):
    def body(d, tol):
        d.scalar()  # re-drawn as the failing trial's input
        # the non-finite residual is not first, where max would keep a NaN
        return [1e-12, bad] if d.trial % 2 else [1e-12 * d.trial]

    spec = dataclasses.replace(SUITES["leapfrog"], trial=body)
    monkeypatch.setitem(SUITES, "leapfrog", spec)
    code = main(["verify", "--suite", "leapfrog", "--ring", "rational",
                 "--trials", "5"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["pass"] is False
    assert doc["max_residual"] == 4e-12  # the largest finite residual
    assert [f["counter"] for f in doc["failures"]] == [1, 3]
    assert all(f["residual"] is None and f["inputs"] for f in doc["failures"])
    report = run_suite(SuiteConfig("leapfrog", ring="rational", trials=5))
    assert not any(math.isfinite(f.residual) for f in report.failures)
    # the text format names the residual; it was not a skipped trial
    main(["verify", "--suite", "leapfrog", "--ring", "rational",
          "--trials", "5", "--format", "text"])
    assert f"trial 1: residual {bad}" in capsys.readouterr().out


@pytest.mark.parametrize("seed", [-1, 1.5, "3"])
def test_suite_config_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match="seed"):
        SuiteConfig("leapfrog", seed=seed)


def test_verify_negative_seed_exit_2(capsys):
    code = main(["verify", "--suite", "leapfrog", "--trials", "5",
                 "--seed", "-1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "seed must be a non-negative integer" in err
    assert "Traceback" not in err


def test_nan_in_a_later_identity_fails_trial(monkeypatch, capsys):
    """dv-cocycle's fourth dv call feeds only its second identity, the
    closed-triple law; a NaN there fails every trial."""
    dv, calls = crossratio.dv, []

    def nan_fourth(quad):
        calls.append(quad)
        return Quaternion(math.nan) if len(calls) == 4 else dv(quad)

    body = SUITES["dv-cocycle"].trial

    def counted(d, tol):
        calls.clear()
        return body(d, tol)

    monkeypatch.setattr(crossratio, "dv", nan_fourth)
    monkeypatch.setitem(SUITES, "dv-cocycle",
                        dataclasses.replace(SUITES["dv-cocycle"],
                                            trial=counted))
    code = main(["verify", "--suite", "dv-cocycle", "--trials", "5"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["pass"] is False and doc["trials_skipped"] == 0
    assert [f["counter"] for f in doc["failures"]] == list(range(5))
    assert all(f["residual"] is None for f in doc["failures"])



@pytest.mark.parametrize("ring", ["quaternion", "matrix"])
def test_dv_cocycle_makes_four_dv_calls_per_trial(monkeypatch, ring):
    """The chain DV(A,X,B,Y) * DV(A,Y,B,Z) is built once and serves both
    identities: four operator cross-ratios per trial, not six.  The count
    is per call of the trial body, so the matrix trials run on the scalar
    path, one call each, not as lanes."""
    dv, calls, per_trial = crossratio.dv, [], []

    def counting(quad):
        calls.append(quad)
        return dv(quad)

    body = SUITES["dv-cocycle"].trial

    def counted(d, tol):
        calls.clear()
        res = body(d, tol)
        per_trial.append(len(calls))
        return res

    monkeypatch.setattr(crossratio, "dv", counting)
    monkeypatch.setitem(SUITES, "dv-cocycle",
                        dataclasses.replace(SUITES["dv-cocycle"],
                                            trial=counted, lanes=False))
    report = run_suite(SuiteConfig("dv-cocycle", ring=ring, trials=20))
    assert report.trials_run == 20
    assert len(per_trial) >= 20 and set(per_trial) == {4}

def test_nan_order_residual_fails_trial(monkeypatch):
    """schwarzian-expansion returns the residuals of its expansion orders
    as they are; a NaN order residual must fail the trial rather than read
    as no residual."""
    monkeypatch.setattr(schwarzian, "expansion_check",
                        lambda z: (0.0, math.nan, 0.0))
    report = run_suite(SuiteConfig("schwarzian-expansion", trials=3))
    assert report.trials_run == len(report.failures) == 3
    assert all(math.isnan(f.residual) for f in report.failures)


#: tolerance of the schwarzian-expansion suite per ring; matrix(3) takes
#: the dv-* suites' tolerance
_EXPANSION_TOL = {"quaternion": 1e-9, "complex": 1e-9, "matrix": 1e-8,
                  "rational": 1e-10}


@pytest.mark.parametrize("ring", sorted(_EXPANSION_TOL))
def test_schwarzian_expansion_runs_on_every_ring(ring):
    report = run_suite(SuiteConfig("schwarzian-expansion", ring=ring, dim=3,
                                   trials=100, tol=_EXPANSION_TOL[ring]))
    assert report.passed and report.trials_skipped == 0
    if ring == "rational":
        assert report.max_residual == 0.0


def _recording(body, drawn, skip):
    """``body`` with each trial's draws recorded in ``drawn[trial]``, by a
    wrapper around that trial's ``Draw.scalar``.  The trial then fails: it
    raises as a degenerate draw (``skip``) or adds a residual of 1."""

    def trial(d, tol):
        scalar, got = d.scalar, drawn.setdefault(d.trial, [])

        def recorded():
            got.append(scalar())
            return got[-1]

        d.scalar = recorded  # vec2 draws through it as well
        res = body(d, tol)
        if skip:
            raise UndefinedExpression("forced skip")
        return res + [1.0]

    return trial


@pytest.mark.parametrize("ring", ["quaternion", "matrix", "complex",
                                  "rational"])
@pytest.mark.parametrize("skip", [False, True])
def test_reported_inputs_are_the_drawn_scalars(monkeypatch, ring, skip):
    """A failing trial and a trial skipped under skip policy "fail" report
    as inputs the JSON of exactly the scalars they drew."""
    drawn = {}
    spec = SUITES["geometry-collinear"]
    monkeypatch.setitem(SUITES, spec.name, dataclasses.replace(
        spec, trial=_recording(spec.trial, drawn, skip)))
    report = run_suite(SuiteConfig(spec.name, ring=ring, trials=4, seed=3,
                                   skip_policy="fail"))
    assert [f.counter for f in report.failures] == [0, 1, 2, 3]
    assert [f.residual for f in report.failures] == [None if skip else 1.0] * 4
    for f in report.failures:
        assert f.inputs == [scalar_to_json(s) for s in drawn[f.counter]]
        assert len(f.inputs) == 16  # 6 points and 4 line parameters


@pytest.mark.parametrize("name, ring", [(name, ring)
                                        for name, spec in SUITES.items()
                                        for ring in spec.rings])
def test_trial_bodies_return_lists_of_floats(name, ring):
    """The trial contract: a body returns the residuals of all its
    identities as a non-empty list of floats, or raises for a degenerate
    draw; ``run_suite`` alone reduces the list."""
    r, returned = ring_by_name(ring, 2), 0
    for idx in range(3):
        try:
            res = SUITES[name].trial(Draw(r, 11, idx), 1e-9)
        except (UndefinedExpression, NumericalBreakdown):
            continue
        assert type(res) is list and res
        assert all(isinstance(v, float) for v in res), res
        returned += 1
    assert returned  # not every draw was degenerate


def test_ceva_cases_are_computed_once(monkeypatch):
    """ceva-infinitesimal draws nothing, so its residuals depend on the
    trial's kappa field alone: each field is computed once, the cached
    residuals are the bits of a fresh computation, and a trial's list is its
    own copy."""
    from ncross.suites import _CEVA_FIELDS, _ceva_case
    fresh = {name: [v.hex() for v in _ceva_case.__wrapped__(name)]
             for name in _CEVA_FIELDS}
    quadratures = []
    infinitesimal_ceva = schwarzian.infinitesimal_ceva

    def counting(*args):
        quadratures.append(args)
        return infinitesimal_ceva(*args)

    monkeypatch.setattr(schwarzian, "infinitesimal_ceva", counting)
    _ceva_case.cache_clear()
    body = SUITES["ceva-infinitesimal"].trial
    for trial in range(12):
        res = body(Draw(QUATERNION, 0, trial), 1e-9)
        assert [v.hex() for v in res] == fresh[_CEVA_FIELDS[trial % 4]]
        res.append(1.0)  # must not reach the next trial of this field
    quadratures.clear()
    _ceva_case.cache_clear()
    report = run_suite(SuiteConfig("ceva-infinitesimal", trials=100, seed=0))
    assert report.trials_run == 100
    assert 0 < len(quadratures) <= 4 * 3
