import dataclasses
import json
import math

import pytest

from ncross.cli import main
from ncross.errors import DrawBudgetExceeded, UndefinedExpression
from ncross.scalars import QUATERNION, Seed
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
        d.scalar()  # logged as the trial's input
        return bad if d.trial % 2 else 1e-12 * d.trial

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
