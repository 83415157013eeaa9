import pytest

from ncross.errors import DrawBudgetExceeded, UndefinedExpression
from ncross.scalars import QUATERNION, Seed
from ncross.suites import _STRIDE, Draw


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
