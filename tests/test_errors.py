import pytest

from ncross.errors import (BREAKDOWN_FACTOR, NotInvertible, PairMismatch,
                           RowFormMismatch, UndefinedExpression, agree,
                           agreed)
from ncross.scalars import ComplexScalar


def c(v):
    return ComplexScalar(v)


def undefined():
    raise NotInvertible("no inverse here")


def test_agree_is_symmetric_and_scaled():
    tol = 1e-9
    edge = BREAKDOWN_FACTOR * tol * (1.0 + 3.0)
    assert agree(c(3.0), c(3.0 - edge / 2), tol)
    assert agree(c(3.0 - edge / 2), c(3.0), tol)
    assert not agree(c(3.0), c(3.0 + 2 * edge), tol)
    assert not agree(c(3.0 + 2 * edge), c(3.0), tol)


def test_agreed_returns_first_value():
    a, b = c(2.0), c(2.0 + 1e-12)
    assert agreed((lambda: a, lambda: b), 1e-9, PairMismatch, "x") is a
    assert agreed((lambda: b, lambda: a), 1e-9, PairMismatch, "x") is b


def test_agreed_drops_undefined_routes():
    a = c(1.0)
    assert agreed((undefined, lambda: a), 1e-9, PairMismatch, "x") is a
    assert agreed((lambda: a, undefined), 1e-9, PairMismatch, "x") is a


def test_agreed_no_route_is_undefined():
    with pytest.raises(UndefinedExpression, match="no route"):
        agreed((undefined, undefined), 1e-9, PairMismatch, "x")


@pytest.mark.parametrize("mismatch", [PairMismatch, RowFormMismatch])
def test_agreed_raises_the_given_class(mismatch):
    with pytest.raises(mismatch, match="routes differ"):
        agreed((lambda: c(1.0), lambda: c(1.1)), 1e-9, mismatch, "x")
