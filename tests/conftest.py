from fractions import Fraction

import pytest


def refuse_fraction_arithmetic(monkeypatch):
    """Make every Fraction sum, difference, product and quotient raise: code
    that runs on ints and only builds a Fraction per output still passes."""

    def refuse(*args):
        raise AssertionError("Fraction arithmetic was called")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(Fraction, name, refuse)


@pytest.fixture
def no_fraction_arithmetic(monkeypatch):
    refuse_fraction_arithmetic(monkeypatch)
