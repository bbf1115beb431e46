import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

# A test run leaves no bytecode in the source tree: a later process, such as a
# benchmark timing the import, would read those files instead of compiling.
# Set before this process first imports schurkit.
sys.dont_write_bytecode = True


@pytest.fixture(scope="session")
def child_env():
    """The environment of a child `python` process: it imports the same
    package as this process, also when only pytest's `pythonpath` setting puts
    it on the path, and writes no bytecode either."""
    import schurkit

    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [
            str(Path(schurkit.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")
        ])),
        "PYTHONDONTWRITEBYTECODE": "1",
    }


@pytest.fixture(scope="session")
def refuse_fraction_arithmetic():
    """A function of a monkeypatch that makes every Fraction sum, difference,
    product and quotient raise: code that runs on ints and only builds a
    Fraction per output still passes."""

    def refuse(*args):
        raise AssertionError("Fraction arithmetic was called")

    def apply(monkeypatch):
        for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
            monkeypatch.setattr(Fraction, name, refuse)

    return apply


@pytest.fixture
def no_fraction_arithmetic(monkeypatch, refuse_fraction_arithmetic):
    refuse_fraction_arithmetic(monkeypatch)


@pytest.fixture(scope="session")
def cyclic_garbage():
    """A function of a call that runs it with the cyclic collector off and
    returns how many objects it left that only that collector can free."""
    import gc

    def count(work):
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            work()
            return gc.collect()
        finally:
            if enabled:
                gc.enable()

    return count


@pytest.fixture(scope="session")
def assert_canonical_terms():
    """A check of what kernels and ring operations promise when they build
    through Polynomial._raw and skip Polynomial(...)'s checks: each
    coefficient a nonzero Fraction, each monomial's variables strictly
    ascending with int exponents >= 1."""
    from schurkit import Polynomial, Variable

    def check(p):
        terms = p.terms
        for mono, coeff in terms.items():
            assert type(coeff) is Fraction and coeff != 0, (mono, coeff)
            assert all(type(v) is Variable and type(e) is int and e >= 1 for v, e in mono), mono
            assert all(a < b for (a, _), (b, _) in zip(mono, mono[1:])), mono
        assert Polynomial(terms) == p

    return check
