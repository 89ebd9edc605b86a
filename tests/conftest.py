"""Shared fixtures."""
import contextlib

import pytest

from treejacobi import exactnum


@contextlib.contextmanager
def _reductions():
    """Record the bit length of every exact value brought to lowest terms
    inside the block: a result of exact arithmetic (exactnum._lowest, its one
    gcd) or a part read as a Fraction (ExactComplex.re, .im)."""
    bits = []
    lowest = exactnum._lowest

    def spy_lowest(x, y, den, m):
        bits.append(max(abs(x).bit_length(), abs(y).bit_length(), den.bit_length()))
        return lowest(x, y, den, m)

    def spy_part(part):
        def read(self):
            bits.append(max(abs(v).bit_length() for v in self.ints))
            return part.fget(self)
        return property(read)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactnum, "_lowest", spy_lowest)
        for name in ("re", "im"):
            patch.setattr(exactnum.ExactComplex, name, spy_part(getattr(exactnum.ExactComplex, name)))
        yield bits


@pytest.fixture(scope="session")
def reductions():
    """A context manager yielding the list of bit lengths of the exact
    values brought to lowest terms inside it (session-scoped, so that
    hypothesis tests can use it)."""
    return _reductions
