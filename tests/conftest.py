"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from ifmpower import matrix


class KernelLog:
    """What compose's kernel did inside `with kernel_log as log:`; each
    block starts a fresh log.

    - reductions: (rows, start) per _reduce_rows call, start being the
      first row it reduced in full, which it returns;
    - tops: (shape, negated) per _top call, negated where every term
      carries the sign bit, as on the min side (nu, or mu at p < 0);
    - terms: the number of combine terms _reduce_rows computed.
    """

    def __enter__(self):
        self.reductions, self.tops, self.terms = [], [], 0
        self._patch = pytest.MonkeyPatch()
        reduce_rows, top = matrix._reduce_rows, matrix._top

        def logged_reduce_rows(combine, x, right, out):
            def counted(a, b, out=None):
                out = combine(a, b, out=out)
                self.terms += out.size
                return out

            start = reduce_rows(counted, x, right, out)
            self.reductions.append((len(x), start))
            return start

        def logged_top(v):
            self.tops.append((v.shape, bool(np.signbit(v).all())))
            return top(v)

        self._patch.setattr(matrix, "_reduce_rows", logged_reduce_rows)
        self._patch.setattr(matrix, "_top", logged_top)
        return self

    def __exit__(self, *exc):
        self._patch.undo()

    @property
    def full_rows(self):
        """Rows reduced in full, per reduction that reduced any."""
        return [rows - start for rows, start in self.reductions if start < rows]


@pytest.fixture
def kernel_log():
    return KernelLog()
