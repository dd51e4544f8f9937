import math
from fractions import Fraction

import numpy as np
import pytest

from localscores.errors import InputError, checked_count, checked_real


class TestCheckedCount:
    @pytest.mark.parametrize("value, least", [(1, 1), (0, 0), (np.int64(5), 2), (2 ** 70, 1)])
    def test_returns_the_count(self, value, least):
        assert checked_count("n", value, least) is value

    @pytest.mark.parametrize("value", [0, -1, 2.0, 2.5, True, np.bool_(True), "3", None, math.nan])
    def test_refuses(self, value):
        with pytest.raises(InputError, match=r"^n must be an integer >= 1, got "):
            checked_count("n", value)


class TestCheckedReal:
    @pytest.mark.parametrize("value", [0, 0.0, 3, 1e-300, np.float32(0.5), Fraction(1, 3), 10 ** 400])
    def test_returns_the_value(self, value):
        assert checked_real("x", value) is value

    @pytest.mark.parametrize("value", [-1e-300, math.nan, math.inf, -math.inf, True, "1", None, 1j])
    def test_refuses(self, value):
        with pytest.raises(InputError, match=r"^x must be a finite real >= 0, got "):
            checked_real("x", value)

    @pytest.mark.parametrize("value", [0, 0.0, -0.0])
    def test_positive_refuses_zero(self, value):
        assert checked_real("x", value) is value
        with pytest.raises(InputError, match=r"^x must be a finite real > 0, got "):
            checked_real("x", value, positive=True)
