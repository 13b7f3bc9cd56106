"""Tests for the binary words and the binary entropy function."""

import numpy as np
import pytest

from qcka_cad.bitcore import BitString, binary_entropy

# 50-digit reference evaluation of -x log2 x - (1-x) log2 (1-x) at x = 0.18.
H_018 = 0.6800770457282798


class TestBitString:
    def test_from_string(self):
        q = BitString("10110")
        assert len(q) == 5
        assert str(q) == "10110"
        assert list(q) == [1, 0, 1, 1, 0]

    def test_from_ints_and_array(self):
        assert BitString([1, 0, 1]) == BitString(np.array([1, 0, 1], dtype=np.uint8))
        assert BitString((0, 1)) == BitString("01")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty word"):
            BitString("")
        with pytest.raises(ValueError, match="empty word"):
            BitString([])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            BitString("10210")
        with pytest.raises(ValueError):
            BitString([0, 1, 2])

    def test_weight(self):
        assert BitString("10110").weight == 3
        assert BitString("0000").weight == 0

    def test_hashable(self):
        assert len({BitString("01"), BitString("01"), BitString("10")}) == 2

    def test_immutable(self):
        q = BitString("01")
        with pytest.raises(AttributeError):
            q._bits = None
        with pytest.raises(TypeError):
            q._bits[0] = 1  # the bits are held as bytes
        assert str(q) == "01"


class TestBinaryEntropy:
    def test_degenerate(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_uniform(self):
        assert binary_entropy(0.5) == 1.0

    def test_reference_point(self):
        assert binary_entropy(0.18) == pytest.approx(H_018, abs=1e-5)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            binary_entropy(-0.01)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            binary_entropy(1.01)

    def test_symmetric_on_grid(self):
        for x in np.linspace(0.0, 1.0, 101):
            assert binary_entropy(float(x)) == pytest.approx(
                binary_entropy(float(1.0 - x)), abs=1e-12
            )

    def test_concave_and_maximal_at_half(self):
        grid = np.linspace(0.0, 1.0, 51)
        for a in grid:
            for b in grid:
                mid = binary_entropy(float((a + b) / 2))
                chord = (binary_entropy(float(a)) + binary_entropy(float(b))) / 2
                assert mid >= chord - 1e-12
        assert all(binary_entropy(float(x)) <= 1.0 for x in grid)

