"""Tests for the functional codecs: GF(256) and Reed-Solomon."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.gf256 import (
    gf_add,
    gf_div,
    gf_exp,
    gf_inv,
    gf_mul,
    gf_pow,
    poly_add,
    poly_deriv,
    poly_eval,
    poly_mul,
)
from repro.ecc.reed_solomon import ReedSolomon, chipkill_code
from repro.errors import ConfigurationError, UncorrectableError

bytes_ = st.integers(0, 255)
nonzero = st.integers(1, 255)


class TestGF256:
    @given(nonzero, nonzero)
    @settings(max_examples=200)
    def test_mul_div_inverse(self, a, b):
        assert gf_div(gf_mul(a, b), b) == a

    @given(nonzero)
    @settings(max_examples=100)
    def test_inverse(self, a):
        assert gf_mul(a, gf_inv(a)) == 1

    @given(bytes_, bytes_, bytes_)
    @settings(max_examples=100)
    def test_distributive(self, a, b, c):
        assert gf_mul(a, gf_add(b, c)) == gf_add(gf_mul(a, b), gf_mul(a, c))

    @given(bytes_, bytes_)
    @settings(max_examples=100)
    def test_commutative(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)

    def test_zero_rules(self):
        assert gf_mul(0, 77) == 0
        with pytest.raises(ZeroDivisionError):
            gf_div(1, 0)
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    def test_generator_order(self):
        seen = {gf_exp(i) for i in range(255)}
        assert len(seen) == 255  # generator spans the full group

    @given(nonzero, st.integers(0, 20))
    @settings(max_examples=50)
    def test_pow(self, a, n):
        product = 1
        for _ in range(n):
            product = gf_mul(product, a)
        assert gf_pow(a, n) == product

    def test_poly_eval_horner(self):
        # p(x) = 3 + 2x + x^2 at x=2 over GF(256): 3 ^ (2*2) ^ (2^2=4)
        p = [3, 2, 1]
        assert poly_eval(p, 2) == 3 ^ gf_mul(2, 2) ^ gf_mul(gf_mul(2, 2), 1)

    def test_poly_mul_degree(self):
        assert poly_mul([1, 1], [1, 1]) == [1, 0, 1]  # (x+1)^2 = x^2+1

    def test_poly_add_cancels(self):
        assert poly_add([5, 7], [5, 7]) == [0]

    def test_poly_deriv_char2(self):
        # d/dx (a + bx + cx^2 + dx^3) = b + dx^2 in characteristic 2.
        assert poly_deriv([9, 8, 7, 6]) == [8, 0, 6]


class TestReedSolomon:
    @pytest.fixture
    def rs(self):
        return ReedSolomon(n=12, k=8)  # corrects 2 errors / 4 erasures

    def test_encode_is_systematic(self, rs):
        data = [1, 2, 3, 4, 5, 6, 7, 8]
        cw = rs.encode(data)
        assert cw[:8] == data
        assert len(cw) == 12

    def test_clean_decode(self, rs):
        data = [10, 20, 30, 40, 50, 60, 70, 80]
        assert rs.decode(rs.encode(data)) == data

    @given(st.lists(bytes_, min_size=8, max_size=8),
           st.integers(0, 11), bytes_)
    @settings(max_examples=100)
    def test_single_error_corrected(self, data, pos, noise):
        rs = ReedSolomon(12, 8)
        cw = rs.encode(data)
        corrupted = list(cw)
        corrupted[pos] ^= noise
        assert rs.decode(corrupted) == data

    @given(st.lists(bytes_, min_size=8, max_size=8),
           st.sets(st.integers(0, 11), min_size=2, max_size=2),
           st.lists(nonzero, min_size=2, max_size=2))
    @settings(max_examples=100)
    def test_two_errors_corrected(self, data, positions, noises):
        rs = ReedSolomon(12, 8)
        cw = rs.encode(data)
        corrupted = list(cw)
        for pos, noise in zip(sorted(positions), noises):
            corrupted[pos] ^= noise
        assert rs.decode(corrupted) == data

    def test_three_errors_rejected(self, rs):
        data = list(range(8))
        cw = rs.encode(data)
        corrupted = list(cw)
        for pos in (0, 4, 9):
            corrupted[pos] ^= 0x5A
        with pytest.raises(UncorrectableError):
            rs.decode(corrupted)

    @given(st.lists(bytes_, min_size=8, max_size=8),
           st.sets(st.integers(0, 11), min_size=4, max_size=4))
    @settings(max_examples=60)
    def test_four_erasures_corrected(self, data, positions):
        rs = ReedSolomon(12, 8)
        cw = rs.encode(data)
        corrupted = list(cw)
        for pos in positions:
            corrupted[pos] = (corrupted[pos] + 1) % 256
        assert rs.decode(corrupted, erasures=sorted(positions)) == data

    def test_erasure_plus_error(self, rs):
        data = [9] * 8
        cw = rs.encode(data)
        corrupted = list(cw)
        corrupted[2] ^= 0xFF  # erasure (location known)
        corrupted[7] ^= 0x11  # error (location unknown)
        assert rs.decode(corrupted, erasures=[2]) == data

    def test_too_many_erasures(self, rs):
        cw = rs.encode([0] * 8)
        with pytest.raises(UncorrectableError):
            rs.decode(cw, erasures=[0, 1, 2, 3, 4])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ReedSolomon(8, 8)
        with pytest.raises(ConfigurationError):
            ReedSolomon(300, 8)
        rs = ReedSolomon(12, 8)
        with pytest.raises(ConfigurationError):
            rs.encode([0] * 7)
        with pytest.raises(ConfigurationError):
            rs.decode([0] * 11)
        with pytest.raises(ConfigurationError):
            rs.decode([0] * 12, erasures=[99])

    def test_chipkill_configuration(self):
        """§II-E: one symbol per bank, single check symbol rebuilds one
        known-failed unit (erasure)."""
        code = chipkill_code()
        assert (code.n, code.k) == (9, 8)
        data = [0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88]
        cw = code.encode(data)
        corrupted = list(cw)
        corrupted[3] = 0xFF  # one bank's symbol lost, location known
        assert code.decode(corrupted, erasures=[3]) == data

