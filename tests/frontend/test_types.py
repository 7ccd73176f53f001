"""Tests for the bitwidth-aware CoreDSL type system (paper Section 2.3)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.frontend import types as ty
from repro.frontend.types import signed, unsigned
from repro.utils.diagnostics import CoreDSLError


class TestIntType:
    def test_ranges(self):
        assert unsigned(4).min_value == 0
        assert unsigned(4).max_value == 15
        assert signed(4).min_value == -8
        assert signed(4).max_value == 7

    def test_str(self):
        assert str(signed(7)) == "signed<7>"
        assert str(unsigned(32)) == "unsigned<32>"

    def test_zero_width_rejected(self):
        with pytest.raises(CoreDSLError):
            unsigned(0)

    def test_aliases(self):
        assert ty.ALIASES["int"] == signed(32)
        assert ty.ALIASES["char"] == signed(8)
        assert ty.ALIASES["bool"] == unsigned(1)


class TestImplicitConversion:
    """The paper's examples: u4 = u5 and u4 = s4 are forbidden."""

    def test_narrowing_forbidden(self):
        assert not unsigned(5).implicitly_convertible_to(unsigned(4))

    def test_sign_loss_forbidden(self):
        assert not signed(4).implicitly_convertible_to(unsigned(4))
        assert not signed(4).implicitly_convertible_to(unsigned(64))

    def test_widening_allowed(self):
        assert unsigned(4).implicitly_convertible_to(unsigned(5))
        assert signed(4).implicitly_convertible_to(signed(8))

    def test_unsigned_to_wider_signed(self):
        assert unsigned(4).implicitly_convertible_to(signed(5))
        assert not unsigned(4).implicitly_convertible_to(signed(4))

    def test_identity(self):
        assert unsigned(8).implicitly_convertible_to(unsigned(8))

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=64),
        st.booleans(),
        st.booleans(),
    )
    def test_conversion_iff_range_inclusion(self, w1, w2, s1, s2):
        a = ty.IntType(w1, s1)
        b = ty.IntType(w2, s2)
        expected = a.min_value >= b.min_value and a.max_value <= b.max_value
        assert a.implicitly_convertible_to(b) == expected


class TestOperatorResults:
    def test_paper_example_addition(self):
        """u5 + s4 yields signed<7> (paper Section 2.3)."""
        assert ty.add_result(unsigned(5), signed(4)) == signed(7)

    def test_same_sign_addition(self):
        assert ty.add_result(unsigned(8), unsigned(8)) == unsigned(9)
        assert ty.add_result(signed(8), signed(4)) == signed(9)

    def test_subtraction_always_signed(self):
        assert ty.sub_result(unsigned(8), unsigned(8)) == signed(9)

    def test_multiplication(self):
        assert ty.mul_result(unsigned(8), unsigned(8)) == unsigned(16)
        assert ty.mul_result(signed(16), signed(16)) == signed(32)
        assert ty.mul_result(unsigned(8), signed(8)) == signed(17)

    def test_bitwise(self):
        assert ty.bitwise_result(unsigned(8), unsigned(4)) == unsigned(8)
        assert ty.bitwise_result(signed(8), signed(16)) == signed(16)

    def test_shift_left_constant(self):
        assert ty.shl_result(unsigned(5), unsigned(1), shift_const=1) == unsigned(6)

    def test_shift_left_dynamic(self):
        # Unknown 3-bit shift amount: up to 7 extra bits.
        assert ty.shl_result(unsigned(8), unsigned(3)) == unsigned(15)

    def test_shift_left_by_signed_amount_counts_its_pattern(self):
        # -1 as a signed<2> amount shifts by its pattern, 3.
        assert ty.shl_result(signed(2), signed(2)) == signed(5)
        assert ty.shl_result(unsigned(8), signed(3)) == unsigned(15)

    def test_shift_right_keeps_type(self):
        assert ty.shr_result(signed(32), unsigned(5)) == signed(32)

    def test_negation(self):
        assert ty.neg_result(unsigned(8)) == signed(9)
        assert ty.neg_result(signed(8)) == signed(9)

    def test_concat_unsigned(self):
        assert ty.concat_result(unsigned(5), unsigned(1)) == unsigned(6)
        assert ty.concat_result(signed(4), unsigned(4)) == unsigned(8)

    def test_slice(self):
        assert ty.slice_result(7, 0) == unsigned(8)
        assert ty.slice_result(3, 3) == unsigned(1)

    def test_slice_invalid(self):
        with pytest.raises(CoreDSLError):
            ty.slice_result(0, 3)

    def test_width_explosion_rejected(self):
        with pytest.raises(CoreDSLError):
            ty.shl_result(unsigned(32), unsigned(32))

    @given(
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=1, max_value=32),
        st.booleans(),
        st.booleans(),
    )
    def test_add_result_covers_all_values(self, w1, w2, s1, s2):
        a, b = ty.IntType(w1, s1), ty.IntType(w2, s2)
        result = ty.add_result(a, b)
        assert result.can_represent(a.min_value + b.min_value)
        assert result.can_represent(a.max_value + b.max_value)

    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=16),
        st.booleans(),
        st.booleans(),
    )
    def test_mul_result_covers_all_values(self, w1, w2, s1, s2):
        a, b = ty.IntType(w1, s1), ty.IntType(w2, s2)
        result = ty.mul_result(a, b)
        for x in (a.min_value, a.max_value):
            for y in (b.min_value, b.max_value):
                assert result.can_represent(x * y)

    @given(
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=1, max_value=32),
        st.booleans(),
        st.booleans(),
    )
    def test_common_supertype_covers_both(self, w1, w2, s1, s2):
        a, b = ty.IntType(w1, s1), ty.IntType(w2, s2)
        result = ty.common_supertype(a, b)
        assert a.implicitly_convertible_to(result)
        assert b.implicitly_convertible_to(result)


class TestLiterals:
    def test_minimal_unsigned_type(self):
        assert ty.literal_type(0) == unsigned(1)
        assert ty.literal_type(1) == unsigned(1)
        assert ty.literal_type(42) == unsigned(6)
        assert ty.literal_type(0xCAFE) == unsigned(16)

    def test_negative_rejected(self):
        with pytest.raises(CoreDSLError):
            ty.literal_type(-1)
