"""Tests for the layout algebra (repro.tensor.layout)."""

import hashlib
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.tensor.layout import Layout, LayoutError


class TestLayoutParsing:
    def test_plain_nchw(self):
        layout = Layout("NCHW")
        assert layout.primal_axes == ("N", "C", "H", "W")
        assert not layout.is_blocked

    def test_blocked_nchw16c(self):
        layout = Layout("NCHW16c")
        assert layout.is_blocked
        assert layout.block_factor("C") == 16
        assert layout.primal_axes == ("N", "C", "H", "W")

    def test_weight_layout_oihw16i16o(self):
        layout = Layout("OIHW16i16o")
        assert layout.block_factor("I") == 16
        assert layout.block_factor("O") == 16

    def test_str_round_trip(self):
        for text in ("NCHW", "NHWC", "NCHW8c", "OIHW4i32o", "OIHW"):
            assert str(Layout(text)) == text

    def test_rejects_empty(self):
        with pytest.raises(LayoutError):
            Layout("")

    def test_rejects_sub_axis_without_factor(self):
        with pytest.raises(LayoutError):
            Layout("NCHWc")

    def test_rejects_factor_on_primal(self):
        with pytest.raises(LayoutError):
            Layout("N16CHW")

    def test_rejects_duplicate_primal(self):
        with pytest.raises(LayoutError):
            Layout("NCCHW")

    def test_rejects_orphan_sub_axis(self):
        with pytest.raises(LayoutError):
            Layout("NHW16c")

    def test_rejects_zero_factor(self):
        with pytest.raises(LayoutError):
            Layout("NCHW0c")

    def test_rejects_garbage_characters(self):
        with pytest.raises(LayoutError):
            Layout("NC-HW")


class TestLayoutQueries:
    def test_axis_index(self):
        layout = Layout("NCHW16c")
        assert layout.axis_index("N") == 0
        assert layout.axis_index("c") == 4
        with pytest.raises(LayoutError):
            layout.axis_index("X")

    def test_has_axis(self):
        layout = Layout("NCHW16c")
        assert layout.has_axis("c")
        assert layout.has_axis("C")
        assert not layout.has_axis("o")

    def test_canonical(self):
        assert Layout("NCHW16c").canonical == Layout("NCHW")
        assert Layout("OIHW4i8o").canonical == Layout("OIHW")

    def test_block_factor_of_unsplit_axis_is_zero(self):
        assert Layout("NCHW16c").block_factor("H") == 0

    def test_equality_with_string(self):
        assert Layout("NCHW") == "NCHW"
        assert Layout("NCHW16c") != "NCHW"

    def test_hashable(self):
        assert len({Layout("NCHW"), Layout("NCHW"), Layout("NHWC")}) == 2

    def test_convertible(self):
        assert Layout("NCHW").convertible_to(Layout("NHWC"))
        assert Layout("NCHW").convertible_to(Layout("NCHW16c"))
        assert not Layout("NCHW").convertible_to(Layout("OIHW"))


class TestShapeComputation:
    def test_blocked_shape(self):
        assert Layout("NCHW16c").blocked_shape((1, 64, 56, 56)) == (1, 4, 56, 56, 16)

    def test_logical_shape_inverse(self):
        layout = Layout("NCHW16c")
        assert layout.logical_shape((1, 4, 56, 56, 16)) == (1, 64, 56, 56)

    def test_weight_blocked_shape(self):
        layout = Layout("OIHW16i16o")
        assert layout.blocked_shape((64, 32, 3, 3)) == (4, 2, 3, 3, 16, 16)

    def test_indivisible_raises(self):
        with pytest.raises(LayoutError):
            Layout("NCHW16c").blocked_shape((1, 30, 8, 8))

    def test_wrong_rank_raises(self):
        with pytest.raises(LayoutError):
            Layout("NCHW").blocked_shape((1, 3, 8))


@given(
    channels=st.integers(1, 8).map(lambda k: 16 * k),
    block=st.sampled_from([1, 2, 4, 8, 16]),
    height=st.integers(1, 32),
)
def test_blocked_logical_round_trip(channels, block, height):
    """blocked_shape and logical_shape are inverses for divisible channels."""
    layout = Layout(f"NCHW{block}c")
    logical = (1, channels, height, height)
    assert layout.logical_shape(layout.blocked_shape(logical)) == logical


class TestLayoutMemo:
    """Each distinct string is parsed once; what a Layout is stays the same."""

    #: ``pickle.dumps(Layout("NCHW16c"), protocol=4)`` when a layout pickled
    #: its parse (``_raw`` and a tuple of ``AxisToken``); artifacts written
    #: then hold such bytes, so they must keep loading.
    NCHW16C_PICKLE = (
        b"\x80\x04\x95\xc6\x00\x00\x00\x00\x00\x00\x00\x8c\x13repro.tensor.layout"
        b"\x94\x8c\x06Layout\x94\x93\x94)\x81\x94}\x94(\x8c\x04_raw\x94\x8c\x07"
        b"NCHW16c\x94\x8c\x07_tokens\x94(h\x00\x8c\tAxisToken\x94\x93\x94)\x81\x94}"
        b"\x94(\x8c\x04name\x94\x8c\x01N\x94\x8c\x06factor\x94K\x00ubh\t)\x81\x94}"
        b"\x94(h\x0c\x8c\x01C\x94h\x0eK\x00ubh\t)\x81\x94}\x94(h\x0c\x8c\x01H\x94h"
        b"\x0eK\x00ubh\t)\x81\x94}\x94(h\x0c\x8c\x01W\x94h\x0eK\x00ubh\t)\x81\x94}"
        b"\x94(h\x0c\x8c\x01c\x94h\x0eK\x10ubt\x94ub."
    )
    #: The same pickle today: ``Layout("NCHW16c")``, a call on its string.
    NCHW16C_STRING_PICKLE = (
        b"\x80\x04\x950\x00\x00\x00\x00\x00\x00\x00\x8c\x13repro.tensor.layout"
        b"\x94\x8c\x06Layout\x94\x93\x94\x8c\x07NCHW16c\x94\x85\x94R\x94."
    )
    #: SHA-256 of the pickle of three layouts, two of one string: each
    #: layout writes its own string, whatever the parse cache shares.
    TRIPLE_SHA256 = "2bb35c0db140d8913ff7ade34d9ad3c66d2010b3579f386c133332732ef790af"

    @pytest.mark.parametrize(
        "text", ["", "NCHW16", "N4CHW", "NCHW0c", "NNCHW", "NCHW8x", "NC-HW"]
    )
    def test_malformed_string_raises_on_every_call(self, text):
        for _ in range(3):
            with pytest.raises(LayoutError):
                Layout(text)

    def test_pickle_bytes_are_unchanged(self):
        Layout("NCHW16c")
        assert pickle.dumps(Layout("NCHW16c"), protocol=4) == self.NCHW16C_STRING_PICKLE
        layouts = [Layout("OIHW16i8o"), Layout("OIHW16i8o"), Layout("NCHW")]
        digest = hashlib.sha256(pickle.dumps(layouts, protocol=4)).hexdigest()
        assert digest == self.TRIPLE_SHA256
        restored = pickle.loads(pickle.dumps(layouts[0]))
        assert restored == layouts[0] and restored.block_factor("O") == 8

    def test_parse_pickle_still_loads(self):
        restored = pickle.loads(self.NCHW16C_PICKLE)
        assert restored == Layout("NCHW16c") and str(restored) == "NCHW16c"
        assert restored.block_factor("C") == 16
        assert restored.primal_axes == ("N", "C", "H", "W")
        # Re-pickled, it writes today's form.
        assert pickle.dumps(restored, protocol=4) == self.NCHW16C_STRING_PICKLE

    def test_equal_strings_give_equal_layouts(self):
        text = "".join(["NCHW", "16c"])  # a different str object each call
        first, second = Layout(text), Layout("".join(["NCHW", "16c"]))
        assert first == second and hash(first) == hash(second)
        assert first.primal_axes == second.primal_axes
        assert str(first) == str(second) == "NCHW16c"
        assert first == "NCHW16c" and first != Layout("NCHW8c")
