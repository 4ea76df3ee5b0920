"""Data layout descriptors for CNN tensors.

NeoCPU (section 3.1.1 of the paper) organizes feature maps in the blocked
``NCHW[x]c`` layout and convolution kernels in ``KCRS[x]c[y]k`` (equivalently
written ``OIHW[x]i[y]o``) so that the innermost dimension matches the SIMD
vector width of the target CPU.  This module provides a small algebra over
layout strings:

* parsing layout strings such as ``"NCHW"``, ``"NCHW16c"``, ``"OIHW16i16o"``
  into :class:`Layout` objects;
* querying primal axes (upper case letters) and sub-axes (lower case letters
  with their split factor);
* computing the concrete shape of a tensor in one layout given its logical
  shape in the canonical (un-blocked) layout;
* deciding whether two layouts are convertible and which axes are split.

The grammar is the one used by TVM/MKL-DNN: an upper-case letter names a
primal axis, a lower-case letter names a sub-axis split off from the primal
axis of the same letter, and a decimal number immediately preceding a
lower-case letter is the split factor (block size) of that sub-axis.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "Layout",
    "LayoutError",
    "AxisToken",
]


class LayoutError(ValueError):
    """Raised when a layout string is malformed or an operation is invalid."""


_TOKEN_RE = re.compile(r"(\d*)([A-Za-z])")

#: Layout string -> its tokens and derived facts (``Layout._facts``), so each
#: distinct string is parsed, validated and derived once per process.
_PARSED: Dict[str, tuple] = {}


@dataclass(frozen=True)
class AxisToken:
    """One axis of a layout.

    Attributes:
        name: single letter naming the axis.  Upper case means a primal axis
            (carries the residual extent), lower case means a sub-axis split
            off the primal axis of the same letter.
        factor: the block size for a sub-axis; ``0`` for primal axes.
    """

    name: str
    factor: int = 0

    @property
    def is_primal(self) -> bool:
        return self.name.isupper()

    @property
    def primal_name(self) -> str:
        return self.name.upper()

    def __str__(self) -> str:  # pragma: no cover - trivial
        if self.is_primal:
            return self.name
        return f"{self.factor}{self.name}"


class Layout:
    """A parsed data layout such as ``NCHW``, ``NCHW16c`` or ``OIHW16i16o``.

    A :class:`Layout` is immutable and hashable; equality is defined on the
    normalized layout string.  It pickles as ``Layout(<that string>)``.
    """

    def __init__(self, layout_str: str) -> None:
        facts = _PARSED.get(layout_str)
        if facts is None:
            if not layout_str:
                raise LayoutError("layout string must be non-empty")
            self._tokens = self._parse(layout_str)
            self._validate()
            # Only a string that parsed and validated is remembered.
            facts = _PARSED[layout_str] = self._facts(self._tokens)
        self._derive(facts)

    @staticmethod
    def _facts(tokens: Tuple[AxisToken, ...]) -> tuple:
        """The facts the accessors read, derived from a parse once per string."""
        primal_axes = tuple(t.name for t in tokens if t.is_primal)
        factors = {t.primal_name: t.factor for t in reversed(tokens) if not t.is_primal}
        return tokens, primal_axes, factors, tuple(str(t) for t in tokens)

    def _derive(self, facts: tuple) -> None:
        self._tokens, self._primal_axes, self._factors, pieces = facts
        # A string of its own per layout, as if each parsed itself: it flows
        # into node attrs, and a pickle (an artifact's bytes) sees sharing.
        self._str = "".join(pieces)

    def __reduce__(self) -> tuple:
        # Loading parses through ``_PARSED`` like any other construction, and
        # the bytes do not depend on which facts are derived.  ``_str`` is a
        # string of the layout's own, so they do not depend on what the cache
        # shares either.
        return Layout, (self._str,)

    def __setstate__(self, state: dict) -> None:
        # Artifacts written before layouts pickled as strings carry the
        # parse (``_raw`` and ``_tokens``) as state; rebuild from the string.
        self.__init__(state["_raw"])

    # ------------------------------------------------------------------ #
    # parsing / validation
    # ------------------------------------------------------------------ #
    @staticmethod
    def _parse(layout_str: str) -> Tuple[AxisToken, ...]:
        pos = 0
        tokens: List[AxisToken] = []
        for match in _TOKEN_RE.finditer(layout_str):
            if match.start() != pos:
                raise LayoutError(f"unexpected character in layout {layout_str!r}")
            pos = match.end()
            factor_str, letter = match.groups()
            if letter.isupper():
                if factor_str:
                    raise LayoutError(
                        f"primal axis {letter!r} must not carry a factor "
                        f"(layout {layout_str!r})"
                    )
                tokens.append(AxisToken(letter, 0))
            else:
                if not factor_str:
                    raise LayoutError(
                        f"sub-axis {letter!r} requires a split factor "
                        f"(layout {layout_str!r})"
                    )
                factor = int(factor_str)
                if factor <= 0:
                    raise LayoutError(
                        f"split factor of {letter!r} must be positive "
                        f"(layout {layout_str!r})"
                    )
                tokens.append(AxisToken(letter, factor))
        if pos != len(layout_str):
            raise LayoutError(f"unexpected trailing characters in {layout_str!r}")
        return tuple(tokens)

    def _validate(self) -> None:
        primal_seen: Dict[str, int] = {}
        sub_seen: Dict[str, int] = {}
        for token in self._tokens:
            table = primal_seen if token.is_primal else sub_seen
            table[token.primal_name] = table.get(token.primal_name, 0) + 1
        for name, count in primal_seen.items():
            if count > 1:
                raise LayoutError(f"primal axis {name!r} appears {count} times")
        for name in sub_seen:
            if name not in primal_seen:
                raise LayoutError(
                    f"sub-axis of {name!r} present without its primal axis"
                )

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def tokens(self) -> Tuple[AxisToken, ...]:
        return self._tokens

    @property
    def primal_axes(self) -> Tuple[str, ...]:
        """Primal axis names in the order they appear."""
        return self._primal_axes

    @property
    def is_blocked(self) -> bool:
        """True when at least one axis is split into a sub-axis."""
        return bool(self._factors)

    def block_factor(self, primal_name: str) -> int:
        """Return the split factor of ``primal_name`` (0 if not split).

        Only a single level of splitting per primal axis is supported, which
        matches every layout used by the paper.
        """
        return self._factors.get(primal_name.upper(), 0)

    def axis_index(self, axis: str) -> int:
        """Return the concrete dimension index of an axis token name.

        Upper-case queries match primal tokens, lower-case queries match
        sub-axis tokens.
        """
        for i, token in enumerate(self._tokens):
            if token.name == axis:
                return i
        raise LayoutError(f"axis {axis!r} not present in layout {self}")

    def has_axis(self, axis: str) -> bool:
        return any(token.name == axis for token in self._tokens)

    @property
    def canonical(self) -> "Layout":
        """The un-blocked layout with the same primal axes (e.g. NCHW16c -> NCHW)."""
        return Layout("".join(self.primal_axes))

    # ------------------------------------------------------------------ #
    # shape computations
    # ------------------------------------------------------------------ #
    def blocked_shape(self, logical_shape: Sequence[int]) -> Tuple[int, ...]:
        """Concrete shape of a tensor stored in this layout.

        Args:
            logical_shape: extents of the primal axes in *this layout's*
                primal order (i.e. the shape in :attr:`canonical`).

        Returns:
            The concrete array shape, with each split primal axis divided by
            its block factor and the sub-axis extent equal to the factor.

        Raises:
            LayoutError: if a primal extent is not divisible by its factor.
        """
        primals = self.primal_axes
        if len(logical_shape) != len(primals):
            raise LayoutError(
                f"logical shape {tuple(logical_shape)} does not match primal "
                f"axes {primals} of layout {self}"
            )
        extents = dict(zip(primals, logical_shape))
        shape: List[int] = []
        for token in self._tokens:
            extent = extents[token.primal_name]
            if token.is_primal:
                factor = self.block_factor(token.name)
                if factor:
                    if extent % factor:
                        raise LayoutError(
                            f"extent {extent} of axis {token.name!r} not "
                            f"divisible by block factor {factor}"
                        )
                    shape.append(extent // factor)
                else:
                    shape.append(extent)
            else:
                shape.append(token.factor)
        return tuple(shape)

    def logical_shape(self, concrete_shape: Sequence[int]) -> Tuple[int, ...]:
        """Inverse of :meth:`blocked_shape`."""
        if len(concrete_shape) != len(self._tokens):
            raise LayoutError(
                f"concrete shape {tuple(concrete_shape)} does not match "
                f"layout {self} with {len(self._tokens)} dims"
            )
        extents: Dict[str, int] = {}
        for token, extent in zip(self._tokens, concrete_shape):
            extents[token.primal_name] = extents.get(token.primal_name, 1) * extent
        return tuple(extents[name] for name in self.primal_axes)

    def convertible_to(self, other: "Layout") -> bool:
        """Two layouts are convertible when they share the same primal axes."""
        return set(self.primal_axes) == set(other.primal_axes)

    # ------------------------------------------------------------------ #
    # dunder
    # ------------------------------------------------------------------ #
    def __str__(self) -> str:
        return self._str

    def __repr__(self) -> str:
        return f"Layout({self._str!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, str):
            try:
                other = Layout(other)
            except LayoutError:
                return NotImplemented
        if not isinstance(other, Layout):
            return NotImplemented
        return self._str == other._str

    def __hash__(self) -> int:
        return hash(self._str)
