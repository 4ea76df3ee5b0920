"""Cache hierarchy model.

The schedule template of section 3.1.1 chooses channel block sizes
(``ic_bn``/``oc_bn``) "relevant to the cache sizes of a specific CPU"
(section 3.3.1).  This module provides a small cache-hierarchy description and
helpers that the cost model uses to estimate whether the working set of the
convolution micro-kernel stays resident in L1/L2/L3 and what the effective
bandwidth to each level is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

__all__ = ["CacheLevel", "CacheHierarchy"]

#: Calibration knobs of :meth:`CacheHierarchy.residency_factor_batch`:
#: efficiency of a working set resident in each level, with fallbacks for
#: unnamed levels and for spills to DRAM.  They are calibration knobs for the
#: analytical model, not physical truths, chosen so that sensible blockings
#: (working set in L1/L2) clearly beat blockings that thrash.
_RESIDENCY_FACTORS = {"L1": 1.0, "L2": 0.85, "L3": 0.6}
_UNKNOWN_LEVEL_RESIDENCY = 0.5
_DRAM_RESIDENCY = 0.35


@dataclass(frozen=True)
class CacheLevel:
    """One level of the data-cache hierarchy.

    Attributes:
        name: e.g. ``"L1"``.
        size_bytes: capacity per core (private caches) or total (shared LLC).
        line_bytes: cache line size.
        latency_cycles: load-to-use latency.
        bandwidth_bytes_per_cycle: sustainable bytes per cycle per core.
        shared: True for a last-level cache shared by all cores.
    """

    name: str
    size_bytes: int
    line_bytes: int = 64
    latency_cycles: int = 4
    bandwidth_bytes_per_cycle: float = 64.0
    shared: bool = False


@dataclass(frozen=True)
class CacheHierarchy:
    """An ordered list of cache levels, closest (L1) first."""

    levels: Tuple[CacheLevel, ...] = field(default_factory=tuple)

    @classmethod
    def from_sizes(
        cls,
        l1_kib: float,
        l2_kib: float,
        l3_mib: float = 0.0,
        line_bytes: int = 64,
    ) -> "CacheHierarchy":
        """Build a conventional 2- or 3-level hierarchy from sizes."""
        levels: List[CacheLevel] = [
            CacheLevel("L1", int(l1_kib * 1024), line_bytes, 4, 128.0, False),
            CacheLevel("L2", int(l2_kib * 1024), line_bytes, 14, 64.0, False),
        ]
        if l3_mib > 0:
            levels.append(
                CacheLevel("L3", int(l3_mib * 1024 * 1024), line_bytes, 50, 32.0, True)
            )
        return cls(tuple(levels))

    def residency_factor_batch(self, nbytes: "np.ndarray") -> "np.ndarray":
        """A [0, 1] efficiency factor per working-set size in ``nbytes``.

        1.0 means the working set fits in L1 and reuse is essentially free;
        values shrink as the working set spills to outer levels or DRAM.
        """
        if not self.levels:  # everything spills to DRAM
            return np.full(np.shape(nbytes), _DRAM_RESIDENCY)
        conditions = [nbytes <= level.size_bytes for level in self.levels]
        choices = [
            _RESIDENCY_FACTORS.get(level.name, _UNKNOWN_LEVEL_RESIDENCY)
            for level in self.levels
        ]
        return np.select(conditions, choices, default=_DRAM_RESIDENCY)

    def __iter__(self):
        return iter(self.levels)

    def __len__(self) -> int:
        return len(self.levels)
