"""Convolution schedule substrate: workloads, template configs, candidates.

Implements the configurable template of section 3.1.1 of the paper and the
candidate space of section 3.3.1.
"""

from .candidates import (
    DEFAULT_REG_N_CANDIDATES,
    candidate_count,
    candidate_ic_bn,
    candidate_oc_bn,
    candidate_reg_n,
    factors,
    generate_candidates,
)
from .loopnest import conv_parallel_chunks
from .template import ConvSchedule, default_schedule, validate_schedule
from .workload import ConvWorkload, DenseWorkload

__all__ = [
    "DEFAULT_REG_N_CANDIDATES",
    "ConvSchedule",
    "ConvWorkload",
    "DenseWorkload",
    "candidate_count",
    "candidate_ic_bn",
    "candidate_oc_bn",
    "candidate_reg_n",
    "conv_parallel_chunks",
    "default_schedule",
    "factors",
    "generate_candidates",
    "validate_schedule",
]
