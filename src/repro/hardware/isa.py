"""SIMD instruction-set descriptions.

Section 2.1 of the paper motivates the operation template with the SIMD/FMA
capabilities of modern CPUs: AVX-512 (16 fp32 lanes, 32 vector registers),
AVX2 (8 fp32 lanes, 16 registers) and ARM NEON (4 fp32 lanes, 32 registers).
The schedule template and the cost model both consult these descriptions to
pick block sizes (`oc_bn` should be a multiple of the lane count) and to
bound the register-blocking factor ``reg_n``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ISA", "AVX512", "AVX2", "NEON", "SSE4"]


@dataclass(frozen=True)
class ISA:
    """A SIMD instruction set extension.

    Attributes:
        name: canonical name, e.g. ``"avx512"``.
        vector_bits: width of one vector register in bits.
        num_vector_registers: architectural vector register count available to
            the register allocator (ZMM0-31 for AVX-512, Q0-31 for NEON, ...).
        fma_units: number of vector FMA execution units per core (ports).
        has_fma: whether fused multiply-add is a single instruction.
    """

    name: str
    vector_bits: int
    num_vector_registers: int
    fma_units: int = 2
    has_fma: bool = True

    def lanes(self, dtype_bits: int = 32) -> int:
        """Number of elements of a ``dtype_bits``-wide type per register."""
        return max(1, self.vector_bits // dtype_bits)

    def flops_per_cycle(self, dtype_bits: int = 32) -> int:
        """Peak floating point operations per cycle per core.

        One FMA counts as two flops; with ``fma_units`` vector FMA pipes each
        retiring ``lanes`` FMAs per cycle.
        """
        mul_add = 2 if self.has_fma else 1
        return self.lanes(dtype_bits) * self.fma_units * mul_add

    def max_unroll_registers(self) -> int:
        """Registers usable for output accumulation in the conv micro-kernel.

        The template keeps one register for the broadcast kernel value and a
        couple for address computation/spills, leaving the rest for the
        ``reg_n`` output accumulators (section 3.1.1, Figure 1).
        """
        return max(2, self.num_vector_registers - 4)


AVX512 = ISA(name="avx512", vector_bits=512, num_vector_registers=32, fma_units=2)
AVX2 = ISA(name="avx2", vector_bits=256, num_vector_registers=16, fma_units=2)
NEON = ISA(name="neon", vector_bits=128, num_vector_registers=32, fma_units=1)
SSE4 = ISA(name="sse4", vector_bits=128, num_vector_registers=16, fma_units=1)
