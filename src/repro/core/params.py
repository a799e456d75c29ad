"""FAB hardware configuration (§3–§4 of the paper).

:class:`FabConfig` captures every microarchitectural constant the paper
reports for the Xilinx Alveo U280 implementation: the 256 functional
units at 300 MHz, the functional-unit latencies, the URAM/BRAM bank
geometry (43 MB on-chip), the 2 MB register file, the 32-port HBM2 at
460 GB/s, and the 100G CMAC subsystem.  The performance model, the
resource model (Table 3) and the datapath schedulers all derive their
numbers from this one dataclass, so alternative FPGAs can be modelled by
instantiating a different config.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class FheParams:
    """The FHE parameter point the accelerator is configured for.

    Defaults are the paper's Table 2 set: N = 2^16, log q = 54, L = 23,
    dnum = 3, fftIter = 4, 128-bit security at log(PQ) = 1728.
    """

    ring_degree: int = 1 << 16
    limb_bits: int = 54
    num_limbs: int = 24           # L + 1
    dnum: int = 3
    fft_iter: int = 4
    eval_mod_depth: int = 9       # Bossuat et al. polynomial depth

    @property
    def alpha(self) -> int:
        """Limbs per key-switching digit."""
        return (self.num_limbs + self.dnum - 1) // self.dnum

    @property
    def num_extension_limbs(self) -> int:
        """Extension limbs of P (the paper raises 24 -> 32 limbs)."""
        return self.alpha

    @property
    def max_raised_limbs(self) -> int:
        """Limbs of a raised (mod-up) polynomial: L + 1 + alpha."""
        return self.num_limbs + self.num_extension_limbs

    @property
    def bootstrap_depth(self) -> int:
        """LBoot = 2 * fftIter + eval-mod depth (§2.1.4)."""
        return 2 * self.fft_iter + self.eval_mod_depth

    @property
    def levels_after_bootstrap(self) -> int:
        """Compute levels remaining after one bootstrap."""
        return max(self.num_limbs - 1 - self.bootstrap_depth, 0)

    @property
    def limb_bytes(self) -> int:
        """Bytes of one limb (N coefficients of limb_bits each)."""
        return self.ring_degree * self.limb_bits // 8

    @property
    def ciphertext_bytes(self) -> int:
        """Bytes of a (non-raised) two-element ciphertext."""
        return 2 * self.num_limbs * self.limb_bytes

    @property
    def max_ciphertext_bytes(self) -> int:
        """Bytes of a fully raised ciphertext (the paper's 28.3 MB)."""
        return 2 * self.max_raised_limbs * self.limb_bytes

    @property
    def log_pq(self) -> int:
        """log2(P*Q) — the security-relevant modulus."""
        return self.limb_bits * self.max_raised_limbs


@dataclass(frozen=True)
class FabConfig:
    """Microarchitecture of the FAB accelerator on the Alveo U280."""

    # Clocks.
    clock_hz: float = 300e6            # kernel clock
    mem_clock_hz: float = 450e6        # HBM-side AXI clock

    # Compute.
    num_functional_units: int = 256
    mod_add_cycles: int = 7            # multi-word 27-bit DSP adds
    int_mult_cycles: int = 12          # unrolled operand scanning
    mod_reduce_cycles: int = 12        # Algorithm 1 with shifts = 6

    # On-chip memory (see memory.py for the bank geometry).
    uram_blocks_total: int = 962
    uram_blocks_used: int = 960
    uram_block_kbits: int = 288
    bram_blocks_total: int = 4032
    bram_blocks_used: int = 3840
    bram_block_kbits: int = 18
    register_file_bytes: int = 2 * 1024 * 1024

    # HBM2 subsystem.
    hbm_ports: int = 32
    hbm_port_bits: int = 256
    hbm_total_gb: int = 8
    hbm_efficiency: float = 0.85       # achievable fraction of peak
    hbm_read_latency_cycles: int = 300  # key-fetch latency (§4.6)

    # CMAC TX/RX FIFO width (§4.4): bounds the kernel-side link rate.
    tx_rx_fifo_width_bits: int = 512

    # CMAC / Ethernet (§3).
    ethernet_gbps: float = 100.0
    ethernet_overhead: float = 0.074   # framing/protocol overhead

    #: Fraction of serial task-graph cycles remaining after FAB's
    #: fine-grained pipelining (§4.1: "maximal pipelining ... issuing
    #: multiple scalar operations in a single cycle").  The task graphs
    #: model overlap at whole-kernel granularity; consecutive limbs of
    #: NTT / element-wise streams additionally overlap inside the FU
    #: pipeline.  Calibrated against Table 5 (Mult 1.71 ms).
    fine_grain_overlap: float = 0.75

    # FPGA totals for utilization reporting (U280).
    luts_available: int = 1_304_000
    ffs_available: int = 2_607_000
    dsps_available: int = 9_024
    dsp_per_modmult: int = 20          # 5120 DSPs / 256 FUs

    fhe: FheParams = field(default_factory=FheParams)

    def __post_init__(self):
        # Fail at construction, not deep inside a sweep worker: every
        # derived quantity below divides or scales by these.
        for name in ("clock_hz", "mem_clock_hz",
                     "num_functional_units", "hbm_ports",
                     "hbm_port_bits", "hbm_total_gb", "ethernet_gbps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.hbm_efficiency <= 1.0:
            raise ValueError("hbm_efficiency must be in (0, 1]")
        if not 0.0 <= self.ethernet_overhead < 1.0:
            raise ValueError("ethernet_overhead must be in [0, 1)")
        if not 0.0 < self.fine_grain_overlap <= 1.0:
            raise ValueError("fine_grain_overlap must be in (0, 1]")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def butterflies_per_cycle(self) -> int:
        """Radix-2 butterflies per cycle: every FU contributes one."""
        return self.num_functional_units

    @property
    def coefficients_per_cycle(self) -> int:
        """NTT coefficients processed per cycle (512 in the paper)."""
        return 2 * self.num_functional_units

    @property
    def mod_mult_cycles(self) -> int:
        """Latency of a full modular multiply (integer mult + reduce)."""
        return self.int_mult_cycles + self.mod_reduce_cycles

    @property
    def hbm_peak_bytes_per_sec(self) -> float:
        """Peak HBM bandwidth: 32 ports x 256 b x 450 MHz = 460.8 GB/s."""
        return self.hbm_ports * self.hbm_port_bits * self.mem_clock_hz / 8.0

    @property
    def hbm_effective_bytes_per_sec(self) -> float:
        """Achievable HBM bandwidth."""
        return self.hbm_peak_bytes_per_sec * self.hbm_efficiency

    @property
    def uram_bytes(self) -> int:
        """On-chip URAM capacity in bytes."""
        return self.uram_blocks_used * self.uram_block_kbits * 1024 // 8

    @property
    def bram_bytes(self) -> int:
        """On-chip BRAM capacity in bytes."""
        return self.bram_blocks_used * self.bram_block_kbits * 1024 // 8

    @property
    def onchip_bytes(self) -> int:
        """Total on-chip memory (the paper's 43 MB)."""
        return self.uram_bytes + self.bram_bytes

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert kernel-clock cycles to wall-clock seconds."""
        return cycles / self.clock_hz

    def seconds_to_cycles(self, seconds: float) -> float:
        """Convert seconds to kernel-clock cycles."""
        return seconds * self.clock_hz

    def with_fhe(self, **kwargs) -> "FabConfig":
        """A copy of this config with modified FHE parameters."""
        return replace(self, fhe=replace(self.fhe, **kwargs))


#: The paper's evaluation configuration.
DEFAULT_CONFIG = FabConfig()


def heax_comparison_config() -> FabConfig:
    """The Table 6 comparison point: N = 2^14, log Q = 438 (8 limbs)."""
    return DEFAULT_CONFIG.with_fhe(ring_degree=1 << 14, num_limbs=8,
                                   limb_bits=54)


def alveo_u50_config() -> FabConfig:
    """A smaller-FPGA port target (§4.6: "can be ported to smaller
    FPGAs as long as one limb of the key and the ciphertext polynomial
    fit in on-chip memory").

    The Alveo U50 has roughly half the U280's memory resources and the
    same HBM2 generation at lower bandwidth.
    """
    return replace(
        DEFAULT_CONFIG,
        uram_blocks_total=640, uram_blocks_used=640,
        bram_blocks_total=2688, bram_blocks_used=2560,
        hbm_total_gb=8, hbm_ports=32,
        mem_clock_hz=450e6,
        luts_available=872_000, ffs_available=1_743_000,
        dsps_available=5_952,
        num_functional_units=128)


def smallest_viable_config() -> FabConfig:
    """A deliberately tiny FPGA: below the paper's porting threshold.

    Used by tests to show that the feasibility analysis correctly
    rejects devices that cannot hold even one key limb + one ciphertext
    limb on chip.
    """
    return replace(
        DEFAULT_CONFIG,
        uram_blocks_total=8, uram_blocks_used=8,
        bram_blocks_total=64, bram_blocks_used=64,
        num_functional_units=32)
