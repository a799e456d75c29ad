"""Host-side system model (§3): CPU, PCIe, XRT kernel launch.

The overall system view of Figure 3: an x86 host holds the datasets,
offloads them over PCIe into the FPGA's HBM global memory, communicates
kernel arguments (prime moduli, N, precomputed scalars) through AXI4-
Lite atomic register writes, and starts the kernel through the XRT
runtime.  Once the kernel runs, no host transfer happens until results
return.

The model quantifies the one-time offload cost against the compute it
amortizes over — e.g. the 6.65 GB of LR ciphertexts and keys (§5.5)
against 30 training iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .params import FabConfig


@dataclass(frozen=True)
class HostConfig:
    """Host/link characteristics."""

    pcie_gbytes_per_sec: float = 16.0      # PCIe gen3 x16 effective
    pcie_latency_s: float = 10e-6
    kernel_launch_overhead_s: float = 50e-6   # XRT start + handshake
    register_write_s: float = 1e-6           # one AXI4-Lite atomic write
    result_readback_bytes: int = 0

    def __post_init__(self):
        # A key load must never get cheaper as more bytes miss: the
        # serving admission bounds rest on it.
        if self.pcie_gbytes_per_sec <= 0 or self.pcie_latency_s < 0:
            raise ValueError("PCIe bandwidth must be positive and its "
                             "latency non-negative")


@dataclass
class OffloadPlan:
    """What the host ships to the FPGA before kernel start."""

    ciphertext_bytes: int = 0
    key_bytes: int = 0
    plaintext_bytes: int = 0
    scalar_arguments: int = 0

    @property
    def total_bytes(self) -> int:
        return (self.ciphertext_bytes + self.key_bytes
                + self.plaintext_bytes)


class HostInterface:
    """Models the host <-> FPGA interaction of Figure 3."""

    def __init__(self, fab_config: Optional[FabConfig] = None,
                 host_config: Optional[HostConfig] = None):
        self.fab = fab_config or FabConfig()
        self.host = host_config or HostConfig()

    # ------------------------------------------------------------------
    # Costs
    # ------------------------------------------------------------------

    def offload_seconds(self, plan: OffloadPlan) -> float:
        """Time to populate HBM and write the kernel arguments."""
        transfer = plan.total_bytes / (self.host.pcie_gbytes_per_sec * 1e9)
        registers = plan.scalar_arguments * self.host.register_write_s
        return transfer + registers + self.host.pcie_latency_s

    def launch_seconds(self) -> float:
        """XRT kernel-start overhead."""
        return self.host.kernel_launch_overhead_s

    def readback_seconds(self, num_bytes: int) -> float:
        """Result transfer back to the host after kernel completion."""
        return (num_bytes / (self.host.pcie_gbytes_per_sec * 1e9)
                + self.host.pcie_latency_s)

    def fits_in_hbm(self, plan: OffloadPlan) -> bool:
        """The offload must fit the 8 GB of device global memory."""
        return plan.total_bytes <= self.fab.hbm_total_gb * (1 << 30)

    # ------------------------------------------------------------------
    # Workload plans
    # ------------------------------------------------------------------

    def lr_training_plan(self, num_ciphertexts: int = 1024,
                         num_rotation_keys: int = 10,
                         ciphertext_limbs: int = 6) -> OffloadPlan:
        """The §5.5 offload: ciphertexts + switching keys (~6.65 GB).

        The LR ciphertexts are sparsely packed and live at the
        iteration working level (~6 limbs), not the full chain.
        """
        fhe = self.fab.fhe
        ct_bytes = num_ciphertexts * 2 * ciphertext_limbs * fhe.limb_bytes
        key_bytes = (2 + num_rotation_keys) * (
            2 * fhe.dnum * fhe.max_raised_limbs * fhe.limb_bytes)
        # System parameters: prime moduli, N, madd tables, twiddle seeds.
        scalars = fhe.max_raised_limbs * 70
        return OffloadPlan(ciphertext_bytes=ct_bytes, key_bytes=key_bytes,
                           scalar_arguments=scalars)

    def amortized_offload_fraction(self, plan: OffloadPlan,
                                   compute_seconds: float) -> float:
        """Offload time as a fraction of the compute it serves.

        The paper's design point: the one-time offload (plus kernel
        launch) is negligible against a 30-iteration training run, which
        is why FAB keeps the host out of the loop entirely.
        """
        overhead = self.offload_seconds(plan) + self.launch_seconds()
        return overhead / (overhead + compute_seconds)
