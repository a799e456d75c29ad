"""Host-side link constants (§3): PCIe and XRT kernel launch.

The overall system view of Figure 3: an x86 host holds the datasets and
keys, ships them over PCIe into the FPGA's HBM global memory, and starts
the kernel through the XRT runtime.  Once the kernel runs, no host
transfer happens until results return.

:class:`HostConfig` holds the link's bandwidth and latency and the
kernel-launch overhead.  The serving simulator prices every switching-key
load and launch from it (``repro.runtime.serving.key_load_seconds``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HostConfig:
    """Host/link characteristics."""

    pcie_gbytes_per_sec: float = 16.0      # PCIe gen3 x16 effective
    pcie_latency_s: float = 10e-6
    kernel_launch_overhead_s: float = 50e-6   # XRT start + handshake

    def __post_init__(self):
        # A key load must never get cheaper as more bytes miss: the
        # serving admission bounds rest on it.
        if self.pcie_gbytes_per_sec <= 0 or self.pcie_latency_s < 0:
            raise ValueError("PCIe bandwidth must be positive and its "
                             "latency non-negative")
