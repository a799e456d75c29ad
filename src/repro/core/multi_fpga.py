"""Multi-FPGA scaling: the FAB-2 system (§3, §5.5).

Eight Alveo U280 boards communicate directly over 100G Ethernet through
their CMAC subsystems (no host involvement).  Boards form primary/
secondary pairs, and one board acts as a broadcast master.  The paper
reports ~11,399 kernel cycles to transmit a single ciphertext limb and
~546,980 cycles for an entire ciphertext, with two communication rounds
(~12 ms total) per logistic-regression iteration.

Bootstrapping itself runs on a single board (parallelizing it across
boards is future work in the paper), so FAB-2's speedup over FAB-1 is
bounded by the serial bootstrap fraction — Amdahl's law, which
:meth:`MultiFpgaSystem.iteration_seconds` reproduces.

This module is the *analytic* (closed-form) model.  The trace-driven
counterpart lives in :mod:`repro.runtime.striped_lowering`: it shards
one captured :class:`~repro.runtime.optrace.OpTrace` across the pool,
injects CMAC gather/broadcast tasks priced by
:meth:`MultiFpgaSystem.limb_transmit_cycles`, and schedules the merged
graph on per-board lanes; ``repro stripe-scale`` reconciles the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .params import FabConfig


@dataclass(frozen=True)
class FpgaNode:
    """One board in the pool."""

    index: int
    role: str  # "master", "primary" or "secondary"

    @property
    def is_master(self) -> bool:
        return self.role == "master"


class MultiFpgaSystem:
    """Topology + communication model for a FAB-2 style pool."""

    def __init__(self, config: Optional[FabConfig] = None,
                 num_fpgas: int = 8):
        if num_fpgas < 1:
            raise ValueError("need at least one FPGA")
        if num_fpgas % 2 and num_fpgas > 1:
            raise ValueError("boards form primary/secondary pairs")
        self.config = config or FabConfig()
        self.num_fpgas = num_fpgas
        self.nodes = self._build_topology()

    def _build_topology(self) -> List[FpgaNode]:
        nodes = []
        for i in range(self.num_fpgas):
            if i == 0:
                role = "master"
            elif i % 2 == 0:
                role = "primary"
            else:
                role = "secondary"
            nodes.append(FpgaNode(i, role))
        return nodes

    @property
    def pairs(self) -> List[Tuple[FpgaNode, FpgaNode]]:
        """Primary/secondary pairs for point-to-point transfers."""
        return [(self.nodes[i], self.nodes[i + 1])
                for i in range(0, self.num_fpgas - 1, 2)]

    # ------------------------------------------------------------------
    # Communication model
    # ------------------------------------------------------------------

    def limb_transmit_cycles(self) -> int:
        """Kernel cycles to ship one limb over the 100G link.

        The 512-bit kernel interface at 300 MHz could push ~153 Gb/s, so
        the Ethernet core's 100 Gb/s line rate (minus framing overhead)
        is the bottleneck — the paper's ~11,399 cycles per 0.44 MB limb.
        """
        c = self.config
        bits = c.fhe.ring_degree * c.fhe.limb_bits
        kernel_rate = c.tx_rx_fifo_width_bits * c.clock_hz
        eth_rate = c.ethernet_gbps * 1e9 * (1 - c.ethernet_overhead)
        rate = min(kernel_rate, eth_rate)
        return math.ceil(bits / rate * c.clock_hz)

    def ciphertext_transmit_cycles(self, level: Optional[float] = None
                                   ) -> int:
        """Cycles to ship a two-element ciphertext at ``level`` limbs.

        Defaults to the full computation chain (the paper's ~546,980
        cycles); the trace-driven striping passes the actual level at
        each synchronization point (a fractional mean level is accepted
        when reconciling several rounds at once), which is why the
        trace-driven communication bill undercuts the analytic one.
        """
        limbs = level if level is not None else self.config.fhe.num_limbs
        if limbs < 1:
            raise ValueError("level must be >= 1")
        return math.ceil(2 * limbs * self.limb_transmit_cycles())

    def communication_seconds_per_iteration(
            self, rounds: int = 2,
            level: Optional[float] = None) -> float:
        """Inter-FPGA communication per LR iteration (~12 ms, §5.5).

        ``level`` prices the shipped ciphertexts at a given limb count
        (default: the full chain, the paper's figure); the trace-driven
        reconciliation passes the level at its sync points.
        """
        per_round = self.ciphertext_transmit_cycles(level)
        # Each round is a log2(pool)-deep tree of ciphertext hops.
        cycles = rounds * per_round * math.ceil(math.log2(
            max(self.num_fpgas, 2)))
        return self.config.cycles_to_seconds(cycles)

    # ------------------------------------------------------------------
    # Amdahl scaling
    # ------------------------------------------------------------------

    def iteration_seconds(self, single_fpga_seconds: float,
                          serial_seconds: float,
                          rounds: int = 2,
                          level: Optional[float] = None) -> float:
        """FAB-2 iteration time from the FAB-1 time.

        ``serial_seconds`` is the non-parallelizable part (bootstrapping
        on a single board); the rest divides across the pool; inter-board
        communication is added on top.
        """
        if single_fpga_seconds < serial_seconds:
            raise ValueError("serial fraction exceeds total time")
        parallel = single_fpga_seconds - serial_seconds
        return (serial_seconds + parallel / self.num_fpgas
                + self.communication_seconds_per_iteration(rounds, level))

    def speedup(self, single_fpga_seconds: float,
                serial_seconds: float,
                rounds: int = 2,
                level: Optional[float] = None) -> float:
        """FAB-2 speedup over FAB-1 for the same workload.

        ``rounds`` is the number of gather/broadcast rounds per
        iteration (2 for LR, §5.5); the trace-driven reconciliation in
        ``repro stripe-scale`` passes the number of synchronization
        rounds its striping actually injected and the ciphertext level
        they shipped at.
        """
        return single_fpga_seconds / self.iteration_seconds(
            single_fpga_seconds, serial_seconds, rounds, level)
