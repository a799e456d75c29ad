"""The FAB accelerator model: the paper's primary contribution.

Public API:

* :class:`FabConfig` / :class:`FheParams` — hardware + FHE configuration.
* :class:`HostConfig` — PCIe and kernel-launch constants for serving.
* :class:`FabOpModel` — cycle costs for every CKKS op and bootstrapping.
* :class:`KeySwitchDatapath` — original vs modified datapath (Fig. 5).
* :class:`NttDatapath` — the unified NTT pipeline (§4.5).
* :class:`HbmModel` — HBM2 bandwidth and key-fetch latency (§5.1).
* :class:`OnChipMemory` — URAM/BRAM bank model (§4.2).
* :class:`TaskGraph` / :class:`FabProgram` — scheduling with key prefetch.
* :class:`PortStriper` — HBM port striping policies (§4.6).
* :class:`FabResources` — Table 3 utilization accounting.
* :class:`MultiFpgaSystem` — FAB-2 (8-board) scaling model.
"""

from .hbm import HbmModel, TrafficMeter
from .host import HostConfig
from .keyswitch_datapath import (KeySwitchDatapath, KeySwitchReport,
                                 compare_datapaths)
from .memory import CapacityError, MemoryBank, OnChipMemory, RegisterFile
from .multi_fpga import FpgaNode, MultiFpgaSystem
from .ntt_datapath import (NttDatapath, execute_schedule,
                           forward_stage_schedule)
from .ops import BootstrapReport, FabOpModel, OpReport
from .params import (DEFAULT_CONFIG, FabConfig, FheParams,
                     alveo_u50_config, heax_comparison_config,
                     smallest_viable_config)
from .program import FabProgram, ProgramOp, ProgramReport
from .resources import (AcceleratorFootprint, FabResources, ResourceReport,
                        table4_footprints)
from .scheduler import ScheduleResult, Task, TaskGraph
from .striping import (LimbTransfer, PortStriper, compare_striping_policies,
                       keyswitch_transfer_sequence)
from .trace import (format_bootstrap_report, format_op_report,
                    format_schedule, format_table)

__all__ = [
    "AcceleratorFootprint", "BootstrapReport", "CapacityError",
    "DEFAULT_CONFIG", "FabConfig", "FabOpModel", "FabProgram",
    "FabResources", "FheParams", "FpgaNode", "HbmModel", "HostConfig",
    "KeySwitchDatapath", "KeySwitchReport", "LimbTransfer", "MemoryBank",
    "MultiFpgaSystem", "NttDatapath", "OnChipMemory", "OpReport",
    "PortStriper", "ProgramOp", "ProgramReport", "RegisterFile",
    "ResourceReport", "ScheduleResult", "Task", "TaskGraph",
    "TrafficMeter", "alveo_u50_config", "compare_datapaths",
    "compare_striping_policies", "execute_schedule",
    "format_bootstrap_report", "format_op_report", "format_schedule",
    "format_table", "forward_stage_schedule", "heax_comparison_config",
    "keyswitch_transfer_sequence", "smallest_viable_config",
    "table4_footprints",
]
