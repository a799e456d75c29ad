"""Program-level scheduling: whole workloads on the FAB resources.

The per-operation models in :mod:`repro.core.ops` already overlap key
fetches inside one KeySwitch; this module models entire *programs*
(an LR iteration, a bootstrap) as one task graph so the cross-operation
effects become visible: switching-key prefetch for the *next* operation
runs under the current one's compute, which is how FAB keeps HBM
traffic homogeneous (§4.6) and the functional units fed.

The prefetch on/off comparison quantifies that claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .hbm import HbmModel
from .ops import FabOpModel
from .params import FabConfig
from .scheduler import TaskGraph

#: Operation kinds a program may contain.  Each names a
#: :class:`repro.core.ops.FabOpModel` method that prices it;
#: ``ntt_poly`` (a full-polynomial NTT, the ModRaise primitive) is
#: included so lowered bootstrap traces can be scheduled.
OP_KINDS = ("add", "multiply", "multiply_plain", "rescale", "rotate",
            "rotate_hoisted", "conjugate", "ntt_poly")


@dataclass(frozen=True)
class ProgramOp:
    """One homomorphic operation in a program."""

    kind: str
    level: int

    def __post_init__(self):
        if self.kind not in OP_KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}; "
                             f"choose from {OP_KINDS}")


#: Interned (kind, level) -> ProgramOp.  A lowered bootstrap trace is
#: thousands of ops drawn from a few dozen distinct (kind, level)
#: pairs; sharing one immutable record per pair keeps append() cheap.
_OP_INTERN: Dict[tuple, ProgramOp] = {}

#: config -> {(kind, level): (compute_cycles, fetch_cycles)}.  The op
#: models walk the NTT/key-switch datapaths on every call, which used
#: to dominate lowering; configs are frozen dataclasses, so the priced
#: result is reusable across every program built for the same config.
#: The config is hashed once per program (in ``__init__``), not per op.
_OP_COST_CACHE: Dict["FabConfig", Dict[tuple, tuple]] = {}


@dataclass
class ProgramReport:
    """Scheduling outcome for one program: a summary that keeps no
    tasks (callers that need them schedule ``compile(prefetch)``)."""

    cycles: int
    fu_busy: int
    hbm_busy: int
    num_ops: int

    def seconds(self, config: FabConfig) -> float:
        return config.cycles_to_seconds(self.cycles)

    @property
    def fu_utilization(self) -> float:
        return self.fu_busy / self.cycles if self.cycles else 0.0

    @property
    def hbm_utilization(self) -> float:
        return self.hbm_busy / self.cycles if self.cycles else 0.0


class FabProgram:
    """A sequence of homomorphic operations to schedule on FAB."""

    def __init__(self, config: Optional[FabConfig] = None):
        self.config = config or FabConfig()
        self.model = FabOpModel(self.config)
        self.hbm = HbmModel(self.config)
        self.ops: List[ProgramOp] = []
        self._cost_cache = _OP_COST_CACHE.setdefault(self.config, {})

    def append(self, kind: str, level: Optional[int] = None) -> "FabProgram":
        """Add an operation (chainable)."""
        level = level if level is not None else self.config.fhe.num_limbs
        op = _OP_INTERN.get((kind, level))
        if op is None:
            op = _OP_INTERN[(kind, level)] = ProgramOp(kind, level)
        self.ops.append(op)
        return self

    def extend(self, kinds: Sequence[str],
               level: Optional[int] = None) -> "FabProgram":
        """Add several operations at one level."""
        for kind in kinds:
            self.append(kind, level)
        return self

    def __len__(self) -> int:
        return len(self.ops)

    # ------------------------------------------------------------------
    # Prebuilt programs
    # ------------------------------------------------------------------

    @classmethod
    def lr_iteration(cls, config: Optional[FabConfig] = None,
                     num_ciphertexts: int = 32,
                     update_level: int = 6) -> "FabProgram":
        """The update phase of one HELR iteration (§5.5)."""
        program = cls(config)
        for _ in range(num_ciphertexts):
            program.extend(["multiply_plain", "multiply_plain", "add",
                            "add", "add"], update_level)
        program.append("rotate", update_level)
        for _ in range(7):
            program.append("rotate_hoisted", update_level)
        for _ in range(3):
            program.extend(["multiply", "rescale"], update_level)
        program.extend(["multiply", "add"], update_level)
        return program

    @classmethod
    def rotation_burst(cls, config: Optional[FabConfig] = None,
                       count: int = 8,
                       level: Optional[int] = None) -> "FabProgram":
        """A burst of rotations (a linear transform's skeleton)."""
        program = cls(config)
        program.append("rotate", level)
        for _ in range(count - 1):
            program.append("rotate_hoisted", level)
        return program

    # ------------------------------------------------------------------
    # Compilation and scheduling
    # ------------------------------------------------------------------

    def _op_costs(self, op: ProgramOp):
        """(compute, fetch) cycles, memoized on (config, kind, level)."""
        key = (op.kind, op.level)
        cached = self._cost_cache.get(key)
        if cached is not None:
            return cached
        report = getattr(self.model, op.kind)(op.level)
        fetch_cycles = (self.hbm.transfer_cycles(report.hbm_bytes,
                                                 include_latency=True)
                        if report.hbm_bytes else 0)
        compute_cycles = max(report.cycles, 1)
        self._cost_cache[key] = (compute_cycles, fetch_cycles)
        return compute_cycles, fetch_cycles

    def op_cost(self, kind: str, level: int):
        """Public (compute, fetch) cycles for one op on this config.

        Shares the per-config memo with :meth:`compile`, so external
        graph builders (the striped multi-FPGA lowering) price ops
        exactly as the single-board path does.
        """
        op = _OP_INTERN.get((kind, level))
        if op is None:
            op = _OP_INTERN[(kind, level)] = ProgramOp(kind, level)
        return self._op_costs(op)

    def compile(self, prefetch: bool = True) -> TaskGraph:
        """Build the task graph.

        With ``prefetch=True`` key fetches depend only on HBM
        availability (the scheduler serializes the HBM resource), so
        they run under earlier compute; with ``prefetch=False`` each
        fetch waits for the previous operation to finish — the naive
        schedule FAB's smart scheduling avoids.
        """
        graph = TaskGraph()
        prev_compute: Optional[str] = None
        for idx, op in enumerate(self.ops):
            compute_cycles, fetch_cycles = self._op_costs(op)
            deps = []
            if fetch_cycles:
                fetch_deps = []
                if not prefetch and prev_compute is not None:
                    fetch_deps.append(prev_compute)
                graph.add(f"fetch{idx}", "hbm", fetch_cycles,
                          deps=fetch_deps)
                deps.append(f"fetch{idx}")
            if prev_compute is not None:
                deps.append(prev_compute)
            graph.add(f"op{idx}_{op.kind}", "fu", compute_cycles,
                      deps=deps)
            prev_compute = f"op{idx}_{op.kind}"
        return graph

    def schedule(self, prefetch: bool = True) -> ProgramReport:
        """Schedule the program and summarize."""
        result = self.compile(prefetch).schedule()
        fu = result.resources.get("fu")
        hbm = result.resources.get("hbm")
        return ProgramReport(
            cycles=result.makespan,
            fu_busy=fu.busy_cycles if fu else 0,
            hbm_busy=hbm.busy_cycles if hbm else 0,
            num_ops=len(self.ops))

    def prefetch_benefit(self) -> float:
        """Speedup of prefetching over the naive fetch-then-compute."""
        with_prefetch = self.schedule(prefetch=True).cycles
        without = self.schedule(prefetch=False).cycles
        return without / with_prefetch if with_prefetch else 1.0
