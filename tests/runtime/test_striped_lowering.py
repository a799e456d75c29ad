"""Striped multi-FPGA lowering: property suite + golden reconciliation.

Three layers of defense, per the multi-node-HPC lesson that
communication modeling is where analytic and measured behavior
diverge:

* Hypothesis properties over random traces/plans/policies: work
  conservation (striping never loses or invents compute), exact
  kind-by-kind shard accounting, and bit-identity of the
  ``num_fpgas=1`` path with the plain single-board lowering.
* Structural unit tests for plans, policies, and the CMAC
  synchronization rounds.
* A golden reconciliation of the trace-driven 2/4/8-board speedup
  against ``MultiFpgaSystem.speedup`` with the tolerance asserted both
  ways: the even-split point is pinned *exact*, the uneven-split
  points are pinned to differ (granularity the closed form cannot
  see) while staying inside the tolerance band.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FabConfig
from repro.core.multi_fpga import MultiFpgaSystem
from repro.runtime import (BOARD_POLICIES, BoardStriper, OpTrace,
                           StripePlan, TraceSection, cost_striped_trace,
                           infer_plan, key_working_set,
                           lower_striped_trace, lower_trace,
                           lr_iteration_trace, stripe_trace,
                           switching_key_bytes)

CONFIG = FabConfig()


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

_KINDS = ("add", "sub", "negate", "multiply", "square",
          "multiply_plain", "rescale", "rotate", "rotate_hoisted",
          "conjugate", "mod_down", "ntt_poly")


@st.composite
def _op_records(draw):
    kind = draw(st.sampled_from(_KINDS))
    level = draw(st.integers(min_value=1, max_value=24))
    step = (draw(st.integers(min_value=1, max_value=16))
            if kind in ("rotate", "rotate_hoisted") else None)
    return kind, level, step


@st.composite
def _traces(draw):
    records = draw(st.lists(_op_records(), min_size=1, max_size=48))
    trace = OpTrace("hyp")
    for kind, level, step in records:
        trace.record(kind, level, step)
    return trace


@st.composite
def _plans(draw, trace):
    """Either the inferred plan or a random explicit section tiling."""
    if draw(st.booleans()):
        return infer_plan(trace, min_repetitions=draw(
            st.integers(min_value=2, max_value=6)))
    segments = []
    remaining = len(trace)
    while remaining:
        size = draw(st.integers(min_value=1, max_value=remaining))
        parallel = draw(st.booleans())
        group = draw(st.integers(min_value=1, max_value=size))
        segments.append((size, parallel, group))
        remaining -= size
    return StripePlan.chain(segments)


@st.composite
def _stripe_cases(draw):
    trace = draw(_traces())
    plan = draw(_plans(trace))
    num_fpgas = draw(st.sampled_from((2, 4, 8)))
    policy = draw(st.sampled_from(BOARD_POLICIES))
    return trace, plan, num_fpgas, policy


# ----------------------------------------------------------------------
# Hypothesis properties
# ----------------------------------------------------------------------

class TestStripedProperties:
    @settings(max_examples=60, deadline=None)
    @given(_stripe_cases())
    def test_shard_op_counts_sum_kind_by_kind(self, case):
        """Sharding is a partition: per-board histograms sum to the
        unsharded histogram, kind by kind, nothing lost or invented."""
        trace, plan, num_fpgas, policy = case
        striped = stripe_trace(trace, num_fpgas, policy=policy,
                               plan=plan, config=CONFIG)
        assert len(striped.shards) == num_fpgas
        assert len(striped.assignment) == len(trace)
        merged = {}
        for counts in striped.board_op_counts():
            for kind, count in counts.items():
                merged[kind] = merged.get(kind, 0) + count
        assert merged == trace.op_counts()
        assert sum(len(s) for s in striped.shards) == len(trace)
        # Serial-section ops never leave the master board.
        for section in striped.plan.sections:
            if not section.parallel:
                assert all(striped.assignment[i] == 0
                           for i in range(section.start, section.stop))

    @settings(max_examples=40, deadline=None)
    @given(_stripe_cases())
    def test_striped_work_at_least_single_board(self, case):
        """Striping conserves compute/fetch work exactly and only ever
        *adds* communication, so total work >= single-board work."""
        trace, plan, num_fpgas, policy = case
        single = lower_trace(trace, CONFIG).schedule()
        report = lower_striped_trace(
            trace, num_fpgas, CONFIG, policy=policy,
            plan=plan).schedule()
        assert report.fu_busy == single.fu_busy
        assert report.hbm_busy == single.hbm_busy
        assert report.comm_busy >= 0
        assert report.total_work_cycles >= \
            single.fu_busy + single.hbm_busy
        assert report.num_ops == single.num_ops

    @settings(max_examples=40, deadline=None)
    @given(_traces())
    def test_num_fpgas_1_bit_identical_to_lower_trace(self, trace):
        """The single-board path through the striping machinery IS the
        plain lowering: same tasks, same starts, same finishes."""
        program = lower_striped_trace(trace, 1, CONFIG)
        striped_result = program.schedule()
        plain_program = lower_trace(trace, CONFIG)
        plain_result = plain_program.schedule()
        assert striped_result.cycles == plain_result.cycles
        assert striped_result.comm_rounds == 0
        assert striped_result.comm_busy == 0
        got = {name: (t.resource, t.cycles, t.start, t.finish, t.deps)
               for name, t in striped_result.schedule.tasks.items()}
        plain_tasks = plain_program.compile(True).schedule().tasks
        want = {name: (t.resource, t.cycles, t.start, t.finish, t.deps)
                for name, t in plain_tasks.items()}
        assert got == want

    @settings(max_examples=20, deadline=None)
    @given(_stripe_cases())
    def test_deterministic(self, case):
        """Same inputs, same schedule — including the hash policy,
        whose crc32 base is process-independent."""
        trace, plan, num_fpgas, policy = case
        a = lower_striped_trace(trace, num_fpgas, CONFIG,
                                policy=policy, plan=plan).schedule()
        b = lower_striped_trace(trace, num_fpgas, CONFIG,
                                policy=policy, plan=plan).schedule()
        assert a.cycles == b.cycles
        assert a.comm_rounds == b.comm_rounds
        assert a.comm_busy == b.comm_busy


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------

class TestStripePlan:
    def test_infer_detects_lr_update_batch(self):
        trace = lr_iteration_trace(num_ciphertexts=32)
        plan = infer_plan(trace)
        parallel = [s for s in plan.sections if s.parallel]
        assert parallel[0].start == 0
        assert parallel[0].num_ops == 32 * 5
        assert parallel[0].group_size == 5

    def test_infer_keeps_short_chains_serial(self):
        """The degree-3 sigmoid's three multiply/rescale pairs are a
        dependent chain — below min_repetitions, so serial."""
        trace = OpTrace()
        for _ in range(3):
            trace.record("multiply", 6)
            trace.record("rescale", 6)
        plan = infer_plan(trace, min_repetitions=4)
        assert all(not s.parallel for s in plan.sections)

    def test_chain_tiles_and_validates(self):
        plan = StripePlan.chain([(4, False, 1), (10, True, 2),
                                 (0, True, 1), (3, False, 1)])
        assert plan.num_ops == 17
        assert plan.serial_op_count == 7
        assert plan.parallel_op_count == 10
        with pytest.raises(ValueError):
            StripePlan((TraceSection(1, 3, False),))   # gap at 0
        with pytest.raises(ValueError):
            TraceSection(3, 3, True)                   # empty range

    def test_plan_must_cover_trace(self):
        trace = OpTrace()
        trace.record("add", 5)
        trace.record("add", 5)
        with pytest.raises(ValueError):
            stripe_trace(trace, 2, plan=StripePlan.all_serial(1),
                         config=CONFIG)


# ----------------------------------------------------------------------
# Board assignment policies
# ----------------------------------------------------------------------

class TestBoardStriper:
    def test_round_robin_even_split(self):
        striper = BoardStriper(4, "round_robin", CONFIG)
        boards = [striper.board_for("sec0", i, i) for i in range(16)]
        assert striper.group_counts(boards) == {0: 4, 1: 4, 2: 4, 3: 4}
        assert striper.imbalance(boards) == 1.0

    def test_single_board_is_master_only(self):
        striper = BoardStriper(8, "single_board", CONFIG)
        boards = [striper.board_for("sec0", i, i) for i in range(10)]
        assert set(boards) == {0}
        assert striper.imbalance(boards) == 8.0

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            BoardStriper(4, "lottery", CONFIG)

    def test_odd_pool_rejected(self):
        trace = OpTrace()
        trace.record("add", 5)
        with pytest.raises(ValueError):
            stripe_trace(trace, 3, config=CONFIG)


# ----------------------------------------------------------------------
# Communication structure
# ----------------------------------------------------------------------

class TestCommRounds:
    def _training_like(self):
        """serial prologue -> parallel batch -> serial tail."""
        trace = OpTrace("mini")
        for _ in range(4):
            trace.record("multiply", 8)
        for _ in range(16):
            trace.record("multiply_plain", 6)
            trace.record("add", 6)
        for _ in range(2):
            trace.record("rotate", 6, step=1)
        plan = StripePlan.chain([(4, False, 1), (32, True, 2),
                                 (2, False, 1)])
        return trace, plan

    def test_serial_parallel_serial_costs_two_rounds(self):
        trace, plan = self._training_like()
        report = lower_striped_trace(trace, 4, CONFIG,
                                     plan=plan).schedule()
        # One broadcast entering the batch, one gather leaving it.
        assert report.comm_rounds == 2
        assert report.comm_busy > 0
        assert len(report.comm_levels) == 2

    def test_single_board_policy_never_communicates(self):
        trace, plan = self._training_like()
        report = lower_striped_trace(trace, 4, CONFIG, plan=plan,
                                     policy="single_board").schedule()
        assert report.comm_rounds == 0
        assert report.comm_busy == 0
        # Everything on the master == the single-board schedule.
        single = lower_trace(trace, CONFIG).schedule()
        assert report.cycles == single.cycles

    def test_comm_scale_zero_keeps_sync_structure(self):
        trace, plan = self._training_like()
        free = lower_striped_trace(trace, 4, CONFIG, plan=plan,
                                   comm_scale=0.0).schedule()
        paid = lower_striped_trace(trace, 4, CONFIG,
                                   plan=plan).schedule()
        assert free.comm_rounds == paid.comm_rounds
        assert free.comm_busy == 0
        assert free.cycles < paid.cycles

    def test_trailing_parallel_work_is_gathered(self):
        trace = OpTrace()
        for _ in range(8):
            trace.record("add", 6)
        report = lower_striped_trace(
            trace, 2, CONFIG,
            plan=StripePlan.all_parallel(8)).schedule()
        assert report.comm_rounds == 1          # final gather only

    def test_per_board_device_stats(self):
        trace, plan = self._training_like()
        report = lower_striped_trace(trace, 4, CONFIG,
                                     plan=plan).schedule()
        stats = report.per_board()
        boards = {d for d in stats if d is not None}
        assert boards == {0, 1, 2, 3}
        # The CMAC link is shared, not board-owned.
        assert None in stats
        assert sum(s.busy_cycles for s in stats.values()) == \
            report.total_work_cycles


# ----------------------------------------------------------------------
# Key working set: per-board vs pool-total (regression)
# ----------------------------------------------------------------------

class TestKeyWorkingSetReplication:
    def test_per_board_and_pool_bytes_reported_separately(self):
        """Regression: keys replicate per board, so the pool total is
        num_boards x the per-board bytes — and the legacy
        ``total_bytes`` must stay per-board (a single HBM cache sized
        from it must never see the replicated figure)."""
        trace = OpTrace()
        trace.record("multiply", 6)
        trace.record("rotate", 6, step=1)
        trace.record("rotate", 6, step=2)
        keys = key_working_set(trace, CONFIG, num_fpgas=4)
        per_key = switching_key_bytes(CONFIG)
        assert keys.num_keys == 3
        assert keys.num_boards == 4
        assert keys.per_board_bytes == 3 * per_key
        assert keys.pool_bytes == 4 * 3 * per_key
        assert keys.total_bytes == keys.per_board_bytes

    def test_default_single_board_unchanged(self):
        trace = OpTrace()
        trace.record("multiply", 6)
        keys = key_working_set(trace, CONFIG)
        assert keys.num_boards == 1
        assert keys.pool_bytes == keys.per_board_bytes \
            == keys.total_bytes

    def test_invalid_pool(self):
        with pytest.raises(ValueError):
            key_working_set(OpTrace(), CONFIG, num_fpgas=0)


# ----------------------------------------------------------------------
# Golden reconciliation against the analytic FAB-2 model
# ----------------------------------------------------------------------

class TestGoldenReconciliation:
    """Trace-driven striped speedup vs ``MultiFpgaSystem.speedup``.

    Tolerance asserted both ways: the traced value must sit inside
    +/-TOL of the analytic prediction, AND the uneven-split points must
    *differ* from it by more than FLOOR — if the trace-driven path ever
    silently collapses into the closed form (or drifts out of band),
    one of the two directions fails.
    """

    TOL = 0.01          # +/-1% band
    FLOOR = 1e-5        # minimum genuine divergence (uneven splits)
    BATCH = 250         # 250 % 4 != 0 and 250 % 8 != 0: real ceil loss

    @pytest.fixture(scope="class")
    def training(self):
        from repro.experiments.striping_scale import training_trace
        return training_trace(CONFIG, self.BATCH)

    def _speedups(self, training, boards):
        trace, plan = training
        cost = cost_striped_trace(trace, boards, CONFIG, plan=plan)
        report = cost.report
        system = MultiFpgaSystem(CONFIG, boards)
        single_s = CONFIG.cycles_to_seconds(cost.single_cycles)
        serial_s = CONFIG.cycles_to_seconds(cost.serial_cycles)
        levels = report.comm_levels
        analytic = system.speedup(
            single_s, serial_s, rounds=report.comm_rounds,
            level=sum(levels) / len(levels) if levels else None)
        return cost.speedup, analytic

    @pytest.mark.parametrize("boards", [2, 4, 8])
    def test_speedup_within_band_both_ways(self, training, boards):
        traced, analytic = self._speedups(training, boards)
        assert traced <= analytic * (1 + self.TOL)
        assert traced >= analytic * (1 - self.TOL)

    @pytest.mark.parametrize("boards", [4, 8])
    def test_uneven_split_genuinely_diverges(self, training, boards):
        """250 groups don't divide by 4 or 8: the traced makespan pays
        the ceil'd shard, the analytic model doesn't — if this becomes
        exact, the trace-driven path stopped modelling granularity."""
        traced, analytic = self._speedups(training, boards)
        assert abs(traced / analytic - 1) > self.FLOOR

    def test_even_split_is_exact(self, training):
        """125 groups per board at k=2: with matched rounds and
        levels, nothing is left for the models to disagree on."""
        traced, analytic = self._speedups(training, 2)
        assert traced == pytest.approx(analytic, rel=1e-12)

    def test_more_boards_help_until_amdahl(self, training):
        trace, plan = training
        speedups = [cost_striped_trace(trace, k, CONFIG,
                                       plan=plan).speedup
                    for k in (2, 4, 8)]
        assert all(s > 1.0 for s in speedups)
        assert speedups[0] < speedups[1] < speedups[2]
        # Amdahl: the serial bootstrap bounds the pool speedup.
        cost = cost_striped_trace(trace, 8, CONFIG, plan=plan)
        bound = cost.single_cycles / cost.serial_cycles
        assert speedups[2] < bound
