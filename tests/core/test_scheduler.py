"""Tests for the event-driven task-graph scheduler."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TaskGraph


class TestBasicScheduling:
    def test_serial_chain(self):
        g = TaskGraph()
        g.add("a", "fu", 10)
        g.add("b", "fu", 20, deps=["a"])
        g.add("c", "fu", 5, deps=["b"])
        result = g.schedule()
        assert result.makespan == 35
        assert result.tasks["c"].start == 30

    def test_independent_tasks_on_different_resources_overlap(self):
        g = TaskGraph()
        g.add("compute", "fu", 100)
        g.add("fetch", "hbm", 60)
        result = g.schedule()
        assert result.makespan == 100  # full overlap

    def test_same_resource_serializes(self):
        g = TaskGraph()
        g.add("a", "fu", 100)
        g.add("b", "fu", 60)
        result = g.schedule()
        assert result.makespan == 160

    def test_dependency_across_resources(self):
        g = TaskGraph()
        g.add("fetch", "hbm", 50)
        g.add("compute", "fu", 100, deps=["fetch"])
        result = g.schedule()
        assert result.tasks["compute"].start == 50
        assert result.makespan == 150

    def test_prefetch_pattern(self):
        """Key prefetch overlapping compute: the §4.6 latency hiding."""
        g = TaskGraph()
        g.add("fetch0", "hbm", 30)
        g.add("work0", "fu", 100, deps=["fetch0"])
        g.add("fetch1", "hbm", 30)  # prefetched during work0
        g.add("work1", "fu", 100, deps=["fetch1", "work0"])
        result = g.schedule()
        # fetch1 finishes at 60 < work0's 130, so work1 starts at 130.
        assert result.makespan == 230

    def test_multi_lane_resource(self):
        g = TaskGraph()
        g.set_resource_lanes("hbm", 2)
        g.add("a", "hbm", 50)
        g.add("b", "hbm", 50)
        result = g.schedule()
        assert result.makespan == 50

    def test_empty_graph(self):
        assert TaskGraph().schedule().makespan == 0


class TestValidation:
    def test_duplicate_name(self):
        g = TaskGraph()
        g.add("a", "fu", 1)
        with pytest.raises(ValueError):
            g.add("a", "fu", 1)

    def test_unknown_dependency(self):
        g = TaskGraph()
        with pytest.raises(ValueError):
            g.add("a", "fu", 1, deps=["missing"])

    def test_negative_cycles(self):
        g = TaskGraph()
        with pytest.raises(ValueError):
            g.add("a", "fu", -1)


class TestEdgeCases:
    def test_cycle_detected(self):
        """A cycle (only constructible by mutating deps, since add()
        validates forward references) must be rejected, not hang."""
        g = TaskGraph()
        g.add("a", "fu", 1)
        g.add("b", "fu", 1, deps=["a"])
        g._tasks["a"].deps = ("b",)
        with pytest.raises(ValueError, match="cycle"):
            g.schedule()

    def test_self_cycle_detected(self):
        g = TaskGraph()
        g.add("a", "fu", 1)
        g._tasks["a"].deps = ("a",)
        with pytest.raises(ValueError, match="cycle"):
            g.schedule()

    def test_unknown_resource_schedules_independently(self):
        """Resources are open-world: a task on a never-configured
        resource gets a default single lane and its own stats row."""
        g = TaskGraph()
        g.add("a", "fu", 10)
        g.add("weird", "quantum_bus", 5)
        result = g.schedule()
        assert result.resources["quantum_bus"].busy_cycles == 5
        assert result.makespan == 10

    def test_multi_lane_serialization(self):
        """Three equal tasks on two lanes: two run, the third waits."""
        g = TaskGraph()
        g.set_resource_lanes("fu", 2)
        for name in ("a", "b", "c"):
            g.add(name, "fu", 10)
        result = g.schedule()
        assert result.makespan == 20
        assert sorted(t.start for t in result.tasks.values()) == [0, 0, 10]

    def test_lane_count_validation(self):
        g = TaskGraph()
        with pytest.raises(ValueError):
            g.set_resource_lanes("fu", 0)

    def test_lanes_on_unused_resource_harmless(self):
        g = TaskGraph()
        g.set_resource_lanes("hbm", 4)
        g.add("a", "fu", 3)
        assert g.schedule().makespan == 3

    def test_empty_graph_has_no_resources(self):
        result = TaskGraph().schedule()
        assert result.makespan == 0
        assert result.resources == {}
        assert result.bound_by() == "none"

    def test_zero_cycle_task(self):
        g = TaskGraph()
        g.add("barrier", "fu", 0)
        g.add("work", "fu", 5, deps=["barrier"])
        result = g.schedule()
        assert result.makespan == 5
        assert result.tasks["barrier"].finish == 0


class TestStats:
    def test_utilization(self):
        g = TaskGraph()
        g.add("a", "fu", 50)
        g.add("b", "hbm", 100)
        result = g.schedule()
        assert result.resources["fu"].utilization(result.makespan) == 0.5
        assert result.resources["hbm"].utilization(result.makespan) == 1.0

    def test_bound_by(self):
        g = TaskGraph()
        g.add("a", "fu", 10)
        g.add("b", "hbm", 100)
        assert g.schedule().bound_by() == "hbm"


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["fu", "hbm"]),
                              st.integers(min_value=1, max_value=100)),
                    min_size=1, max_size=12))
    def test_makespan_bounds(self, tasks):
        """Makespan lies between the critical resource load and the
        serial total."""
        g = TaskGraph()
        prev = None
        per_resource = {}
        for i, (res, cyc) in enumerate(tasks):
            deps = [prev] if prev is not None and i % 3 == 0 else []
            g.add(f"t{i}", res, cyc, deps=deps)
            prev = f"t{i}"
            per_resource[res] = per_resource.get(res, 0) + cyc
        result = g.schedule()
        assert result.makespan >= max(per_resource.values())
        assert result.makespan <= sum(c for _, c in tasks)


def _random_dag(spec):
    """Build a TaskGraph from a drawn spec: per task a resource, a
    duration, and a set of dependency back-references."""
    lanes, tasks = spec
    g = TaskGraph()
    for res, count in lanes.items():
        g.set_resource_lanes(res, count)
    for i, (res, cyc, backrefs) in enumerate(tasks):
        deps = sorted({f"t{b % i}" for b in backrefs} if i else set())
        g.add(f"t{i}", res, cyc, deps=deps)
    return g


_dag_specs = st.tuples(
    st.fixed_dictionaries({
        "fu": st.integers(min_value=1, max_value=3),
        "hbm": st.integers(min_value=1, max_value=2),
    }),
    st.lists(st.tuples(st.sampled_from(["fu", "hbm", "cmac"]),
                       st.integers(min_value=0, max_value=50),
                       st.lists(st.integers(min_value=0, max_value=10_000),
                                max_size=3)),
             min_size=1, max_size=40))


class TestHeapMatchesReference:
    """The O((V+E) log V) heap scheduler must reproduce the naive
    frontier-scanning reference scheduler exactly."""

    @settings(max_examples=60, deadline=None)
    @given(_dag_specs)
    def test_randomized_dags(self, spec):
        fast = _random_dag(spec).schedule()
        naive = _random_dag(spec).schedule_reference()
        assert fast.makespan == naive.makespan
        for name, task in naive.tasks.items():
            assert fast.tasks[name].start == task.start
            assert fast.tasks[name].finish == task.finish
        assert {r: (s.busy_cycles, s.tasks)
                for r, s in fast.resources.items()} == \
               {r: (s.busy_cycles, s.tasks)
                for r, s in naive.resources.items()}

    @settings(max_examples=20, deadline=None)
    @given(_dag_specs)
    def test_schedule_is_deterministic(self, spec):
        a = _random_dag(spec).schedule()
        b = _random_dag(spec).schedule()
        assert {n: (t.start, t.finish) for n, t in a.tasks.items()} == \
               {n: (t.start, t.finish) for n, t in b.tasks.items()}

    def test_reference_programs(self):
        """Same schedules on the Table 7/8 programs (prefetch on/off)."""
        from repro.core.program import FabProgram
        from repro.runtime.lowering import lower_trace
        from repro.runtime.reference import bootstrap_trace

        programs = [FabProgram.lr_iteration(),
                    lower_trace(bootstrap_trace())]
        for program in programs:
            for prefetch in (True, False):
                fast = program.compile(prefetch).schedule()
                naive = program.compile(prefetch).schedule_reference()
                assert fast.makespan == naive.makespan
                assert {n: (t.start, t.finish)
                        for n, t in fast.tasks.items()} == \
                       {n: (t.start, t.finish)
                        for n, t in naive.tasks.items()}

    def test_reference_detects_cycle(self):
        g = TaskGraph()
        g.add("a", "fu", 1)
        g.add("b", "fu", 1, deps=["a"])
        g._tasks["a"].deps = ("b",)
        with pytest.raises(ValueError, match="cycle"):
            g.schedule_reference()

    def test_reference_multi_lane(self):
        g = TaskGraph()
        g.set_resource_lanes("fu", 2)
        for name in ("a", "b", "c"):
            g.add(name, "fu", 10)
        result = g.schedule_reference()
        assert result.makespan == 20
        assert sorted(t.start for t in result.tasks.values()) == [0, 0, 10]


class TestDeviceAnnotation:
    """Multi-FPGA graphs tag tasks with a board; scheduling behavior
    must be unaffected, and per-device stats must aggregate cleanly."""

    def _two_board_graph(self):
        g = TaskGraph()
        g.add("f0", "hbm0", 30, device=0)
        g.add("a0", "fu0", 100, deps=["f0"], device=0)
        g.add("a1", "fu1", 80, device=1)
        g.add("x", "cmac", 40, deps=["a0", "a1"])   # shared link
        return g

    def test_device_is_pure_annotation(self):
        annotated = self._two_board_graph().schedule()
        plain = TaskGraph()
        plain.add("f0", "hbm0", 30)
        plain.add("a0", "fu0", 100, deps=["f0"])
        plain.add("a1", "fu1", 80)
        plain.add("x", "cmac", 40, deps=["a0", "a1"])
        unannotated = plain.schedule()
        assert annotated.makespan == unannotated.makespan
        assert {n: (t.start, t.finish)
                for n, t in annotated.tasks.items()} == \
               {n: (t.start, t.finish)
                for n, t in unannotated.tasks.items()}

    def test_device_stats_aggregate_per_board(self):
        result = self._two_board_graph().schedule()
        stats = result.device_stats()
        assert set(stats) == {0, 1, None}
        assert stats[0].busy_cycles == 130      # fetch + compute
        assert stats[0].tasks == 2
        assert stats[1].busy_cycles == 80
        assert stats[None].busy_cycles == 40    # the shared CMAC task
        assert stats[0].finish == result.tasks["a0"].finish
        assert stats[None].finish == result.makespan
        assert 0 < stats[1].utilization(result.makespan) <= 1.0

    def test_default_device_is_none(self):
        g = TaskGraph()
        g.add("a", "fu", 10)
        result = g.schedule()
        assert set(result.device_stats()) == {None}
