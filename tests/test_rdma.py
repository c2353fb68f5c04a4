"""Tests for the RDMA substrate: queues, fabric, slabs, agents."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rdma.agent import HostAgent, RemoteAgent, RemotePageLostError
from repro.rdma.network import RdmaFabric
from repro.rdma.qp import DispatchQueue
from repro.rdma.slab import SlabAllocator
from repro.sim.rng import SimRandom
from repro.sim.units import us


class TestDispatchQueue:
    def test_idle_queue_no_delay(self):
        queue = DispatchQueue(0)
        sub = queue.submit(now=1_000, service_ns=500, fabric_ns=3_000)
        assert sub.queueing_delay == 0
        assert sub.started == 1_000
        assert sub.completed == 4_500

    def test_busy_queue_delays(self):
        queue = DispatchQueue(0)
        queue.submit(now=0, service_ns=1_000, fabric_ns=0)
        sub = queue.submit(now=100, service_ns=1_000, fabric_ns=0)
        assert sub.queueing_delay == 900
        assert sub.completed == 2_000

    def test_fabric_time_is_pipelined(self):
        queue = DispatchQueue(0)
        first = queue.submit(now=0, service_ns=100, fabric_ns=10_000)
        second = queue.submit(now=0, service_ns=100, fabric_ns=10_000)
        # The second op queues behind the *service* only, not the
        # in-flight fabric time.
        assert second.started == 100
        assert first.completed == 10_100
        assert second.completed == 10_200

    def test_negative_times_rejected(self):
        queue = DispatchQueue(0)
        with pytest.raises(ValueError):
            queue.submit(0, -1, 0)

    def test_stats_accumulate(self):
        queue = DispatchQueue(0)
        queue.submit(0, 1_000, 0)
        queue.submit(0, 1_000, 0)
        assert queue.stats.operations == 2
        assert queue.stats.mean_queueing_delay == 500.0
        assert queue.stats.peak_backlog_ns == 1_000

    def test_stats_pinned_on_scripted_sequence(self):
        # Expected values were computed by the straightforward
        # record-per-submission implementation; the inline update in
        # ``submit`` must reproduce them exactly.
        queue = DispatchQueue(0)
        timings = [
            queue.submit(1_000, 500, 3_000),  # idle
            queue.submit(5_000, 200, 1_000),  # idle again
            queue.submit(5_050, 300, 0),  # 150 ns backlog
            queue.submit(5_100, 400, 100),  # 400 ns backlog
            queue.submit(5_100, 50, 0),  # 800 ns backlog
        ]
        assert [(t.submitted, t.started, t.completed) for t in timings] == [
            (1_000, 1_000, 4_500),
            (5_000, 5_000, 6_200),
            (5_050, 5_200, 5_500),
            (5_100, 5_500, 6_000),
            (5_100, 5_900, 5_950),
        ]
        stats = queue.stats
        assert stats.operations == 5
        assert stats.total_queueing_delay == 1_350
        assert stats.peak_backlog_ns == 800
        assert stats.mean_queueing_delay == 270.0
        assert queue.busy_until == 5_950

    def test_replicated_write_stats_pinned(self):
        host, _ = make_host(replication=True)
        writes = [
            host.write_page("p", now=0, core=1),
            host.write_page("q", now=100, core=1),  # behind p and its replica
            host.write_page("r", now=50_000, core=2),
        ]
        assert [(w.submitted, w.started, w.completed) for w in writes] == [
            (0, 0, 4_577),
            (100, 1_970, 7_929),
            (50_000, 50_000, 55_445),
        ]
        assert host.dispatch_stats() == {
            1: {"ops": 4, "mean_delay_ns": 1427.5, "peak_backlog_ns": 2_855},
            2: {"ops": 2, "mean_delay_ns": 492.5, "peak_backlog_ns": 985},
        }

    @given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(1, 1_000)), max_size=100))
    def test_completions_monotone_for_monotone_submissions(self, ops):
        queue = DispatchQueue(0)
        now = 0
        last_completed = 0
        for gap, service in ops:
            now += gap
            sub = queue.submit(now, service, fabric_ns=0)
            assert sub.completed >= last_completed
            assert sub.started >= now
            last_completed = sub.completed


class TestFabric:
    def test_wire_time_matches_bandwidth(self):
        fabric = RdmaFabric(SimRandom(1, "f"), bandwidth_gbps=56.0)
        # 4 KB at 56 Gbps ≈ 585 ns.
        assert 550 <= fabric.wire_time_ns(4096) <= 620

    def test_end_to_end_median_near_4_3us(self):
        fabric = RdmaFabric(SimRandom(1, "f"))
        samples = sorted(
            fabric.service_time_ns() + fabric.fabric_latency_ns() for _ in range(2_001)
        )
        median = samples[len(samples) // 2]
        assert us(3.6) < median < us(5.2)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            RdmaFabric(SimRandom(1, "f"), median_ns=0)
        with pytest.raises(ValueError):
            RdmaFabric(SimRandom(1, "f"), bandwidth_gbps=0)


class TestSlabAllocator:
    def test_placement_is_contiguous_within_slab(self):
        allocator = SlabAllocator(slab_capacity_pages=4)
        allocator.open_slab(machine_id=0, replica_machine_id=None)
        locations = [allocator.place_page(("p", i)) for i in range(4)]
        assert [loc.slot for loc in locations] == [0, 1, 2, 3]
        assert all(loc.slab_id == 0 for loc in locations)

    def test_place_is_idempotent(self):
        allocator = SlabAllocator(4)
        allocator.open_slab(0, None)
        first = allocator.place_page("x")
        second = allocator.place_page("x")
        assert first == second
        assert allocator.mapped_pages == 1

    def test_full_slab_requires_new_one(self):
        allocator = SlabAllocator(2)
        allocator.open_slab(0, None)
        allocator.place_page("a")
        allocator.place_page("b")
        assert allocator.needs_new_slab()
        with pytest.raises(RuntimeError):
            allocator.place_page("c")

    def test_release_reclaims_and_reuses_slot(self):
        allocator = SlabAllocator(2)
        allocator.open_slab(0, None)
        allocator.place_page("a")
        allocator.place_page("b")
        assert allocator.release("a") is True
        assert allocator.release("a") is False  # already reclaimed
        assert allocator.location_of("a") is None
        assert not allocator.needs_new_slab()  # a freed slot is available
        location = allocator.place_page("c")
        assert (location.slab_id, location.slot) == (0, 0)
        assert allocator.key_at(0) == "c"
        assert allocator.reused_slots == 1
        assert allocator.released_slots == 1

    def test_churn_never_opens_second_slab(self):
        allocator = SlabAllocator(4)
        allocator.open_slab(0, None)
        for round_index in range(50):
            for page in range(4):
                allocator.place_page((round_index, page))
            for page in range(4):
                allocator.release((round_index, page))
        assert len(allocator.slabs) == 1

    def test_freed_slot_reverse_lookup_is_empty(self):
        allocator = SlabAllocator(2)
        allocator.open_slab(0, None)
        allocator.place_page("a")
        allocator.release("a")
        assert allocator.key_at(0) is None

    def test_key_at_reverse_lookup(self):
        allocator = SlabAllocator(2)
        allocator.open_slab(0, None)
        allocator.place_page("a")
        allocator.place_page("b")
        allocator.open_slab(1, None)
        allocator.place_page("c")
        assert allocator.key_at(0) == "a"
        assert allocator.key_at(1) == "b"
        assert allocator.key_at(2) == "c"
        assert allocator.key_at(3) is None
        assert allocator.key_at(-1) is None
        assert allocator.key_at(99) is None


def make_host(n_machines=4, replication=True, capacity=10_000, slab_pages=64):
    rng = SimRandom(7, "host")
    fabric = RdmaFabric(rng.spawn("fabric"))
    agents = [RemoteAgent(i, capacity) for i in range(n_machines)]
    host = HostAgent(
        fabric,
        agents,
        rng.spawn("placement"),
        n_cores=4,
        slab_capacity_pages=slab_pages,
        replication=replication,
    )
    return host, agents


class TestHostAgent:
    def test_replication_requires_two_machines(self):
        rng = SimRandom(7, "x")
        fabric = RdmaFabric(rng.spawn("f"))
        with pytest.raises(ValueError):
            HostAgent(fabric, [RemoteAgent(0, 100)], rng, replication=True)

    def test_read_write_roundtrip_timing(self):
        host, _ = make_host()
        write = host.write_page("page", now=0)
        read = host.read_page("page", now=write.completed)
        assert read.completed > write.completed
        assert host.reads == 1 and host.writes == 1

    def test_slabs_get_replicas(self):
        host, _ = make_host(replication=True)
        host.place_page("p")
        slab = host.allocator.slabs[0]
        assert slab.replica_machine_id is not None
        assert slab.replica_machine_id != slab.machine_id

    def test_failover_to_replica(self):
        host, agents = make_host(replication=True)
        host.write_page("p", now=0)
        slab = host.allocator.slabs[0]
        agents[slab.machine_id].fail()
        host.read_page("p", now=100)  # must not raise
        assert host.failovers == 1

    def test_page_lost_without_replication(self):
        host, agents = make_host(replication=False)
        host.write_page("p", now=0)
        slab = host.allocator.slabs[0]
        agents[slab.machine_id].fail()
        with pytest.raises(RemotePageLostError):
            host.read_page("p", now=100)

    def test_double_failure_loses_page(self):
        host, agents = make_host(replication=True)
        host.write_page("p", now=0)
        slab = host.allocator.slabs[0]
        agents[slab.machine_id].fail()
        agents[slab.replica_machine_id].fail()
        with pytest.raises(RemotePageLostError):
            host.read_page("p", now=100)

    def test_recovery_restores_primary(self):
        host, agents = make_host(replication=True)
        host.write_page("p", now=0)
        slab = host.allocator.slabs[0]
        agents[slab.machine_id].fail()
        agents[slab.machine_id].recover()
        host.read_page("p", now=100)
        assert host.failovers == 0

    def test_power_of_two_choices_balances_load(self):
        host, agents = make_host(n_machines=4, replication=False, slab_pages=16)
        for index in range(16 * 40):  # 40 slabs across 4 machines
            host.place_page(("p", index))
        loads = list(host.machine_loads().values())
        assert max(loads) <= min(loads) + 16 * 6, f"imbalanced: {loads}"

    def test_capacity_exhaustion_raises(self):
        host, _ = make_host(n_machines=2, replication=False, capacity=64, slab_pages=64)
        for index in range(128):
            host.place_page(("p", index))
        with pytest.raises(RemotePageLostError):
            host.place_page("one-too-many")
