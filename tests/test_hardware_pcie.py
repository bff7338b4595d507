"""Tests for the PCIe transfer channel: FIFO serialization and telemetry."""

import pytest

from repro.hardware.pcie import GB, PcieLink, PcieSpec
from repro.sim.simulator import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def link(sim):
    return PcieLink(sim, PcieSpec(bandwidth_bytes=10 * GB, setup_latency=1e-3))


def test_transfer_time_formula(link):
    assert link.transfer_time(10 * GB) == pytest.approx(1.0 + 1e-3)


def test_single_transfer_completes(sim, link):
    done = []
    link.submit(10 * GB, callback=lambda x: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(1.001)]
    assert link.total_transfers == 1
    assert link.total_bytes_moved == 10 * GB


def test_fifo_serialization_queues_transfers(sim, link):
    """The second transfer waits for the first: queueing delay is visible."""
    xfers = [link.submit(10 * GB), link.submit(10 * GB)]
    assert link.queue_depth == 1
    sim.run()
    assert xfers[0].queueing_delay == 0.0
    assert xfers[1].queueing_delay == pytest.approx(1.001)
    assert xfers[1].latency == pytest.approx(2.002)


def test_contention_grows_with_submissions(sim, link):
    """Ten queued transfers: the last one waits for the nine before it."""
    xfers = [link.submit(1 * GB) for _ in range(10)]
    sim.run()
    assert xfers[-1].queueing_delay == pytest.approx(9 * 0.101, rel=1e-6)


def test_callbacks_fire_in_submission_order(sim, link):
    order = []
    link.submit(GB, callback=lambda x: order.append("a"))
    link.submit(GB, callback=lambda x: order.append("b"))
    sim.run()
    assert order == ["a", "b"]


def test_cancel_queued_transfer(sim, link):
    link.submit(GB)
    queued = link.submit(GB)
    assert link.cancel(queued) is True
    sim.run()
    assert link.total_transfers == 1


def test_cannot_cancel_inflight_transfer(sim, link):
    first = link.submit(GB)
    assert link.cancel(first) is False
    sim.run()


def test_utilization_accounting(sim, link):
    link.submit(10 * GB)
    sim.run()
    sim.schedule_at(2.002, lambda: None)  # idle tail
    sim.run()
    assert link.utilization() == pytest.approx(1.001 / 2.002, rel=1e-6)


def test_sharded_transfer_slower_than_flat(sim, link):
    flat = link.transfer_time(GB)
    done = []
    link.submit_sharded(GB, shards=4, per_shard_overhead=5e-3,
                        callback=lambda x: done.append(sim.now))
    sim.run()
    assert done[0] > flat
    # Four shards pay four sync+setup overheads.
    assert done[0] == pytest.approx(flat + 4 * (5e-3 + 1e-3), rel=0.05)


def test_sharded_requires_positive_shards(link):
    with pytest.raises(ValueError):
        link.submit_sharded(GB, shards=0, per_shard_overhead=1e-3)


def test_negative_size_rejected(link):
    with pytest.raises(ValueError):
        link.submit(-1)


def test_window_stats_requires_log(sim, link):
    with pytest.raises(RuntimeError):
        link.window_stats(1.0, 10.0)


def test_window_stats_bins_bytes(sim):
    link = PcieLink(sim, PcieSpec(bandwidth_bytes=10 * GB, setup_latency=0.0))
    link.keep_log = True
    link.submit(5 * GB)        # finishes at 0.5s -> bin 0
    sim.schedule_at(2.0, lambda: link.submit(10 * GB))  # finishes at 3.0 -> bin 3
    sim.run()
    bins = link.window_stats(window=1.0, horizon=4.0)
    assert bins[0].bytes_moved == 5 * GB
    assert bins[0].bandwidth == pytest.approx(5 * GB)
    assert bins[3].bytes_moved == 10 * GB
    assert bins[1].bytes_moved == 0
