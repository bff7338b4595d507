"""Tests for the FIFO and SJF baseline schedulers."""

import pytest

from repro.serving.admission import AdmitResult
from repro.serving.schedulers import FifoScheduler, SjfScheduler
from repro.workload.request import Request


class FakeContext:
    """Admission stub: admits everything until a scripted refusal."""

    def __init__(self, now=0.0, deny=frozenset(), deny_result=AdmitResult.NO_MEMORY):
        self.now = now
        self.deny = set(deny)
        self.deny_result = deny_result
        self.admitted = []

    def try_admit(self, request):
        if request.request_id in self.deny:
            return self.deny_result
        self.admitted.append(request)
        return AdmitResult.ADMITTED


def _req(rid, predicted=None, adapter_id=None, enq=0.0):
    r = Request(request_id=rid, arrival_time=0.0, input_tokens=10,
                output_tokens=5, adapter_id=adapter_id)
    r.predicted_output_tokens = predicted
    r.enqueue_time = enq
    return r


def test_fifo_admits_in_arrival_order():
    sched = FifoScheduler()
    reqs = [_req(i) for i in range(3)]
    for r in reqs:
        sched.enqueue(r, 0.0)
    ctx = FakeContext()
    sched.select(ctx)
    assert [r.request_id for r in ctx.admitted] == [0, 1, 2]
    assert sched.queue_len() == 0


def test_fifo_strict_head_of_line_blocking():
    """§3.3: if the head does not fit, nothing behind it is tried."""
    sched = FifoScheduler()
    for i in range(3):
        sched.enqueue(_req(i), 0.0)
    ctx = FakeContext(deny={0})
    sched.select(ctx)
    assert ctx.admitted == []
    assert sched.queue_len() == 3


def test_fifo_partial_admission_stops_at_block():
    sched = FifoScheduler()
    for i in range(4):
        sched.enqueue(_req(i), 0.0)
    ctx = FakeContext(deny={2})
    sched.select(ctx)
    assert [r.request_id for r in ctx.admitted] == [0, 1]
    assert sched.queue_len() == 2


def test_fifo_requeue_front():
    sched = FifoScheduler()
    sched.enqueue(_req(0), 0.0)
    sched.requeue_front(_req(9), 0.0)
    ctx = FakeContext()
    sched.select(ctx)
    assert [r.request_id for r in ctx.admitted] == [9, 0]


def test_sjf_orders_by_predicted_output():
    sched = SjfScheduler()
    for rid, pred in [(0, 500), (1, 5), (2, 100)]:
        sched.enqueue(_req(rid, predicted=pred), 0.0)
    ctx = FakeContext()
    sched.select(ctx)
    assert [r.request_id for r in ctx.admitted] == [1, 2, 0]


def test_sjf_requires_predictions():
    sched = SjfScheduler()
    sched.enqueue(_req(0, predicted=None), 0.0)
    with pytest.raises(RuntimeError):
        sched.select(FakeContext())


def test_sjf_starves_long_request_without_aging():
    sched = SjfScheduler()
    sched.enqueue(_req(0, predicted=1000, enq=0.0), 0.0)
    sched.enqueue(_req(1, predicted=5, enq=100.0), 100.0)
    ctx = FakeContext(now=100.0, deny={0})
    sched.select(ctx)
    # The short request jumps the long one even after the long waited 100 s.
    assert [r.request_id for r in ctx.admitted] == [1]


def test_queued_adapter_ids_union():
    sched = FifoScheduler()
    sched.enqueue(_req(0, adapter_id=3), 0.0)
    sched.enqueue(_req(1, adapter_id=7), 0.0)
    sched.enqueue(_req(2, adapter_id=None), 0.0)
    assert sched.queued_adapter_ids() == {3, 7}


def test_on_finish_default_noop():
    sched = FifoScheduler()
    sched.on_finish(_req(0), 1.0)  # must not raise
