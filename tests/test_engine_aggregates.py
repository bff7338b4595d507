"""Oracle tests for the engine's incrementally kept state.

``ServingEngine`` keeps its token load, and the decode set's context-token,
LoRA-rank and LoRA-count sums, up to date wherever the batch changes; it
stores the batch as ``_decoding`` followed by ``_prefilling``, and it holds
each decoding request's progress, acting on the request only when it
finishes (or is squashed, or stranded by a crash).  The oracle here is the
old definition of each value, which walked the batch and advanced every
decoding request on every iteration:

* each request's tokens and token times, counted from outside: the first
  token at the iteration end that completes its prefill, then one more at
  every iteration end while it decodes;
* the token load summed over the batch, the loading requests and the queue;
* the decode set as the batch filtered on ``remaining_prefill_tokens == 0``;
* the context and rank sums computed through ``AdapterRegistry.get``;
* the requests that finish at an iteration end, in order: completed
  prefills with a one-token output, in plan order, then decoding requests
  whose count reached their output length, in decode order.

The batch itself is shadowed from outside, in admission order, by wrapping
the engine's transitions on the instance (a request joins at
``_begin_prefill`` and leaves at ``_finish``, ``squash``, ``fail`` or
``evacuate_unstarted``).  After every ``submit``, ``fail``,
``evacuate_unstarted`` and ``_end_iteration``, and on entry to every
``_start_iteration`` (which every iteration end and every adapter-ready
promotion passes through), the kept values and the decode-set order must
equal the oracle's; at every prefill plan the plan must too.  Every finish
must come in the oracle's order with the oracle's ``tokens_generated`` and
``token_times``, and so must the frozen timeline of every request a crash
strands.
"""

from __future__ import annotations

from repro.adapters.registry import AdapterRegistry
from repro.hardware.gpu import GB
from repro.llm.model import LLAMA_7B
from repro.serving.engine import PREFILL_TOKEN_BUDGET
from repro.serving.replica import MultiReplicaSystem
from repro.sim.rng import RngStreams
from repro.systems import build_system
from repro.workload.request import Request
from repro.workload.trace import SPLITWISE_PROFILE, synthesize_trace


def oracle_token_load(engine, batch, tokens) -> float:
    total = 0.0
    for request in batch + engine._pending_load:
        predicted = request.predicted_output_tokens or request.output_tokens
        total += request.remaining_prefill_tokens
        total += max(0, predicted - tokens.get(request, 0))
    for request in engine.scheduler.queued_requests():
        predicted = request.predicted_output_tokens or request.output_tokens
        total += request.input_tokens + predicted
    return total


def oracle_decode_sums(engine, decode_set, tokens) -> tuple[int, int, int]:
    ctx_tokens = sum(r.input_tokens + tokens[r] for r in decode_set)
    total_rank = 0
    n_lora = 0
    for request in decode_set:
        if request.adapter_id is not None:
            total_rank += engine.registry.get(request.adapter_id).rank
            n_lora += 1
    return ctx_tokens, total_rank, n_lora


def oracle_prefill_plan(engine, batch) -> list:
    chunked = engine.config.chunk_size is not None
    budget = engine.config.chunk_size if chunked else PREFILL_TOKEN_BUDGET
    plan = []
    for request in batch:
        remaining = request.remaining_prefill_tokens
        if remaining <= 0:
            continue
        if chunked:
            if budget <= 0:
                break
            take = min(budget, remaining)
            plan.append((request, take))
            budget -= take
        else:
            if remaining <= budget:
                plan.append((request, remaining))
                budget -= remaining
            elif not plan:
                plan.append((request, remaining))
                break
            else:
                break
    return plan


class BatchOracle:
    """Shadows one engine's batch and checks its kept state against it."""

    def __init__(self, engine) -> None:
        self.engine = engine
        #: The batch in admission order, rebuilt from the transitions.
        self.batch: list = []
        #: Tokens and token times of each batch request that has emitted
        #: any, counted at the iteration ends (requests hash by identity).
        self.tokens: dict = {}
        self.times: dict = {}
        #: The finishes the current iteration end owes, in order.
        self.due: list = []
        self.load_checks = 0
        self.iteration_checks = 0
        self.partial_prefills = 0
        self.finishes = 0
        self.squashes = 0
        self.failures = 0
        self.lost_decoding = 0
        self.evacuated = 0
        self._wrap_transitions()

    def decode_set(self) -> list:
        return [r for r in self.batch if r.remaining_prefill_tokens == 0]

    def _drop(self, requests) -> None:
        gone = set(requests)
        self.batch = [r for r in self.batch if r not in gone]
        for request in gone:
            self.tokens.pop(request, None)
            self.times.pop(request, None)

    def _wrap_transitions(self) -> None:
        engine = self.engine
        submit = engine.submit
        begin_prefill = engine._begin_prefill
        start_iteration = engine._start_iteration
        end_iteration = engine._end_iteration
        finish = engine._finish
        squash = engine.squash
        fail = engine.fail
        evacuate = engine.evacuate_unstarted
        build_plan = engine._build_prefill_plan

        def _submit(request):
            submit(request)
            self.check_load()

        def _begin_prefill(request):
            begin_prefill(request)
            self.batch.append(request)

        def _start_iteration():
            self.check_load()
            start_iteration()

        def _end_iteration(plan):
            now = engine.sim.now
            decoding = self.decode_set()
            for request in decoding:
                self.tokens[request] += 1
                self.times[request].append(now)
            due = []
            for request, tokens in plan:
                if tokens == request.remaining_prefill_tokens:
                    self.tokens[request] = 1
                    self.times[request] = [now]
                    if request.output_tokens == 1:
                        due.append(request)
            due += [r for r in decoding if self.tokens[r] == r.output_tokens]
            self.due = due
            end_iteration(plan)
            assert self.due == []
            self.check_load()

        def _finish(request, now):
            assert self.due and request is self.due.pop(0)
            assert request.tokens_generated == self.tokens[request] \
                == request.output_tokens
            assert request.token_times == self.times[request]
            finish(request, now)
            self._drop([request])
            self.finishes += 1

        def _squash(request):
            self.squashes += 1
            self._drop([request])
            squash(request)
            assert request.tokens_generated == 0 and request.token_times == []

        # Both read the batch before the real call changes it.
        def _fail(**kwargs):
            self.failures += 1
            frozen = {r: (self.tokens.get(r, 0), self.times.get(r, []))
                      for r in self.batch}
            self.batch, self.tokens, self.times = [], {}, {}
            recoverable, lost = fail(**kwargs)
            for request in lost:
                tokens, times = frozen.get(request, (0, []))
                assert request.tokens_generated == tokens
                assert request.token_times == times
                self.lost_decoding += tokens > 0
            for request in recoverable:
                assert request.tokens_generated == 0
                assert request.token_times == []
            self.check_load()
            return recoverable, lost

        def _evacuate_unstarted():
            self._drop([r for r in self.batch
                        if r.prefill_start_time is None
                        and r.tokens_generated == 0])
            evacuated = evacuate()
            self.evacuated += len(evacuated)
            self.check_load()
            return evacuated

        def _build_prefill_plan():
            plan = build_plan()
            self.check_iteration(plan)
            return plan

        engine.submit = _submit
        engine._begin_prefill = _begin_prefill
        engine._start_iteration = _start_iteration
        engine._end_iteration = _end_iteration
        engine._finish = _finish
        engine.squash = _squash
        engine.fail = _fail
        engine.evacuate_unstarted = _evacuate_unstarted
        engine._build_prefill_plan = _build_prefill_plan

    def _check_batch(self) -> None:
        engine = self.engine
        decode_set = self.decode_set()
        prefilling = [r for r in self.batch if r.remaining_prefill_tokens > 0]
        assert list(engine._decoding) == decode_set
        assert engine._prefilling == prefilling
        assert [*engine._decoding, *engine._prefilling] == self.batch
        assert (engine._decode_ctx_tokens, engine._decode_rank_sum,
                engine._decode_lora_count) == oracle_decode_sums(
                    engine, decode_set, self.tokens)

    def check_load(self) -> None:
        engine = self.engine
        assert engine.in_flight_token_load() == oracle_token_load(
            engine, self.batch, self.tokens)
        assert engine.in_flight_count() == (
            len(self.batch) + len(engine._pending_load)
            + len(list(engine.scheduler.queued_requests())))
        self._check_batch()
        self.load_checks += 1

    def check_iteration(self, plan) -> None:
        expected = oracle_prefill_plan(self.engine, self.batch)
        assert [r for r, _ in plan] == [r for r, _ in expected]
        assert [t for _, t in plan] == [t for _, t in expected]
        if plan and plan[-1][1] < plan[-1][0].remaining_prefill_tokens:
            self.partial_prefills += 1
        self._check_batch()
        self.iteration_checks += 1


def test_chameleon_bypass_and_squash_on_a_15_gib_gpu():
    """Only ~1 GiB is left for KV and adapters, so admissions hit
    NO_ADAPTER_ROOM, the MLQ bypasses, and bypassers get squashed."""
    registry = AdapterRegistry.build(LLAMA_7B, 10, ranks=(128,))
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=5.0, duration=30.0,
                             rng=RngStreams(4).get("trace"), registry=registry)
    system = build_system("chameleon", registry=registry,
                          gpu_memory_bytes=15 * GB, seed=4)
    oracle = BatchOracle(system.replicas[0].engine)
    system.run_trace(trace.fresh(), horizon=600.0)
    assert system.replicas[0].scheduler.bypass_count > 0
    assert oracle.squashes > 0
    assert system.replicas[0].engine.stats.squashes == oracle.squashes
    assert oracle.load_checks > len(trace)
    assert oracle.iteration_checks >= system.replicas[0].engine.stats.iterations
    assert all(r.finished for r in system.all_requests())
    assert oracle.finishes == len(trace)
    assert oracle.batch == [] and system.replicas[0].engine.in_flight_token_load() == 0


def test_slora_chunked_partial_prefills():
    registry = AdapterRegistry.build(LLAMA_7B, 20)
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=8.0, duration=20.0,
                             rng=RngStreams(5).get("trace"), registry=registry)
    system = build_system("slora_chunked", registry=registry,
                          predictor_accuracy=None, seed=5)
    oracle = BatchOracle(system.replicas[0].engine)
    system.run_trace(trace.fresh())
    assert oracle.partial_prefills > 0
    assert oracle.load_checks > len(trace)
    assert all(r.finished for r in system.all_requests())
    assert oracle.finishes == len(trace)
    assert system.replicas[0].engine.in_flight_token_load() == 0


def test_token_weighted_cluster_with_faults_and_a_drain():
    registry = AdapterRegistry.build(LLAMA_7B, 50)
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=40.0, duration=30.0,
                             rng=RngStreams(6).get("trace"), registry=registry)
    system = MultiReplicaSystem.build(
        "chameleon", n_replicas=4, dispatch_policy="token_weighted",
        registry=registry, seed=6,
        fault_schedule="6:degrade:0:0.5, 10:crash:1, 14:stall:2:4")
    oracles = [BatchOracle(engine) for engine in system.engines]
    system.sim.schedule_at(
        16.0, lambda: system.cluster.drain_replica(3, migrate=True))
    system.run_trace(trace.fresh())
    assert system.engines[0]._rate_multiplier == 0.5
    assert oracles[1].failures == 1 and system.engines[1].failed
    assert oracles[3].evacuated > 0
    assert system.cluster.stats.migrations > 0
    for oracle in oracles:
        assert oracle.load_checks > 0 and oracle.iteration_checks > 0
        assert oracle.batch == []
        assert oracle.engine.in_flight_token_load() == 0
    finished = sum(1 for r in system.all_requests() if r.finished)
    assert finished == len(trace)
    assert sum(oracle.finishes for oracle in oracles) == len(trace)


def test_predictions_above_and_below_the_true_length():
    """A request predicted long finishes still owing load; one predicted
    short stops owing load while it decodes."""
    registry = AdapterRegistry.build(LLAMA_7B, 20)
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=8.0, duration=20.0,
                             rng=RngStreams(7).get("trace"), registry=registry)
    system = build_system("slora", registry=registry,
                          predictor_accuracy=0.3, seed=7)
    oracle = BatchOracle(system.replicas[0].engine)
    system.run_trace(trace.fresh())
    done = system.all_requests()
    assert any(r.predicted_output_tokens > r.output_tokens for r in done)
    assert any(r.predicted_output_tokens < r.output_tokens for r in done)
    assert oracle.finishes == len(trace) == len(done)
    assert oracle.load_checks > len(trace)
    assert system.replicas[0].engine.in_flight_token_load() == 0


def test_one_token_outputs_finish_at_their_first_token():
    registry = AdapterRegistry.build(LLAMA_7B, 8)
    requests = [
        Request(request_id=i, arrival_time=0.05 * i,
                input_tokens=64 + 37 * (i % 5),
                output_tokens=(1, 1, 2, 5, 1, 9)[i % 6],
                adapter_id=i % 8 if i % 3 else None)
        for i in range(60)]
    system = build_system("slora", registry=registry,
                          predictor_accuracy=0.5, seed=8)
    oracle = BatchOracle(system.replicas[0].engine)
    system.run_trace(requests)
    one = [r for r in requests if r.output_tokens == 1]
    assert any(r.predicted_output_tokens > 1 for r in one)
    for r in one:
        assert r.token_times == [r.first_token_time] == [r.finish_time]
    assert oracle.finishes == len(requests)
    assert system.replicas[0].engine.in_flight_token_load() == 0


def test_crash_strands_decoding_requests_with_frozen_timelines():
    """``fail(migrate=False)``: every request on the crashed replica is
    lost, and started ones keep the tokens they emitted before the crash."""
    registry = AdapterRegistry.build(LLAMA_7B, 30)
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=20.0, duration=20.0,
                             rng=RngStreams(9).get("trace"), registry=registry)
    system = MultiReplicaSystem.build(
        "chameleon", n_replicas=2, dispatch_policy="token_weighted",
        registry=registry, seed=9, fault_schedule="8:crash:1",
        fault_migrate=False)
    oracles = [BatchOracle(engine) for engine in system.engines]
    system.run_trace(trace.fresh())
    assert oracles[1].failures == 1
    assert oracles[1].lost_decoding > 0
    lost = [r for r in system.all_requests() if r.lost]
    assert any(1 < r.tokens_generated < r.output_tokens for r in lost)
    finished = sum(1 for r in system.all_requests() if r.finished)
    assert finished + len(lost) == len(trace)
    assert sum(oracle.finishes for oracle in oracles) == finished


def squash_after(engine, victim, starts: int) -> None:
    """Make the engine's scheduler squash ``victim`` at the ``starts``-th
    iteration start after its first token."""
    select = engine.scheduler.select
    seen = 0

    def _select(ctx):
        nonlocal seen
        if seen is not None and victim.first_token_time is not None:
            seen += 1
            if seen == starts:
                seen = None
                ctx.squash(victim)
        select(ctx)

    engine.scheduler.select = _select


def test_squash_at_every_step_of_a_decode():
    """Squash a decoding request at each iteration start of its decode,
    with its prediction below, at and above the tokens it has emitted, so
    the squash lands on every side of the step its prediction runs out."""
    registry = AdapterRegistry.build(LLAMA_7B, 4)
    for predicted in range(1, 9):
        for starts in range(1, 7):
            system = build_system("slora", registry=registry,
                                  predictor_accuracy=None, seed=0)
            oracle = BatchOracle(system.replicas[0].engine)
            victim = Request(request_id=0, arrival_time=0.0, input_tokens=100,
                             output_tokens=8, adapter_id=1,
                             predicted_output_tokens=predicted)
            other = Request(request_id=1, arrival_time=0.0, input_tokens=80,
                            output_tokens=12, predicted_output_tokens=5)
            squash_after(system.replicas[0].engine, victim, starts)
            system.run_trace([victim, other])
            assert oracle.squashes == 1 and victim.squash_count == 1
            assert oracle.finishes == 2 and victim.finished
            assert system.replicas[0].engine.in_flight_token_load() == 0
