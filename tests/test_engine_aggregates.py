"""Oracle tests for the engine's incrementally kept sums.

``ServingEngine`` keeps its token load, and the decode set's context-token,
LoRA-rank and LoRA-count sums, up to date wherever the batch changes, and it
stores the batch as ``_decoding`` followed by ``_prefilling``.  The oracle
here is the old definition of each value, which walked the batch:

* the token load summed over the batch, the loading requests and the queue;
* the decode set as the batch filtered on ``remaining_prefill_tokens == 0``;
* the context and rank sums computed through ``AdapterRegistry.get``.

The batch itself is shadowed from outside, in admission order, by wrapping
the engine's transitions on the instance (a request joins at
``_begin_prefill`` and leaves at ``_finish``, ``squash``, ``fail`` or
``evacuate_unstarted``).  At every load-change notification and every
iteration start the kept values, the decode-set order and the prefill plan
must equal the oracle's.
"""

from __future__ import annotations

from repro.adapters.registry import AdapterRegistry
from repro.hardware.gpu import GB
from repro.llm.model import LLAMA_7B
from repro.serving.replica import MultiReplicaSystem
from repro.sim.rng import RngStreams
from repro.systems import build_system
from repro.workload.trace import SPLITWISE_PROFILE, synthesize_trace


def _same(actual, expected) -> bool:
    """Element-wise identity (``Request`` equality compares fields)."""
    return len(actual) == len(expected) and all(
        a is e for a, e in zip(actual, expected))


def oracle_token_load(engine, batch) -> float:
    total = 0.0
    for request in batch + engine._pending_load:
        predicted = request.predicted_output_tokens or request.output_tokens
        total += request.remaining_prefill_tokens
        total += max(0, predicted - request.tokens_generated)
    for request in engine.scheduler.queued_requests():
        predicted = request.predicted_output_tokens or request.output_tokens
        total += request.input_tokens + predicted
    return total


def oracle_decode_sums(engine, decode_set) -> tuple[int, int, int]:
    ctx_tokens = sum(r.context_tokens for r in decode_set)
    total_rank = 0
    n_lora = 0
    for request in decode_set:
        if request.adapter_id is not None:
            total_rank += engine.registry.get(request.adapter_id).rank
            n_lora += 1
    return ctx_tokens, total_rank, n_lora


def oracle_prefill_plan(engine, batch) -> list:
    chunked = engine.config.chunk_size is not None
    budget = (engine.config.chunk_size if chunked
              else engine.config.prefill_token_budget)
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
    """Shadows one engine's batch and checks its kept sums against it."""

    def __init__(self, engine) -> None:
        self.engine = engine
        #: The batch in admission order, rebuilt from the transitions.
        self.batch: list = []
        self.load_checks = 0
        self.iteration_checks = 0
        self.partial_prefills = 0
        self.squashes = 0
        self.failures = 0
        self.evacuated = 0
        self._wrap_transitions()
        engine.on_load_change(self.check_load)

    def _drop(self, requests) -> None:
        gone = {id(r) for r in requests}
        self.batch = [r for r in self.batch if id(r) not in gone]

    def _wrap_transitions(self) -> None:
        engine = self.engine
        begin_prefill = engine._begin_prefill
        finish = engine._finish
        squash = engine.squash
        fail = engine.fail
        evacuate = engine.evacuate_unstarted
        build_plan = engine._build_prefill_plan

        def _begin_prefill(request):
            begin_prefill(request)
            self.batch.append(request)

        def _finish(request, now):
            finish(request, now)
            self._drop([request])

        def _squash(request):
            self.squashes += 1
            self._drop([request])
            squash(request)

        # ``fail`` and ``evacuate_unstarted`` notify load listeners before
        # they return, so the shadow moves first, as the old code defined.
        def _fail(**kwargs):
            self.failures += 1
            self.batch = []
            return fail(**kwargs)

        def _evacuate_unstarted():
            self._drop([r for r in self.batch
                        if r.prefill_start_time is None
                        and r.tokens_generated == 0])
            evacuated = evacuate()
            self.evacuated += len(evacuated)
            return evacuated

        def _build_prefill_plan():
            plan = build_plan()
            self.check_iteration(plan)
            return plan

        engine._begin_prefill = _begin_prefill
        engine._finish = _finish
        engine.squash = _squash
        engine.fail = _fail
        engine.evacuate_unstarted = _evacuate_unstarted
        engine._build_prefill_plan = _build_prefill_plan

    def _check_batch(self) -> None:
        engine = self.engine
        decode_set = [r for r in self.batch if r.remaining_prefill_tokens == 0]
        prefilling = [r for r in self.batch if r.remaining_prefill_tokens > 0]
        assert _same(engine._decoding, decode_set)
        assert _same(engine._prefilling, prefilling)
        assert _same(engine._decoding + engine._prefilling, self.batch)
        assert (engine._decode_ctx_tokens, engine._decode_rank_sum,
                engine._decode_lora_count) == oracle_decode_sums(
                    engine, decode_set)

    def check_load(self) -> None:
        engine = self.engine
        assert engine.in_flight_token_load() == oracle_token_load(
            engine, self.batch)
        assert engine.in_flight_count() == (
            len(self.batch) + len(engine._pending_load)
            + len(list(engine.scheduler.queued_requests())))
        self._check_batch()
        self.load_checks += 1

    def check_iteration(self, plan) -> None:
        expected = oracle_prefill_plan(self.engine, self.batch)
        assert _same([r for r, _ in plan], [r for r, _ in expected])
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
    oracle = BatchOracle(system.engine)
    system.run_trace(trace.fresh(), horizon=600.0)
    assert system.scheduler.bypass_count > 0
    assert oracle.squashes > 0
    assert system.engine.stats.squashes == oracle.squashes
    assert oracle.load_checks > len(trace)
    assert oracle.iteration_checks >= system.engine.stats.iterations
    assert all(r.finished for r in system.engine.all_requests)
    assert oracle.batch == [] and system.engine.in_flight_token_load() == 0


def test_slora_chunked_partial_prefills():
    registry = AdapterRegistry.build(LLAMA_7B, 20)
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=8.0, duration=20.0,
                             rng=RngStreams(5).get("trace"), registry=registry)
    system = build_system("slora_chunked", registry=registry,
                          predictor_accuracy=None, seed=5)
    oracle = BatchOracle(system.engine)
    system.run_trace(trace.fresh())
    assert oracle.partial_prefills > 0
    assert oracle.load_checks > len(trace)
    assert all(r.finished for r in system.engine.all_requests)
    assert system.engine.in_flight_token_load() == 0


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
    assert system.engines[0].rate_multiplier == 0.5
    assert oracles[1].failures == 1 and system.engines[1].failed
    assert oracles[3].evacuated > 0
    assert system.cluster.stats.migrations > 0
    for oracle in oracles:
        assert oracle.load_checks > 0 and oracle.iteration_checks > 0
        assert oracle.batch == []
        assert oracle.engine.in_flight_token_load() == 0
    finished = sum(1 for r in system.all_requests() if r.finished)
    assert finished == len(trace)
