"""One fake serving engine for the dispatcher tests.

:class:`FakeEngine` speaks the load-accounting protocol that
:class:`~repro.hardware.cluster.DataParallelCluster` relies on: its batch
cap is ``config.max_batch_size``, every ``submit`` puts one request in
flight, and every finish (:meth:`FakeEngine.finish_one`) is reported through
the ``on_finish`` hooks.  Its token load is a base (:attr:`tokens`) plus
one token per in-flight request.  It doubles as its own adapter manager,
whose resident adapters are the keys of :attr:`entries`.

It also checks the dispatcher's side of the contract: ``submit`` asserts
the engine is below its cap (unless built with ``enforce_cap=False``, for
force-submission without backpressure) and, once :attr:`cluster` is set,
that its replica is ACTIVE and not stalled.
"""

from types import SimpleNamespace

from repro.serving.adapter_manager import AdapterState

#: The ``entries`` value of a resident adapter (the real manager's shape).
RESIDENT = SimpleNamespace(state=AdapterState.RESIDENT)


class FakeEngine:
    def __init__(self, load=0, *, max_batch_size=64, sim=None, resident=(),
                 tokens=0, enforce_cap=True, submit_log=None):
        self.config = SimpleNamespace(max_batch_size=max_batch_size)
        self.sim = sim
        self.adapter_manager = self
        self.entries = {adapter_id: RESIDENT for adapter_id in resident}
        self.tokens = tokens
        self.enforce_cap = enforce_cap
        self.submitted = []             # every request handed to this engine
        self.in_flight = [None] * load  # preloaded placeholders, then work
        self.finished = []
        #: The cluster this engine serves in; when set, ``submit`` checks
        #: that the engine's replica accepts work.
        self.cluster = None
        self._submit_log = submit_log
        self._finish_callbacks = []

    # -- load-accounting protocol ---------------------------------------- #
    def in_flight_count(self):
        return len(self.in_flight)

    def in_flight_token_load(self):
        return self.tokens + len(self.in_flight)

    def on_finish(self, callback):
        self._finish_callbacks.append(callback)

    # -- adapter-manager protocol ---------------------------------------- #
    def is_resident(self, adapter_id):
        return adapter_id in self.entries

    # -- work ------------------------------------------------------------ #
    def submit(self, request):
        if self.enforce_cap:
            assert len(self.in_flight) < self.config.max_batch_size, \
                "submitted to a saturated engine"
        if self.cluster is not None:
            handle = self.cluster.handles[self.cluster.engines.index(self)]
            assert handle.accepts_work, \
                f"dispatch to ineligible replica (state={handle.state}, " \
                f"stalled={handle.stalled})"
        self.submitted.append(request)
        self.in_flight.append(request)
        if self._submit_log is not None:
            self._submit_log.append(request)

    def finish_one(self):
        """Finish the oldest in-flight request and report it."""
        request = self.in_flight.pop(0)
        self.finished.append(request)
        for callback in self._finish_callbacks:
            callback(request)

    def fail(self, *, migrate=True):
        """The real engine's crash contract, in miniature: the first half
        of the in-flight set counts as started and is handed back after
        the rest; with ``migrate`` all of it is recoverable and leaves this
        engine's accounting, without it all of it is lost."""
        half = len(self.in_flight) // 2
        started, fresh = self.in_flight[:half], self.in_flight[half:]
        self.in_flight = []
        if not migrate:
            return [], started + fresh
        for request in fresh + started:
            self.submitted.remove(request)
        return fresh + started, []


class CapableFakeEngine(FakeEngine):
    """A :class:`FakeEngine` reporting a spec capability (the relative
    throughput weight of a heterogeneous fleet)."""

    def __init__(self, load=0, *, capability, **kwargs):
        super().__init__(load, **kwargs)
        self._capability = capability

    def capability(self):
        return self._capability
