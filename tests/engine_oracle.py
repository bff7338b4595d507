"""The bare-engine run loop, kept as an oracle for the one run path.

Traces run only through ``MultiReplicaSystem.run_trace``: ``build_system``
serves a preset on a 1-replica cluster.  The engine used to run a trace
itself, and this module keeps that loop: feed the arrivals straight to
``engine.submit``, sample GPU memory on the clock when a horizon is given,
and run the engine's simulator.  Tests drive bare engines with it, and
``tests/test_run_path_differential.py`` holds ``build_system`` to it.
"""

from repro.sim.simulator import Simulator
from repro.systems import build_replica


def engine_replica(preset, **kwargs):
    """One replica of ``preset`` on its own clock, outside any cluster."""
    return build_replica(preset, sim=Simulator(), **kwargs)


def run_engine(engine, requests, horizon=None) -> None:
    """Submit every request to ``engine`` at its arrival time and run its
    simulator until ``horizon``, or until the event heap drains."""
    engine.sim.feed(requests, engine.submit)
    interval = engine.config.memory_telemetry_interval
    if interval is not None and horizon is not None:
        _sample_memory(engine, interval, horizon)
    engine.sim.run(until=horizon)


def token_gaps(request) -> list[float]:
    """A request's inter-token gaps (the TBT samples), first token
    excluded: the per-request reference the engine tests check."""
    times = list(request.token_times)
    return [b - a for a, b in zip(times, times[1:])]


def _sample_memory(engine, interval, horizon) -> None:
    sim = engine.sim

    def sample() -> None:
        engine.gpu.maybe_sample(sim.now)
        if sim.now + interval <= horizon:
            sim.schedule(interval, sample)

    sim.schedule(0.0, sample)
