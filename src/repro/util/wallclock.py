"""Wall-clock access for the CLI / benchmark layer.

Nothing on the simulation path may read the host's clock: a run whose
behavior depends on how fast the host executes is not reproducible, and
byte-identical reruns are what every A/B claim in this repo rests on
(simlint rule D002 enforces this statically — see :mod:`repro.analysis`).
Real time still has one legitimate job, *reporting* how long an experiment
took to execute, and this module is the single sanctioned door to it: it is
the only path-allowlisted module for D002, so every wall-clock read in the
tree is enumerable from here.

Use :class:`Stopwatch` for elapsed-time reporting::

    watch = Stopwatch()
    run_experiment()
    print(f"(elapsed: {watch.elapsed():.1f}s)")
"""

from __future__ import annotations

import time


def wall_now() -> float:
    """The host wall clock, seconds since the epoch.

    Reporting only — simulation code wanting "now" must use its
    ``Simulator.now`` simulated clock instead.
    """
    return time.time()


class Stopwatch:
    """Measure elapsed host time for progress reporting.

    Starts on construction; :meth:`elapsed` reads without stopping, so one
    stopwatch can stamp several checkpoints.
    """

    def __init__(self) -> None:
        self._start = wall_now()

    def elapsed(self) -> float:
        """Seconds since construction."""
        return wall_now() - self._start
