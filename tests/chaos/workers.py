"""Fault functions for the engine, service and trace-plane chaos tests.

Installed in process by
:func:`repro.experiments.chaos.injected_faults` (``{run.key(): boom}``):
each is called with the faulted :class:`PlannedRun` in place of its
compute function.  Pool workers inherit a fault only when they are
forked while it is installed, so the tests pin the ``fork`` start
method.
"""

import os
import time

#: How long ``hang`` sleeps — longer than any test timeout, short
#: enough that abandoned workers don't stall interpreter teardown.
HANG_SECONDS = 2.5

#: ``slow`` sleeps long enough that a crash elsewhere in the batch
#: breaks the pool while these runs are still in flight.
SLOW_SECONDS = 0.4


def slow(run):
    time.sleep(SLOW_SECONDS)
    return {"slept_s": SLOW_SECONDS}


def boom(run):
    raise ValueError("injected worker exception")


def crash(run):
    os._exit(17)  # kills the worker process: BrokenProcessPool upstream


def hang(run):
    time.sleep(HANG_SECONDS)
    return {"slept_s": HANG_SECONDS}
