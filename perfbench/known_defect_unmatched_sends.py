"""Reproducer of a known defect: spurious unmatched sends at
``profiling='off'``.

Back-to-back applies of one 2-rank operator compiled without profiling
fail with ``CommValidationError: unmatched sends``: nothing
synchronises the ranks at the end of an apply, so the next apply's
first halo send can land in the peer's mailbox before the peer has run
its own end-of-apply commlog check.  At the default level (``basic``)
the profiling allgather at the end of every apply hides the race, which
is why the benchmark measures there.

Run from the root of a checkout::

    python3 perfbench/known_defect_unmatched_sends.py

Exits with 1 while the defect reproduces and 0 once every attempt
passes.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), 'src'))

ATTEMPTS = 3
APPLIES = 5


def job(comm):
    from repro.models import acoustic_setup
    solver, _ = acoustic_setup(shape=(384, 384), tn=1000.0, space_order=8,
                               nbl=10, nrec=64, comm=comm, mpi='basic')
    for _ in range(APPLIES):
        solver.op.apply(time_m=0, time_M=99, dt=solver.model.critical_dt)


def main():
    from repro import configuration
    from repro.mpi import run_parallel
    from repro.mpi.commlog import CommValidationError
    configuration['profiling'] = 'off'
    configuration['backend'] = 'c'
    failures = 0
    for i in range(ATTEMPTS):
        try:
            run_parallel(job, 2)
            print('attempt %d: ok' % i)
        except CommValidationError as e:
            failures += 1
            print('attempt %d: %s' % (i, e))
    print('%d/%d attempts failed' % (failures, ATTEMPTS))
    return 1 if failures else 0


if __name__ == '__main__':
    sys.exit(main())
