"""The repository benchmark: three workloads run through ``repro``'s
public API, outputs checked bitwise against serial NumPy oracles.

Run from the root of a checkout::

    python3 perfbench/run.py --workload acoustic2d-r2 --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see metrics.py and NOTES.md).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

This process never imports ``repro``.  It starts child processes of
itself, one at a time so that at most one workload runs: set-up probes
(``--role probe``), each a fresh process that stops once its first
timed shot is ready, then one measuring child (``--role measure``).
``setup_s`` is the median over the probes and the measuring child, each
timed from just before its process was started.

Each child runs on one core (the last one this process may use), so
its two busy threads share it.  They take turns on the interpreter
lock anyway; on a shared host, letting them spread over two cores
makes every hand-over wait for the host to schedule the other core,
and the shot times then follow the host's load rather than the
program.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, 'src')
WORK = os.path.join(ROOT, '.perfbench_work')

#: set-ups per untraced run (probes + the measuring child)
SETUPS = 3
#: wall-clock limit of a whole run, children included
RUN_TIMEOUT = 170


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    p.add_argument('--workload', required=True)
    p.add_argument('--seed', type=int, required=True)
    p.add_argument('--seconds', type=float, required=True)
    p.add_argument('--trace', type=int, choices=(0, 1), default=0)
    p.add_argument('--role', choices=('probe', 'measure'),
                   help=argparse.SUPPRESS)
    p.add_argument('--spawned-at', type=float, help=argparse.SUPPRESS)
    p.add_argument('--out', help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- the child processes --------------------------------------------------------


def child(args):
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cores)})
    sys.path.insert(0, SRC)
    from tracing import Tracer, perf
    tic = perf()
    import repro  # noqa: F401 - the measured import
    import_s = perf() - tic
    from workloads import WORKLOADS, Context

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    seconds = 0 if args.role == 'probe' else args.seconds
    ctx = Context(args.seed, seconds, os.path.dirname(args.out), tracer)
    workload.run(ctx)
    out = {'setup_s': ctx.ready_at - args.spawned_at}
    if args.role == 'measure':
        out.update(_measure_report(args, workload, ctx, tracer, import_s,
                                   len(cores)))
    with open(args.out, 'w', encoding='utf-8') as f:
        json.dump(out, f)


def _measure_report(args, workload, ctx, tracer, import_s, nproc):
    import resource

    import metrics
    from host import host_facts

    # read before the oracle runs: the NumPy oracles are memory hungry
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    expected = workload.oracle(ctx)
    failed = sum(1 for key, dig in ctx.checks if expected.get(key) != dig)
    out = {'attempted': len(ctx.checks), 'failed': failed,
           'samples': len(ctx.shots),
           'host': host_facts(workload.threads, ctx.working_set, nproc)}
    if tracer is None:
        out['metrics'] = metrics.end_to_end(ctx, workload, peak_rss_mb)
    else:
        out['metrics'] = metrics.per_layer(
            tracer, ctx, workload, import_s, (args.spawned_at, ctx.ready_at))
        tracer.write_chrome(os.path.join(WORK, 'trace-%s.json'
                                         % args.workload), args.spawned_at)
    return out


# -- the orchestrating process ----------------------------------------------------


def _spawn(args, role, scratch, index, deadline):
    """Run one child to completion; its report, or None if it failed."""
    out = os.path.join(scratch, '%s%d.json' % (role, index))
    env = {k: v for k, v in os.environ.items() if not k.startswith('REPRO_')}
    env['TMPDIR'] = os.path.join(scratch, 'tmp')
    os.makedirs(env['TMPDIR'], exist_ok=True)
    cmd = [sys.executable, os.path.abspath(__file__),
           '--workload', args.workload, '--seed', str(args.seed),
           '--seconds', repr(args.seconds), '--trace', str(args.trace),
           '--role', role, '--out', out]
    spawned_at = time.perf_counter()
    proc = subprocess.run(cmd + ['--spawned-at', repr(spawned_at)],
                          cwd=ROOT, env=env,
                          timeout=max(deadline - spawned_at, 1.0),
                          stdout=sys.stderr)
    if proc.returncode != 0 or not os.path.exists(out):
        return None
    with open(out, encoding='utf-8') as f:
        return json.load(f)


def orchestrate(args):
    if not os.path.isfile(os.path.join(SRC, 'repro', '__init__.py')):
        print('perfbench: no src/repro package under %s' % ROOT,
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print('perfbench: unknown workload %r; choose from %s'
              % (args.workload, ', '.join(WORKLOADS)), file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_TIMEOUT
    scratch = os.path.join(WORK, 'run-%d' % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    try:
        # compiled bytecode for every probe, not only the later ones
        subprocess.run([sys.executable, '-m', 'compileall', '-q', SRC, HERE],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        setups = []
        if not args.trace:
            for i in range(SETUPS - 1):
                probe = _spawn(args, 'probe', scratch, i, deadline)
                if probe is None:
                    return 1
                setups.append(probe['setup_s'])
        report = _spawn(args, 'measure', scratch, 0, deadline)
        if report is None:
            return 1
    except (subprocess.SubprocessError, OSError) as e:
        print('perfbench: %s' % e, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    values = dict(report['metrics'])
    if not args.trace:
        setups.append(report['setup_s'])
        values['setup_s'] = statistics.median(setups)
    _print_table(args, report, values, setups)
    from metrics import UNITS
    print(json.dumps({
        'correct': report['failed'] == 0,
        'attempted': report['attempted'],
        'failed': report['failed'],
        'metrics': {k: {'value': v, 'unit': UNITS[k]}
                    for k, v in sorted(values.items())},
    }))
    return 0


def _print_table(args, report, values, setups):
    from metrics import DIRECTIONS, UNITS
    host = report['host']
    print('workload %s  seed %d  seconds %g  trace %d  shots %d  '
          'attempted %d  failed %d'
          % (args.workload, args.seed, args.seconds, args.trace,
             report['samples'], report['attempted'], report['failed']))
    if setups:
        print('set-ups: %s s' % ', '.join('%.3f' % s for s in setups))
    for name, value in sorted(values.items()):
        print('  %-38s %14.6g %-9s %s' % (name, value, UNITS[name],
                                          DIRECTIONS[name]))
    print('host: %s' % json.dumps(host, sort_keys=True))
    if host['oversubscribed']:
        print('warning: %d busy threads on %d cores'
              % (host['busy_threads'], host['nproc']))


def main(argv=None):
    args = parse_args(argv)
    if args.role is not None:
        child(args)
        return 0
    return orchestrate(args)


if __name__ == '__main__':
    sys.exit(main())
