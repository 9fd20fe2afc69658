"""Metric definitions and how each is computed from one run.

Every metric has a unit and a direction: ``higher`` or ``lower`` is
better, or ``exact`` for a deterministic count that must repeat
exactly (BENCHMARK.json, whose schema knows only higher and lower,
lists an exact count with the direction a reduction would take).

Per-layer conventions (see NOTES.md), spelled out by the units:

* ``/build``: totals over one build window, which is the set-up of a
  solver workload or one A+B batch cycle of ``survey-mixed``;
* ``/shot``: per timed shot, summed over the threads that ran it (a
  2-rank shot counts both ranks' time);
* ``/step``: per timestep of a shot, summed over ranks.
"""

import statistics

import numpy as np

#: (name, unit, direction) of the end-to-end metrics (untraced runs)
END_TO_END = (
    ('setup_s', 's', 'lower'),
    ('gpts', 'GPts/s', 'higher'),
    ('shot_s.p50', 's', 'lower'),
    ('shot_s.tail', 's', 'lower'),
    ('shots_per_s', '1/s', 'higher'),
    ('peak_rss_mb', 'MB', 'lower'),
)

#: (name, unit, direction) of the per-layer metrics (traced runs)
PER_LAYER = (
    ('repro.import_s', 's', 'lower'),
    ('ir.build_schedule_s', 's/build', 'lower'),
    ('ir.flops_per_pt', 'flop/pt', 'exact'),
    ('ir.bytes_per_pt', 'B/pt', 'exact'),
    ('codegen.generate_kernel_s', 's/build', 'lower'),
    ('codegen.jit.compile_s', 's/build', 'lower'),
    ('codegen.jit.compile_n', 'count/build', 'exact'),
    ('codegen.c_source_bytes', 'B/build', 'exact'),
    ('codegen.step_s', 's/shot', 'lower'),
    ('codegen.step_gflops', 'GFlop/s', 'higher'),
    ('dsl.data.subnormal_frac', 'fraction', 'exact'),
    ('analysis.certificate_s', 's/build', 'lower'),
    ('buildcache.lookup_s', 's/build', 'lower'),
    ('buildcache.hit_n.memory', 'count/build', 'higher'),
    ('buildcache.hit_n.disk', 'count/build', 'exact'),
    ('buildcache.miss_n', 'count/build', 'exact'),
    ('buildcache.store_s', 's/build', 'lower'),
    ('buildcache.store_bytes', 'B/build', 'lower'),
    ('mpi.halo.exchange_s', 's/shot', 'lower'),
    ('mpi.halo.wait_s', 's/shot', 'lower'),
    ('mpi.halo.msgs_per_step', 'count/step', 'exact'),
    ('mpi.halo.bytes_per_step', 'B/step', 'exact'),
    ('mpi.sim.allreduce_per_step', 'count/step', 'exact'),
    ('mpi.sim.allreduce_s', 's/shot', 'lower'),
    ('mpi.sim.collect_blocked_s', 's/shot', 'lower'),
    ('dsl.operator.apply_s', 's/shot', 'lower'),
    ('dsl.operator.driver_self_s', 's/shot', 'lower'),
    ('resilience.checkpoint.save_s', 's/shot', 'lower'),
    ('resilience.checkpoint.save_n', 'count/shot', 'exact'),
    ('resilience.checkpoint.save_bytes', 'B/shot', 'exact'),
    ('resilience.checkpoint.restore_s', 's/shot', 'lower'),
    ('resilience.recovery_s', 's/shot', 'lower'),
    ('resilience.elastic.repartition_bytes', 'B/shot', 'exact'),
    ('service.pool.checkout_s', 's/shot', 'lower'),
    ('service.pool.checkin_s', 's/shot', 'lower'),
    ('service.pool.reuse_ratio', 'ratio', 'higher'),
    ('service.store.put_s', 's/shot', 'lower'),
    ('service.store.put_bytes', 'B/shot', 'exact'),
    ('service.queue_wait_s.p50', 's/shot', 'lower'),
    ('trace.overhead_frac', 'ratio', 'lower'),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
DIRECTIONS = {name: d for name, _, d in END_TO_END + PER_LAYER}


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(ctx, workload, peak_rss_mb):
    """Everything but ``setup_s`` (the caller takes its median over
    several set-ups)."""
    times = [s for _, s, _ in ctx.shots]
    if ctx.batches:
        # one A+B batch cycle is the unit that repeats
        cycles = [ctx.batches[i:i + 2]
                  for i in range(0, len(ctx.batches), 2)]
        gpts = statistics.median(sum(b[3] for b in c) / sum(b[2] for b in c)
                                 for c in cycles) / 1e9
        shots_per_s = statistics.median(
            sum(b[1] for b in c) / sum(b[2] for b in c) for c in cycles)
    else:
        gpts = statistics.median(w / s for _, s, w in ctx.shots) / 1e9
        shots_per_s = len(times) / sum(times)
    return {
        'gpts': gpts,
        'shot_s.p50': statistics.median(times),
        'shot_s.tail': percentile(times, workload.tail_q),
        'shots_per_s': shots_per_s,
        'peak_rss_mb': peak_rss_mb,
    }


def per_layer(tracer, ctx, workload, import_s, setup_window):
    """The per-layer metrics of a traced run."""
    facts = ctx.facts
    shot_windows = ctx.windows['traced']
    shots = sum(1 for p, _, _ in ctx.shots if p == 'traced')
    steps = facts.get('timesteps', 0)
    if ctx.batches:
        build_windows = shot_windows
        builds = facts.get('cycles', 0)
    else:
        build_windows = [setup_window]
        builds = 1
    t = tracer

    def per_build(x):
        return x / builds if builds else 0.0

    def per_shot(x):
        return x / shots if shots else 0.0

    def per_step(x):
        return x / steps if steps else 0.0

    lookups = t.values('buildcache.lookup', build_windows)
    steps_s = t.total('codegen.step', shot_windows)
    plain = [s for p, s, _ in ctx.shots if p == 'plain']
    traced = [s for p, s, _ in ctx.shots if p == 'traced']
    queue_waits = facts.get('queue_waits')
    return {
        'repro.import_s': import_s,
        'ir.build_schedule_s': per_build(
            t.total('ir.build_schedule', build_windows)),
        'ir.flops_per_pt': facts.get('ir.flops_per_pt', 0),
        'ir.bytes_per_pt': facts.get('ir.bytes_per_pt', 0),
        'codegen.generate_kernel_s': per_build(
            t.self_total('codegen.generate_kernel', build_windows)),
        'codegen.jit.compile_s': per_build(
            t.total('codegen.jit.compile', build_windows)),
        'codegen.jit.compile_n': per_build(
            len(t.select('codegen.jit.compile', build_windows))),
        'codegen.c_source_bytes': per_build(
            sum(t.values('codegen.generate_kernel', build_windows))),
        'codegen.step_s': per_shot(steps_s),
        'codegen.step_gflops': (facts.get('flops', 0) / steps_s / 1e9
                                if steps_s else 0.0),
        'dsl.data.subnormal_frac': facts.get('dsl.data.subnormal_frac', 0),
        'analysis.certificate_s': per_build(
            t.total('analysis.certificate', build_windows)),
        'buildcache.lookup_s': per_build(
            t.total('buildcache.lookup', build_windows)),
        'buildcache.hit_n.memory': per_build(lookups.count('memory')),
        'buildcache.hit_n.disk': per_build(lookups.count('disk')),
        'buildcache.miss_n': per_build(lookups.count('miss')),
        'buildcache.store_s': per_build(
            t.total('buildcache.store', build_windows)),
        'buildcache.store_bytes': per_build(
            sum(t.values('buildcache.store', build_windows))),
        'mpi.halo.exchange_s': per_shot(
            t.total('mpi.halo.exchange', shot_windows)),
        'mpi.halo.wait_s': per_shot(
            t.total_under('mpi.sim.collect', 'mpi.halo.exchange',
                          shot_windows)),
        'mpi.halo.msgs_per_step': per_step(facts.get('halo.msgs', 0)),
        'mpi.halo.bytes_per_step': per_step(facts.get('halo.bytes', 0)),
        'mpi.sim.allreduce_per_step': per_step(
            len(t.select('mpi.sim.allreduce', shot_windows))),
        'mpi.sim.allreduce_s': per_shot(
            t.total('mpi.sim.allreduce', shot_windows)),
        'mpi.sim.collect_blocked_s': per_shot(
            t.total('mpi.sim.collect', shot_windows)),
        'dsl.operator.apply_s': per_shot(
            t.total('dsl.operator.apply', shot_windows)),
        'dsl.operator.driver_self_s': per_shot(
            t.self_total('dsl.operator.apply', shot_windows)),
        'resilience.checkpoint.save_s': per_shot(
            t.total('resilience.checkpoint.save', shot_windows)),
        'resilience.checkpoint.save_n': per_shot(
            facts.get('checkpoints', 0)),
        'resilience.checkpoint.save_bytes': per_shot(
            facts.get('checkpoint_bytes', 0)),
        'resilience.checkpoint.restore_s': per_shot(
            t.total('resilience.checkpoint.restore', shot_windows)),
        'resilience.recovery_s': per_shot(
            t.total('resilience.recovery', shot_windows)
            - t.total('resilience.elastic.rejoin', shot_windows)),
        'resilience.elastic.repartition_bytes': per_shot(
            facts.get('repartition_bytes', 0)),
        'service.pool.checkout_s': per_shot(
            t.total('service.pool.checkout', shot_windows)),
        'service.pool.checkin_s': per_shot(
            t.total('service.pool.checkin', shot_windows)),
        'service.pool.reuse_ratio': (
            facts['pool.reuses'] / facts['pool.checkouts']
            if facts.get('pool.checkouts') else 0.0),
        'service.store.put_s': per_shot(
            t.total('service.store.put', shot_windows)),
        'service.store.put_bytes': per_shot(
            sum(t.values('service.store.put', shot_windows))),
        'service.queue_wait_s.p50': (statistics.median(queue_waits)
                                     if queue_waits else 0.0),
        'trace.overhead_frac': (statistics.median(traced)
                                / statistics.median(plain) - 1.0
                                if plain and traced else 0.0),
    }
