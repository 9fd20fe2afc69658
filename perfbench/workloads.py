"""The three benchmark workloads, driven through ``repro``'s public API.

Each workload builds its problem, runs warm-up shots, then runs a
fixed number of timed shots in a closed loop (the next shot starts when
the previous one finished).  Every shot starts from reset state and
draws one of a few seeded input variants; its outputs are reduced to a
digest that is compared, after the run, with the digest of a serial
NumPy oracle of the same variant.

The variants only scale the source by a power of two, so every variant
costs the same to run: the seed changes the inputs and their order
without making the shot times bimodal.
"""

import hashlib
import os
import random
import shutil
import tempfile

import numpy as np

from tracing import perf

#: source amplitude scale of each input variant (exact in binary)
AMPLITUDES = (1.0, 0.5)


def digest(*arrays):
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        if a is not None:
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def subnormal_frac(a):
    """Share of subnormal values in ``a``.  The solver workloads report
    it for a final field of input variant 0, so that it repeats
    exactly whatever the seed."""
    a = np.asarray(a)
    tiny = np.finfo(a.dtype).tiny
    mag = np.abs(a)
    return float(np.count_nonzero((mag < tiny) & (mag > 0)) / a.size)


def variant_order(seed):
    """Endless seeded sequence of variant indices, in shuffled blocks
    that each hold every variant once (so any run stays balanced)."""
    rng = random.Random(seed)
    while True:
        block = list(range(len(AMPLITUDES)))
        rng.shuffle(block)
        yield from block


def function_bytes(op):
    """Bytes of every dense field of ``op`` on this rank (halo incl.)."""
    return sum(f.data.with_halo.nbytes for f in op.functions)


class Context:
    """Run-time control shared by the workloads and the measure child.

    The timed shots follow the set-up; ``seconds`` sets how many there
    are (:meth:`count`).  In a traced run the tracer records the set-up,
    is removed for the first half of the timed shots (the untraced
    reference) and put back for the second.
    """

    def __init__(self, seed, seconds, workdir, tracer=None):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = tracer
        self.ready_at = None
        self.shots = []        # (phase, seconds, points x timesteps)
        self.windows = {'plain': [], 'traced': []}
        self.checks = []       # (variant key, digest)
        self.batches = []      # (phase, shots, wall, points x timesteps)
        self.facts = {}
        self.working_set = 0

    def begin_timing(self):
        self.ready_at = perf()
        if self.tracer is not None:
            self.tracer.uninstall()

    def count(self, unit_seconds):
        """Timed units (shots or cycles) of a run: round(seconds /
        unit_seconds), a number rather than a time limit.  Resident
        memory grows with every unit, so a count that varied with host
        speed would show as a varying peak RSS."""
        return round(self.seconds / unit_seconds)

    def phases(self, n):
        """The phase of each of ``n`` timed units, in order."""
        for i in range(n):
            yield self.enter(i >= n // 2)

    def enter(self, second_half):
        """The phase of a shot in the given half of the timed part."""
        if self.tracer is not None and second_half:
            self.tracer.install()
            return 'traced'
        return 'plain'

    def record(self, phase, tic, toc, work, key, dig):
        self.shots.append((phase, toc - tic, work))
        self.windows[phase].append((tic, toc))
        self.checks.append((key, dig))

    def record_error(self, key, exc):
        """A shot that raised: attempted and failed, but not timed."""
        self.checks.append((key, 'raised %s: %s' % (type(exc).__name__,
                                                    exc)))

    def add(self, name, value):
        self.facts[name] = self.facts.get(name, 0) + value


def _halo_counters(op):
    out = {'nmessages': 0, 'nbytes_sent': 0}
    for ex in op.kernel.exchangers.values():
        c = ex.counters()
        out['nmessages'] += c['nmessages']
        out['nbytes_sent'] += c['nbytes_sent']
    return out


def _use_compiled_backend():
    from repro import configuration
    configuration['backend'] = 'c'


def _numpy_oracle_config():
    from repro import configuration
    configuration['backend'] = 'numpy'
    configuration['faults'] = False


class Acoustic2DR2:
    name = 'acoustic2d-r2'
    threads = 2
    tail_q = 85
    shot_seconds = 0.3
    shape = (512, 512)
    steps = 200
    warmup = 2

    def _setup(self, comm=None, mpi='diagonal'):
        from repro.models import acoustic_setup
        solver, _ = acoustic_setup(shape=self.shape, tn=1000.0,
                                   space_order=8, nbl=10, nrec=64,
                                   comm=comm, mpi=mpi)
        return solver

    @staticmethod
    def _reset(solver, base, variant):
        solver.u.data.with_halo[...] = 0
        solver.rec.data[...] = 0
        solver.src.data[...] = base * AMPLITUDES[variant]

    def run(self, ctx):
        from repro.mpi import run_parallel
        _use_compiled_backend()
        order = variant_order(ctx.seed)

        def rank(comm):
            solver = self._setup(comm)
            op = solver.op
            dt = solver.model.critical_dt
            base = np.array(solver.src.data, copy=True)
            points = int(np.prod(solver.model.grid.shape))
            halo = {'nmessages': 0, 'nbytes_sent': 0}

            def shot(variant):
                self._reset(solver, base, variant)
                comm.barrier()
                tic = perf()
                op.apply(time_m=0, time_M=self.steps - 1, dt=dt)
                comm.barrier()
                toc = perf()
                return tic, toc, solver.u.data.gather(), solver.rec.data

            for _ in range(self.warmup):
                shot(0)
            if comm.rank == 0:
                ctx.working_set = comm.size * function_bytes(op)
                ctx.facts['ir.flops_per_pt'] = op.flops_per_point
                ctx.facts['ir.bytes_per_pt'] = op.traffic_per_point
                ctx.begin_timing()
                phases = ctx.phases(ctx.count(self.shot_seconds))
            while True:
                cmd = comm.bcast((next(phases, None), next(order))
                                 if comm.rank == 0 else None)
                phase, variant = cmd
                if phase is None:
                    break
                before = _halo_counters(op)
                tic, toc, field, rec = shot(variant)
                if phase == 'traced':
                    after = _halo_counters(op)
                    for k in halo:
                        halo[k] += after[k] - before[k]
                if comm.rank == 0:
                    ctx.record(phase, tic, toc, points * self.steps,
                               variant, digest(field, rec))
                    if phase == 'traced' and variant == 0:
                        ctx.facts['dsl.data.subnormal_frac'] = \
                            subnormal_frac(field)
                    if phase == 'traced':
                        ctx.add('flops', op.flops_per_point * points
                                * self.steps)
                        ctx.add('timesteps', self.steps)
            return halo

        for halo in run_parallel(rank, self.threads):
            ctx.add('halo.msgs', halo['nmessages'])
            ctx.add('halo.bytes', halo['nbytes_sent'])

    def oracle(self, ctx):
        _numpy_oracle_config()
        solver = self._setup(mpi=None)
        base = np.array(solver.src.data, copy=True)
        out = {}
        for v in range(len(AMPLITUDES)):
            self._reset(solver, base, v)
            solver.op.apply(time_m=0, time_M=self.steps - 1,
                            dt=solver.model.critical_dt)
            out[v] = digest(solver.u.data.gather(), solver.rec.data)
        return out


#: survey-mixed operator structures: one small 2D shot per propagator
STRUCTURES = (
    dict(kernel='acoustic', shape=(41, 41), tn=40.0, space_order=8, nrec=6),
    dict(kernel='elastic', shape=(31, 31), tn=30.0, space_order=8, nrec=4),
    dict(kernel='tti', shape=(31, 31), tn=30.0, space_order=8, nrec=4),
    dict(kernel='viscoelastic', shape=(31, 31), tn=30.0, space_order=8,
         nrec=4),
)


class SurveyMixed:
    name = 'survey-mixed'
    threads = 2
    tail_q = 90
    per_structure = 32
    #: a cycle loads new shared objects, which stay mapped
    cycle_seconds = 6

    def _batch(self, rng):
        """Seeded rounds that each hold every structure once, so every
        batch starts with one shot of each structure, whatever the seed."""
        from repro.service import ShotSpec
        specs = []
        for _ in range(self.per_structure):
            order = list(STRUCTURES)
            rng.shuffle(order)
            specs.extend(ShotSpec(**spec) for spec in order)
        return specs

    def _scheduler(self, ctx, cycle, batch):
        from repro.buildcache import BuildCache
        from repro.service import ArrayStore, SurveyScheduler
        cache = BuildCache('on', os.path.join(ctx.workdir,
                                              'cache%s' % cycle))
        store = ArrayStore(os.path.join(ctx.workdir,
                                        'store%s%s' % (cycle, batch)))
        return SurveyScheduler(workers=self.threads, store=store,
                               cache=cache)

    @staticmethod
    def _forget_compiled_objects(ctx):
        """Remove the compiler's scratch objects, so that batch A of
        every cycle really runs cc, as in a fresh service process."""
        tmp = tempfile.gettempdir()
        if not os.path.abspath(tmp).startswith(os.path.abspath(ctx.workdir)):
            raise RuntimeError('TMPDIR must lie in the benchmark work '
                               'directory, not %s' % tmp)
        for entry in os.listdir(tmp):
            if entry.startswith('repro-jit-'):
                shutil.rmtree(os.path.join(tmp, entry), ignore_errors=True)

    def _drain(self, ctx, sched, specs, phase):
        kernels = {}
        for spec in specs:
            kernels[sched.submit(spec)] = spec.kernel
        tic = perf()
        report = sched.run()
        toc = perf()
        if phase is None:   # warm-up: results are not timed or checked
            shutil.rmtree(sched.store.directory, ignore_errors=True)
            return
        work = 0
        waits = []
        for rec in sched.jobs:
            key = kernels[rec.job_id]
            if rec.state != 'done':
                ctx.checks.append((key, 'failed: %s' % rec.error))
                continue
            arrays = [sched.store.get('%s/%s' % (rec.job_id, name))
                      for name in ('wavefield', 'rec')]
            dig = digest(*arrays)
            shot_work = rec.perf['points'] * rec.perf['timesteps']
            work += shot_work
            ctx.shots.append((phase, rec.latency_seconds, shot_work))
            ctx.checks.append((key, dig))
            waits.append(rec.started_at - rec.submitted_at)
            if phase == 'traced':
                ctx.add('work.%s' % key, shot_work)
                ctx.add('timesteps', rec.perf['timesteps'])
                ctx.facts.setdefault('subnormal', {})[key] = \
                    subnormal_frac(arrays[0])
        ctx.windows[phase].append((tic, toc))
        ctx.batches.append((phase, len(specs), toc - tic, work))
        if phase == 'traced':
            ctx.facts.setdefault('queue_waits', []).extend(waits)
            ctx.add('pool.checkouts', report.pool_stats['checkouts'])
            ctx.add('pool.reuses', report.pool_stats['reuses'])
        shutil.rmtree(sched.store.directory, ignore_errors=True)

    def run(self, ctx):
        from repro.service import ShotSpec
        _use_compiled_backend()
        rng = random.Random(ctx.seed)
        warmup = [ShotSpec(**spec) for spec in STRUCTURES]
        self._drain(ctx, self._scheduler(ctx, 'warm', 'A'), warmup, None)
        self._drain(ctx, self._scheduler(ctx, 'warm', 'B'), warmup, None)
        shutil.rmtree(os.path.join(ctx.workdir, 'cachewarm'),
                      ignore_errors=True)
        self._forget_compiled_objects(ctx)
        sched = self._scheduler(ctx, 0, 'A')
        ctx.begin_timing()
        ncycles = ctx.count(self.cycle_seconds)
        if ctx.seconds:
            ncycles = max(ncycles, 2)
        for cycle, phase in enumerate(ctx.phases(ncycles)):
            if cycle:
                self._forget_compiled_objects(ctx)
                sched = self._scheduler(ctx, cycle, 'A')
            self._drain(ctx, sched, self._batch(rng), phase)
            self._drain(ctx, self._scheduler(ctx, cycle, 'B'),
                        self._batch(rng), phase)
            shutil.rmtree(os.path.join(ctx.workdir, 'cache%d' % cycle),
                          ignore_errors=True)
            if phase == 'traced':
                ctx.add('cycles', 1)
        if ncycles:
            ctx.working_set = self._resident_bytes(sched.pool)

    @staticmethod
    def _resident_bytes(pool):
        """Field bytes of one pooled instance of every structure."""
        from repro.service import ShotSpec
        total = 0
        for spec in STRUCTURES:
            inst = pool.checkout(ShotSpec(**spec))
            total += function_bytes(inst.op)
            pool.checkin(inst)
        return total

    def oracle(self, ctx):
        """``run_shot_solo`` of each structure under NumPy; also fills
        in the per-structure counts the traced batches could not see."""
        from repro.service import ShotSpec, run_shot_solo
        _numpy_oracle_config()
        out = {}
        flops = traffic = 0
        for spec in STRUCTURES:
            res = run_shot_solo(ShotSpec(**spec))
            key = spec['kernel']
            out[key] = digest(res['wavefield'], res['rec'])
            summary = res['summary']
            flops += summary.flops_per_point
            traffic += summary.traffic_per_point
            ctx.add('flops', summary.flops_per_point
                    * ctx.facts.get('work.%s' % key, 0))
        ctx.facts['ir.flops_per_pt'] = flops / len(STRUCTURES)
        ctx.facts['ir.bytes_per_pt'] = traffic / len(STRUCTURES)
        fracs = ctx.facts.get('subnormal', {})
        if fracs:
            ctx.facts['dsl.data.subnormal_frac'] = \
                sum(fracs.values()) / len(fracs)
        return out


class RecoverGrow:
    name = 'recover-grow'
    threads = 2
    tail_q = 80
    shot_seconds = 0.5
    shape = (256, 256)
    steps = 200
    checkpoint_every = 40
    kill_step = 100
    warmup = 2

    def _setup(self, comm=None, mpi='full'):
        from repro.models import acoustic_setup
        solver, _ = acoustic_setup(shape=self.shape, tn=1000.0,
                                   space_order=8, nbl=10, nrec=32,
                                   comm=comm, mpi=mpi)
        return solver

    def _solve(self, ctx, variant, tag):
        """One fault-injected solve on a fresh 2-rank world; returns each
        rank's (tic, toc, digest, recovery stats, halo counters, facts)."""
        from repro import configuration
        from repro.mpi import run_parallel
        from repro.mpi.faults import FaultPlan
        ckdir = os.path.join(ctx.workdir, 'ckpt-%s' % tag)

        def rank(comm):
            solver = self._setup(comm)
            op = solver.op
            solver.src.data[...] *= AMPLITUDES[variant]
            comm.barrier()
            tic = perf()
            op.apply(time_m=0, time_M=self.steps - 1,
                     dt=solver.model.critical_dt, recovery='grow',
                     checkpoint_every=self.checkpoint_every,
                     checkpoint_dir=ckdir)
            comm = op.grid.distributor.comm
            comm.barrier()
            toc = perf()
            field = solver.u.data.gather()
            return (tic, toc, digest(field, solver.rec.data),
                    dict(comm.world.recovery_stats), _halo_counters(op),
                    (op.flops_per_point, op.traffic_per_point,
                     int(np.prod(solver.model.grid.shape)),
                     function_bytes(op) * comm.size, subnormal_frac(field)))

        configuration['faults'] = FaultPlan(seed=ctx.seed,
                                            kills=[(1, self.kill_step)])
        try:
            results = run_parallel(rank, self.threads)
        finally:
            configuration['faults'] = False
            shutil.rmtree(ckdir, ignore_errors=True)
        return results

    def run(self, ctx):
        _use_compiled_backend()
        order = variant_order(ctx.seed)
        for i in range(self.warmup):
            self._solve(ctx, 0, 'warmup%d' % i)
        ctx.begin_timing()
        phases = ctx.phases(ctx.count(self.shot_seconds))
        for n, phase in enumerate(phases, 1):
            variant = next(order)
            try:
                results = self._solve(ctx, variant, n)
            except Exception as e:  # noqa: BLE001 - counted as failed
                ctx.record_error(variant, e)
                continue
            tic, toc, dig, stats, _, solver = results[0]
            fpp, bpp, points, ctx.working_set, subnormal = solver
            ctx.record(phase, tic, toc, points * self.steps, variant, dig)
            if phase != 'traced':
                continue
            ctx.facts['ir.flops_per_pt'] = fpp
            ctx.facts['ir.bytes_per_pt'] = bpp
            if variant == 0:
                ctx.facts['dsl.data.subnormal_frac'] = subnormal
            ctx.add('flops', fpp * points * self.steps)
            ctx.add('timesteps', self.steps)
            ctx.add('checkpoints', stats['checkpoints_written'])
            ctx.add('checkpoint_bytes', stats['checkpoint_bytes'])
            ctx.add('repartition_bytes', stats['repartition_bytes'])
            for r in results:
                ctx.add('halo.msgs', r[4]['nmessages'])
                ctx.add('halo.bytes', r[4]['nbytes_sent'])

    def oracle(self, ctx):
        """A fault-free serial NumPy run of the same problem."""
        _numpy_oracle_config()
        solver = self._setup(mpi=None)
        base = np.array(solver.src.data, copy=True)
        out = {}
        for v in range(len(AMPLITUDES)):
            Acoustic2DR2._reset(solver, base, v)
            solver.op.apply(time_m=0, time_M=self.steps - 1,
                            dt=solver.model.critical_dt)
            out[v] = digest(solver.u.data.gather(), solver.rec.data)
        return out


WORKLOADS = {w.name: w for w in (Acoustic2DR2(), SurveyMixed(), RecoverGrow())}
