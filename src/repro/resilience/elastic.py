"""Repartitioning a live operator: the one path for shrink, grow,
rejoin and rebalance.

:func:`repartition` moves an operator onto a new decomposition in a
fixed order: swap the distributor, reallocate the distributed data,
drop the sparse routing, discard the schedule when the set of split
dimensions changes, rebuild through ``Operator._build`` (the build
cache's rehydrate-or-cold-build step, the same one ``__init__`` runs),
move the DOMAIN blocks rank-to-rank in one ``alltoall`` routed by
:func:`~repro.mpi.routing.block_intersections`, and re-run the static
verifier.  Only the source of the blocks differs by direction:

``perform_grow``
    extend a running world onto every rank announced on the lineage —
    healed kill victims under ``recovery='grow'``, or reserve ranks
    parked by an autoscaling scheduler.  The survivors coordinate a
    grant (the successor :class:`~repro.mpi.sim.SimWorld`, restored
    topology, resume step) and ship their live blocks.

``rejoin``
    the joiner's half of a grow: park on the lineage until a grant
    covers this original rank, then enter :func:`repartition`
    receive-only (blocks plus the replicated sparse arrays).

``perform_rebalance``
    re-split the *same* world with per-rank weights (explicit, or
    measured from the profiler's per-rank compute time) through the
    weighted :class:`~repro.mpi.decomposition.Decomposition`.

``perform_shrink`` (:mod:`.recovery`)
    drop a dead rank: the survivors ship the checkpoint blocks that
    :func:`~repro.resilience.recovery.repartition_restore` reads.

Live transitions land at a *top-of-step* boundary: the resilience tick
raises :class:`RepartitionRequest` before any communication of the
step, so the moved state is globally consistent and — because results
are invariant to the decomposition — the completed run stays
bit-identical to a never-repartitioned one.  No repartitioned schedule
runs a step before passing the verifier.
"""

from __future__ import annotations

import threading
import time as _time

import numpy as np

from ..mpi.cart import shrink_dims
from ..mpi.data import Data
from ..mpi.distributor import Distributor
from ..mpi.routing import block_intersections
from ..mpi.sim import RemoteRankError, SimComm, SimWorld, new_lineage

__all__ = ['RepartitionRequest', 'announce_rejoin', 'awaiting_origs',
           'measured_rank_weights', 'new_lineage', 'perform_grow',
           'perform_rebalance', 'rank_weights_to_dim_weights',
           'rejoin', 'repartition', 'repartition_operator',
           'run_elastic']


class RepartitionRequest(RemoteRankError):
    """Raised collectively by the resilience tick to leave the kernel at
    a step boundary for a repartition.

    The decision is a pure function of SPMD-uniform controller state,
    so *every* rank raises it at the same top-of-step point — nothing
    is in flight and no peer needs waking.  Subclassing
    :class:`~repro.mpi.sim.RemoteRankError` keeps
    ``Operator._abort_run`` from failing the world on the way out.
    """

    def __init__(self, kind, step):
        self.kind = kind            # 'grow' | 'balance'
        self.step = int(step)
        super().__init__('repartition(%s) requested at step %d'
                         % (kind, step))


# -- lineage bookkeeping ------------------------------------------------------

def announce_rejoin(lineage, orig):
    """Register original rank ``orig`` as ready to (re)join a grow."""
    with lineage['cond']:
        lineage['awaiting'][int(orig)] = True
        lineage['cond'].notify_all()


def awaiting_origs(comm):
    """Coordinated snapshot of the announced joiners (collective).

    Runs through :meth:`SimWorld.coordinate` so every rank sees the
    *same* set — a racy per-rank read could make ranks disagree on
    whether a grow is due, which would deadlock the step.
    """
    world = comm.world
    lineage = world.lineage

    def snap():
        with lineage['cond']:
            return tuple(sorted(lineage['awaiting']))

    return world.coordinate(comm.rank, snap)


# -- weights ------------------------------------------------------------------

def rank_weights_to_dim_weights(weights, topology):
    """Per-rank weights -> per-dimension :class:`Decomposition` weights.

    Dimension ``d``, part ``i`` gets the mean weight of the ranks whose
    Cartesian coordinate along ``d`` is ``i`` (C-order rank layout,
    matching :meth:`CartComm.Get_coords`).  A 1-D weighted split per
    dimension cannot express arbitrary per-rank imbalance exactly, but
    it preserves the tensor-product decomposition the generated
    schedules assume.
    """
    weights = [float(w) for w in weights]
    nranks = int(np.prod(topology))
    if len(weights) != nranks:
        raise ValueError("need one weight per rank (%d), got %d"
                         % (nranks, len(weights)))
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    if sum(weights) <= 0:
        raise ValueError("weights must not all be zero")
    coords = [np.unravel_index(r, tuple(topology)) for r in range(nranks)]
    out = []
    for d, parts in enumerate(topology):
        per = []
        for i in range(parts):
            sel = [w for r, w in enumerate(weights)
                   if int(coords[r][d]) == i]
            per.append(sum(sel) / len(sel))
        out.append(tuple(per))
    return tuple(out)


def measured_rank_weights(op, comm):
    """Per-rank capacity weights from the profiler (collective).

    Capacity is the inverse of the rank's measured compute seconds
    (sections of kind ``'compute'``) — a rank that took twice as long
    should own half the points.  Falls back to equal weights when no
    timings are available (profiling off, or nothing measured yet).
    """
    prof = op.profiler
    local = 0.0
    if prof.enabled and prof.timer is not None:
        local = sum(prof.timer.total(name)
                    for name, meta in prof.sections.items()
                    if meta.kind == 'compute')
    times = comm.allgather(float(local))
    if min(times) <= 0.0:
        return (1.0,) * comm.size
    return tuple(1.0 / t for t in times)


# -- the one repartition path ------------------------------------------------

def _split(dist):
    return tuple(p > 1 for p in dist.topology)


def _live_blocks(op, sparse=False):
    """This rank's DOMAIN blocks under the *current* decomposition, in
    the ``blocks`` format of :func:`repartition`.  The views keep the
    old arrays alive after reallocation, so nothing is copied.  With
    ``sparse`` the replicated sparse arrays ride along (a grow, where
    joiners carry stale sparse state)."""
    ranges = tuple(tuple(int(v) for v in r)
                   for r in op.grid.distributor.local_ranges())
    blocks = [(ranges, {f.name: f.data.local for f in op.functions})]
    if sparse:
        blocks.append((None, {s.name: s.data
                              for s in op.sparse_functions}))
    return blocks


def repartition(op, comm, topology=None, weights=None, blocks=()):
    """Move ``op`` onto a new decomposition over ``comm`` (collective
    over ``comm``).  Returns the payload bytes this rank received.

    ``blocks`` is what this rank ships: ``(ranges, arrays)`` pairs,
    where ``arrays`` maps function names to DOMAIN blocks covering the
    per-grid-dimension global ``ranges`` of an old decomposition — or,
    with ``ranges=None``, sparse-function names to replicated arrays
    sent whole to every rank.  Live transitions pass their own blocks
    (:func:`_live_blocks`), shrink the checkpoint blocks it reads.

    Freshly allocated arrays are zeroed: DOMAIN regions are filled by
    the move, halo cells outside the global domain are zero by
    construction, and interior halos are rebuilt by each timestep's
    exchange before any read.  The verifier then re-checks the
    schedule with the same passes the ``opt='verify'`` gate runs;
    :class:`~repro.analysis.AnalysisError` propagates and fails the
    run loudly.
    """
    grid = op.grid
    old_split = _split(grid.distributor)
    dist = grid.distributor = Distributor(grid.shape, comm=comm,
                                          topology=topology,
                                          weights=weights)
    for f in op.functions:
        f._data = Data(f._dim_specs(), dist, dtype=f.dtype)
    for s in op.sparse_functions:
        s._routing = None   # point-ownership plans depend on the topology
    if _split(dist) != old_split:
        # the exchange steps are lowered per split dimension: a (2,1)
        # schedule has no y-exchange for (2,2), a (2,2) one exchanges a
        # dimension (3,1) does not split
        op.schedule = None
    op._build()

    funcs = {f.name: f for f in op.functions}
    sparse = {s.name: s for s in op.sparse_functions}
    outgoing = [[] for _ in range(dist.comm.size)]
    for ranges, arrays in blocks:
        if ranges is None:
            for name, arr in arrays.items():
                arr = np.ascontiguousarray(arr)
                for box in outgoing:
                    box.append((name, None, arr))
            continue
        for dest, isect in block_intersections(ranges, dist):
            clip = [slice(a - lo, b - lo)
                    for (a, b), (lo, _) in zip(isect, ranges)]
            for name, arr in arrays.items():
                key = tuple(slice(None) if spec.dist_index is None
                            else clip[spec.dist_index]
                            for spec in funcs[name].data.specs)
                outgoing[dest].append(
                    (name, isect, np.ascontiguousarray(arr[key])))
    nbytes = 0
    for received in dist.comm.alltoall(outgoing):
        for name, isect, arr in received:
            if isect is None:
                sparse[name].data[...] = arr
                nbytes += arr.nbytes
            else:
                nbytes += funcs[name].data.scatter_block(isect, arr)

    from ..analysis import verify_schedule
    op.analysis = verify_schedule(op.schedule, kernel=op.kernel,
                                  profiler=op.profiler)
    return nbytes


def _count_repartition(op, nbytes, grown=0):
    """Fold one live repartition into the world's ``recovery_stats``
    (collective)."""
    comm = op.grid.distributor.comm
    total = comm.allreduce(int(nbytes))
    if comm.rank == 0:
        stats = comm.world.recovery_stats
        stats['repartitions'] += 1
        stats['repartition_bytes'] += int(total)
        stats['grown_ranks'] += int(grown)


# -- grow ---------------------------------------------------------------------

def _enter_grant(op, grant, orig, blocks):
    """Repartition onto a grow grant as original rank ``orig``."""
    world = grant['world']
    base = SimComm(world, world.orig_of.index(orig))
    nbytes = repartition(op, base, grant['topology'], grant['weights'],
                         blocks)
    _count_repartition(op, nbytes, grown=len(grant['joiners']))
    return nbytes


def perform_grow(op, comm, step, weights=None):
    """Grow the live operator onto every announced joiner (collective
    over the *current* world's ranks; the joiners meet us through the
    lineage and participate in the block alltoall on the new comm).

    Returns ``(new_comm, nbytes_received_locally)``; as a side effect
    the operator is repartitioned onto the extended topology and the
    run can resume at ``step``.
    """
    old_world = comm.world
    lineage = old_world.lineage

    def plan():
        with lineage['cond']:
            healed = tuple(sorted(lineage['awaiting']))
            lineage['awaiting'].clear()
        old_world.reset()
        survivors = tuple(old_world.orig_of)
        new_world = old_world.successor(
            tuple(sorted(set(survivors) | set(healed))))
        top0 = lineage['topology0']
        if top0 is not None and int(np.prod(top0)) == new_world.size:
            topology = tuple(top0)  # restore the pre-shrink process grid
        else:
            topology = shrink_dims(op.grid.distributor.topology,
                                   new_world.size)
        dim_weights = None
        if weights is not None:
            dim_weights = rank_weights_to_dim_weights(weights, topology)
        grant = {'world': new_world, 'step': int(step),
                 'topology': topology, 'weights': dim_weights,
                 'joiners': healed, 'sparse_sender': min(survivors),
                 'epoch': lineage['epoch'] + 1}
        with lineage['cond']:
            lineage['epoch'] = grant['epoch']
            lineage['grant'] = grant
            lineage['cond'].notify_all()
        return grant

    grant = old_world.coordinate(comm.rank, plan)
    if not grant['joiners']:
        raise RemoteRankError("grow requested with no announced joiners")
    orig = old_world.orig_of[comm.rank]
    nbytes = _enter_grant(op, grant, orig, _live_blocks(
        op, sparse=orig == grant['sparse_sender']))
    return op.grid.distributor.comm, nbytes


def rejoin(op, lineage, orig, timeout=120.0):
    """The joiner's half of a grow: park until granted, then repartition.

    Blocks until a grant covers original rank ``orig`` (announce first
    with :func:`announce_rejoin`), then enters :func:`repartition` on
    the granted world receive-only.  Returns ``(new_comm, resume_step,
    nbytes_received)``.
    """
    cond = lineage['cond']
    deadline = _time.monotonic() + float(timeout)
    with cond:
        while True:
            grant = lineage['grant']
            if grant is not None and int(orig) in grant['joiners']:
                break
            remaining = deadline - _time.monotonic()
            if remaining <= 0:
                raise RemoteRankError(
                    "original rank %d waited %.0fs for a grow grant "
                    "that never came" % (orig, timeout))
            cond.wait(remaining)
    nbytes = _enter_grant(op, grant, int(orig), ())
    return op.grid.distributor.comm, int(grant['step']), nbytes


# -- rebalance ----------------------------------------------------------------

def perform_rebalance(op, comm, weights=None):
    """Re-split the same world proportionally to ``weights`` (one
    non-negative float per rank; ``None`` measures capacities from the
    profiler).  Collective.  Returns ``(comm, nbytes_received)``.
    """
    if weights is None:
        weights = measured_rank_weights(op, comm)
    weights = tuple(float(w) for w in weights)
    if len(weights) != comm.size:
        raise ValueError("need one weight per rank (%d), got %d"
                         % (comm.size, len(weights)))
    dist = op.grid.distributor
    dim_weights = rank_weights_to_dim_weights(weights, dist.topology)
    # the existing Cartesian comm is reused (Distributor passthrough):
    # same world, same neighbors, new split boundaries
    nbytes = repartition(op, dist.comm, weights=dim_weights,
                         blocks=_live_blocks(op))
    _count_repartition(op, nbytes)
    return op.grid.distributor.comm, nbytes


# -- the public Operator entry point ------------------------------------------

def repartition_operator(op, new_ranks=None, weights=None, timeout=120.0):
    """Backend of ``Operator.repartition`` — SPMD, between applies.

    ``new_ranks == comm.size`` (or ``None``) rebalances in place;
    ``new_ranks > comm.size`` grows onto reserve ranks that announced
    themselves on the world's lineage (:func:`announce_rejoin` +
    :func:`rejoin`).  Shrinking a healthy world is refused — losing
    ranks is the *recovery* path, not an adaptation policy.
    """
    comm = op.grid.distributor.comm
    size = comm.size
    new_ranks = size if new_ranks is None else int(new_ranks)
    if new_ranks < size:
        raise ValueError(
            "repartition cannot shrink a healthy world (%d -> %d "
            "ranks); rank loss is handled by the recovery policies"
            % (size, new_ranks))
    if new_ranks == size:
        new_comm, _ = perform_rebalance(op, comm, weights=weights)
        return new_comm
    world = comm.world
    lineage = world.lineage
    need = new_ranks - size
    deadline = _time.monotonic() + float(timeout)
    with lineage['cond']:
        while len(lineage['awaiting']) < need:
            remaining = deadline - _time.monotonic()
            if remaining <= 0:
                raise RemoteRankError(
                    "repartition to %d ranks: only %d of %d reserve "
                    "ranks announced within %.0fs"
                    % (new_ranks, len(lineage['awaiting']), need,
                       timeout))
            lineage['cond'].wait(remaining)
    new_comm, _ = perform_grow(op, comm, 0, weights=weights)
    return new_comm


# -- test/service harness -----------------------------------------------------

def run_elastic(active_fn, nactive, reserve_fn=None, nreserve=0,
                faults=None, disarmed=(), timeout=600.0):
    """SPMD launcher with parked reserve ranks sharing one lineage.

    ``active_fn(comm)`` runs on ranks ``0..nactive-1`` of a fresh
    world; ``reserve_fn(lineage, orig)`` runs on parked original ranks
    ``nactive..nactive+nreserve-1``.  Reserve origs are announced on
    the lineage *before* any active starts, so a reserve-grow policy's
    prepare-time snapshot sees them deterministically.  ``faults`` and
    ``disarmed`` mirror :class:`SimWorld` (``None`` reads the global
    configuration; pass a plan for a private one, plus the already
    fired kills to skip on a retry).  Returns ``(active_results,
    reserve_results)``; the first exception raised by any thread is
    re-raised here.
    """
    lineage = new_lineage()
    world = SimWorld(nactive, faults=faults, lineage=lineage)
    world.disarmed_kills = set(disarmed)
    for i in range(nreserve):
        announce_rejoin(lineage, nactive + i)
    results = [None] * (nactive + nreserve)
    errors = []
    lock = threading.Lock()

    def active(rank):
        comm = SimComm(world, rank)
        try:
            results[rank] = active_fn(comm)
        except BaseException as exc:  # noqa: BLE001 - propagate to caller
            with lock:
                errors.append((rank, exc))
            world.fail()

    def reserve(orig):
        try:
            results[orig] = reserve_fn(lineage, orig)
        except BaseException as exc:  # noqa: BLE001 - propagate to caller
            with lock:
                errors.append((orig, exc))
            world.fail()

    threads = [threading.Thread(target=active, args=(r,), daemon=True,
                                name='elastic-rank-%d' % r)
               for r in range(nactive)]
    threads += [threading.Thread(target=reserve, args=(nactive + i,),
                                 daemon=True,
                                 name='elastic-reserve-%d' % i)
                for i in range(nreserve)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
        if t.is_alive():
            world.fail()
            raise RemoteRankError("elastic thread did not terminate "
                                  "(deadlock?)")
    if errors:
        errors.sort(key=lambda e: e[0])
        primary = [e for e in errors
                   if not isinstance(e[1], RemoteRankError)] or errors
        raise primary[0][1]
    return results[:nactive], results[nactive:]
