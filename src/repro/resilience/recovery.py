"""Recovery drivers: rebuild a failed run from its checkpoints.

Two policies are implemented on top of :meth:`SimWorld.coordinate` (an
out-of-band rendezvous that keeps working after the transport was
failed):

``restart``
    All original ranks survive the exception (the injected kill raises
    *through* the victim's ``apply``, which catches it like its peers).
    The coordinator resets the world — mailboxes, fault limbo, commlog
    ledgers, sequence counters — disarms the fired kill, and picks the
    newest valid checkpoint; every rank then restores its own snapshot
    file in place and the run resumes at the checkpoint step.

``shrink``
    ULFM-style: the victim marks itself dead and leaves; the survivors
    move onto a successor ``SimWorld`` and a smaller Cartesian topology
    through :func:`~repro.resilience.elastic.repartition`, the path
    every grow, rejoin and rebalance takes too.  The blocks it ships
    come from the checkpoint (:func:`repartition_restore`), not from
    live memory: the dead rank's state only survives on disk.

Both resume at the checkpoint step; because the timestep loop is
deterministic and the restored state is exact, the completed run is
bit-identical to a fault-free one.
"""

from __future__ import annotations

from ..mpi.cart import shrink_dims
from ..mpi.sim import SimComm
from .elastic import repartition

__all__ = ['perform_restart', 'perform_shrink', 'repartition_restore']


def perform_restart(op, comm, checkpointer):
    """Same-world recovery: reset, disarm, restore, resume.

    Collective over all (surviving == all) ranks.  Returns
    ``(resume_step, bytes_restored_locally)``.
    """
    world = comm.world

    def plan():
        world.reset()
        world.disarmed_kills |= world.pending_kills
        world.pending_kills.clear()
        step, manifest = checkpointer.latest_valid()
        world.recovery_stats['recoveries'] += 1
        return step, manifest

    step, manifest = world.coordinate(comm.rank, plan)
    nbytes = checkpointer.restore(step, manifest, comm, world,
                                  op.functions,
                                  op.sparse_functions)
    return step, nbytes


def perform_shrink(op, comm, checkpointer):
    """Shrink-and-redistribute recovery on the surviving ranks.

    The victim never calls this — it marked itself dead and re-raised.
    Returns ``(new_comm, resume_step, bytes_restored_locally)``; as a
    side effect the operator is repartitioned onto the survivors.  A
    shrink counts as a recovery and a checkpoint restore, not as a
    repartition.
    """
    old_world = comm.world

    def plan():
        old_world.reset()
        alive = old_world.alive_ranks()
        step, manifest = checkpointer.latest_valid()
        lineage = old_world.lineage
        with lineage['cond']:
            if lineage['topology0'] is None:
                # remember the pre-shrink process grid so a later grow
                # back to full size restores it exactly
                lineage['topology0'] = tuple(op.grid.distributor.topology)
        new_world = old_world.successor(
            tuple(old_world.orig_of[r] for r in alive))
        new_world.recovery_stats['recoveries'] += 1
        new_world.recovery_stats['ranks_lost'] += \
            old_world.size - len(alive)
        return alive, new_world, step, manifest

    alive, new_world, step, manifest = old_world.coordinate(comm.rank, plan)
    base = SimComm(new_world, alive.index(comm.rank))
    blocks = repartition_restore(checkpointer, step, manifest, base)
    nbytes = repartition(op, base, shrink_dims(op.grid.distributor.topology,
                                               new_world.size),
                         blocks=blocks)
    new_comm = op.grid.distributor.comm
    total = new_comm.allreduce(nbytes)
    if new_comm.rank == 0:
        new_world.recovery_stats['checkpoints_restored'] += 1
        new_world.recovery_stats['restored_bytes'] += int(total)
    return new_comm, step, nbytes


def repartition_restore(checkpointer, step, manifest, comm):
    """The checkpoint blocks this rank ships to the survivors' new
    decomposition, in the ``blocks`` format of
    :func:`~repro.resilience.elastic.repartition`.

    Reader assignment (``comm`` is the survivors' world): a survivor
    re-reads its own old file; files of dead ranks are spread
    round-robin over the survivors — no gather to rank 0.  Each file
    read yields its DOMAIN blocks (halo stripped) under the old
    decomposition's global ranges, plus the sparse arrays it carries.
    """
    alive_orig = list(comm.world.orig_of)
    fmeta = manifest['functions']
    blocks = []
    spill = 0
    for entry in manifest['ranks']:
        r = entry['rank']
        if r in alive_orig:
            reader = alive_orig.index(r)
        else:
            reader = spill % comm.size
            spill += 1
        if reader != comm.rank:
            continue
        blobs, _, _ = checkpointer.read_rank_blob(step, manifest, r)
        ranges = tuple(tuple(int(v) for v in rg) for rg in entry['ranges'])
        domains = {}
        for name, meta in fmeta.items():
            stored = blobs['f:%s' % name]
            key = [slice(None)] * (stored.ndim - len(ranges))
            for (lo, hi), (left, _) in zip(ranges, meta['halo']):
                key.append(slice(left, left + (hi - lo)))
            domains[name] = stored[tuple(key)]
        blocks.append((ranges, domains))
        sparse = {name: blobs['s:%s' % name]
                  for name, smeta in manifest.get('sparse', {}).items()
                  if smeta['rank'] == r}
        if sparse:
            blocks.append((None, sparse))
    return blocks
