"""An in-process simulated MPI.

The paper's generated code runs under real MPI on a cluster; this module
provides a faithful single-process stand-in: each rank is a thread, and a
:class:`SimComm` exposes the mpi4py surface the generated communication
schedules need — blocking/non-blocking point-to-point with MPI matching
semantics (source/tag wildcards, per-pair non-overtaking), requests with
``wait``/``test``, and the usual collectives.

Semantics notes
---------------
* ``Send`` is *buffered* (copies the payload and returns immediately), the
  behaviour of eager-protocol sends for the small-to-medium messages halo
  exchanges produce.  This cannot deadlock, like ``MPI_Sendrecv``-based
  schedules on real implementations.
* Collectives are built over point-to-point using a reserved tag space and
  per-communicator sequence numbers, so they are safe to interleave with
  user messages as long as ranks call them SPMD-style (an MPI requirement).
* If any rank raises, every blocked peer is woken with
  :class:`RemoteRankError` instead of deadlocking.

Robustness layer
----------------
The transport integrates with two sibling modules:

* :mod:`.faults` — a deterministic :class:`FaultPlan` (drop / delay /
  duplicate / reorder / rank-kill) hooked into :meth:`SimWorld.deliver`
  and :meth:`SimWorld.collect`.  Dropped messages land in a per-rank
  "limbo" and are *redelivered* by the receiver's bounded retry path;
  duplicates are deduplicated on consumption; per-(pair, tag) sequence
  numbers keep matching non-overtaking under reordering, so any
  non-lethal plan is maskable and results stay bit-identical.
* :mod:`.commlog` — an always-on send/recv ledger plus a wait-for graph;
  blocked receives that time out a scheduling slice probe for wait
  cycles and raise a :class:`~repro.mpi.commlog.DeadlockError` naming
  the cycle instead of burning the full timeout.
"""

from __future__ import annotations

import copy as _copy
import itertools
import threading
import time as _time

import numpy as np

__all__ = ['ANY_SOURCE', 'ANY_TAG', 'PROC_NULL', 'RESERVED_TAG_SPACES',
           'SimWorld', 'SimComm', 'Request', 'CompletedRequest',
           'RecvRequest', 'RemoteRankError', 'new_lineage', 'parallel',
           'run_parallel', 'serial_comm']

ANY_SOURCE = -101
ANY_TAG = -102
PROC_NULL = -1

#: collectives use tags below this threshold; user tags must be >= 0
_COLLECTIVE_TAG_BASE = -10_000

#: out-of-band tag ranges ``(lo, hi, label)`` (half-open ``[lo, hi)``)
#: claimed by the transport itself.  Exchangers — and any other user of
#: plain point-to-point tags — must stay out of these bands:
#:
#: * all collectives (``allgather``/``allreduce``/``alltoall``/``bcast``/
#:   ``barrier``) draw descending tags ``<= _COLLECTIVE_TAG_BASE``; the
#:   resilience layer's shrink-and-redistribute repartitioning rides on
#:   ``alltoall`` and therefore lives in the same band;
#: * the wildcard/sentinel values (``ANY_SOURCE``, ``ANY_TAG``,
#:   ``PROC_NULL``) sit just below zero and must never double as real
#:   message tags;
#: * ``SimWorld.coordinate`` (the rendezvous used to spawn operators on a
#:   fresh set of ranks during recovery) is condition-variable based and
#:   uses no tags at all, but the band below zero is reserved wholesale
#:   so any future out-of-band traffic has a home.
#:
#: Effectively: user tag ranges must be non-negative.
#: :func:`repro.mpi.commlog.check_tag_spaces` enforces this statically.
RESERVED_TAG_SPACES = (
    (-(2**63), _COLLECTIVE_TAG_BASE + 1,
     'collectives & resilience repartitioning'),
    (_COLLECTIVE_TAG_BASE + 1, 0,
     'sentinels (ANY_SOURCE/ANY_TAG/PROC_NULL) & out-of-band control'),
)


class RemoteRankError(RuntimeError):
    """Raised in ranks blocked on communication when another rank failed."""


class _Message:
    __slots__ = ('comm_id', 'source', 'tag', 'payload', 'seq', 'section')

    def __init__(self, comm_id, source, tag, payload, seq=0, section=None):
        self.comm_id = comm_id
        self.source = source
        self.tag = tag
        self.payload = payload
        #: per-(comm, source, dest, tag) sequence number, assigned by the
        #: sender; preserves non-overtaking under fault-injected
        #: reordering and enables duplicate discarding
        self.seq = seq
        #: the exchanger/section label active at send time (commlog)
        self.section = section

    def key(self):
        return (self.comm_id, self.source, self.tag)


def _copy_payload(obj):
    if isinstance(obj, np.ndarray):
        return np.ascontiguousarray(obj).copy()
    return _copy.deepcopy(obj)


def _payload_nbytes(obj):
    return obj.nbytes if isinstance(obj, np.ndarray) else 0


def _matches(msg, comm_id, source, tag):
    if msg.comm_id != comm_id:
        return False
    if source != ANY_SOURCE and msg.source != source:
        return False
    if tag != ANY_TAG and msg.tag != tag:
        return False
    return True


def new_lineage():
    """A fresh elastic-lineage record (see :mod:`repro.resilience.elastic`).

    The lineage is the one object threaded *unchanged* through every
    world generation of a logical run (original -> shrunk -> grown), so
    ranks that left a generation — healed kill victims, parked reserve
    ranks — can rendezvous with whichever generation decides to grow:

    ``awaiting``
        original-rank ids announced as ready to (re)join;
    ``grant``
        the latest grow decision (new world, topology, resume step,
        joiner set) published by the coordinator, under ``cond``;
    ``epoch``
        monotonically increasing grant counter;
    ``topology0``
        the pre-shrink Cartesian topology, captured at the first shrink
        so a later grow back to full size restores the original process
        grid instead of re-deriving a possibly different one.
    """
    return {'cond': threading.Condition(), 'awaiting': {}, 'grant': None,
            'epoch': 0, 'topology0': None}


def _configured(key, fallback):
    """Read a configuration key, tolerating bootstrap/circular imports."""
    try:
        from .. import configuration
    except ImportError:  # pragma: no cover - package bootstrap only
        return fallback
    try:
        return configuration[key]
    except (KeyError, ValueError):  # pragma: no cover - unregistered key
        return fallback


class SimWorld:
    """The shared state of a simulated MPI job: one mailbox per rank.

    Parameters
    ----------
    size : int
        Number of ranks.
    faults : FaultPlan, False or None
        Fault-injection plan; ``None`` reads ``configuration['faults']``,
        ``False`` disables injection regardless of configuration.
    recv_timeout : float, optional
        Default per-receive timeout in seconds (the budget across all
        retries); defaults to ``configuration['comm_timeout']``.
    max_retries : int, optional
        Bound on drop-recovery redelivery attempts per blocked receive;
        defaults to ``configuration['comm_retries']``.
    check_interval : float
        Scheduling slice of a blocked receive: every slice the receiver
        retries dropped messages (with linear backoff) and probes the
        wait-for graph for deadlock cycles.
    orig_of : tuple of int, optional
        For worlds rebuilt by shrink recovery: ``orig_of[new_rank]`` is
        the rank the thread had in the *original* world.  Fault plans
        and checkpoint manifests are always expressed in original ranks,
        so :meth:`SimComm.fault_tick` translates through this table.
        Defaults to the identity.
    lineage : dict, optional
        The shared elastic-lineage record (:func:`new_lineage`) carried
        across shrink/grow generations of one logical run; a fresh one
        is created when omitted.
    """

    def __init__(self, size, faults=None, recv_timeout=None,
                 max_retries=None, check_interval=0.05, orig_of=None,
                 lineage=None):
        if size < 1:
            raise ValueError("world size must be >= 1")
        self.size = size
        self._boxes = [[] for _ in range(size)]
        #: fault-injected dropped messages awaiting redelivery, per rank
        self._dropped = [[] for _ in range(size)]
        self._conds = [threading.Condition() for _ in range(size)]
        self._failed = threading.Event()
        self._fail_reason = None
        if faults is None:
            faults = _configured('faults', False)
        self.faults = faults or None
        self.recv_timeout = float(recv_timeout
                                  if recv_timeout is not None
                                  else _configured('comm_timeout', 60.0))
        self.max_retries = int(max_retries
                               if max_retries is not None
                               else _configured('comm_retries', 3))
        self.check_interval = float(check_interval)
        from .commlog import CommLog
        self.commlog = CommLog(size, enabled=_configured('commlog', True))
        #: transport-level instrumentation: messages/bytes delivered per
        #: destination rank (monotonic; profiling reads, never resets)
        self.ndelivered = [0] * size
        self.nbytes_delivered = [0] * size
        #: robustness instrumentation, per destination rank (monotonic)
        self.ndrops_injected = [0] * size
        self.ndups_injected = [0] * size
        self.nredelivered = [0] * size
        self.nretries = [0] * size
        # -- resilience state (repro.resilience) ---------------------------
        #: new rank -> original rank (identity unless shrink-recovered)
        self.orig_of = tuple(orig_of) if orig_of is not None \
            else tuple(range(size))
        if len(self.orig_of) != size:
            raise ValueError("orig_of must have one entry per rank")
        #: ranks (in *this* world's numbering) confirmed dead
        self.dead = set()
        #: (orig_rank, timestep) kills that already fired — consulted by
        #: :meth:`SimComm.fault_tick` so a restarted/shrunk run does not
        #: re-execute the same kill
        self.disarmed_kills = set()
        #: (orig_rank, timestep) kills observed this run, not yet disarmed
        self.pending_kills = set()
        #: recovery instrumentation (flows into ``comm_health`` and the
        #: advanced profile JSON; carried over to shrunk worlds)
        self.recovery_stats = {'recoveries': 0, 'ranks_lost': 0,
                               'checkpoints_written': 0,
                               'checkpoints_restored': 0,
                               'checkpoint_bytes': 0, 'restored_bytes': 0,
                               'recovery_time': 0.0,
                               'repartitions': 0, 'grown_ranks': 0,
                               'repartition_bytes': 0}
        #: shared elastic-lineage record (rendezvous point for healed
        #: victims and reserve joiners); threaded *unchanged* through
        #: every shrink/grow so all generations of this logical run meet
        #: on the same condition variable (repro.resilience.elastic)
        self.lineage = lineage if lineage is not None else new_lineage()
        #: live communicators (for coordinated sequence resets)
        import weakref
        self._comms = weakref.WeakSet()
        # out-of-band rendezvous state (works on a *failed* world — the
        # regular transport refuses service once ``fail`` was called)
        self._rv_cond = threading.Condition()
        self._rv_epoch = 0
        self._rv_joined = set()
        self._rv_result = (True, None)

    # -- transport ---------------------------------------------------------

    def deliver(self, dest, message):
        if not 0 <= dest < self.size:
            raise ValueError("invalid destination rank %d" % dest)
        plan = self.faults
        actions = ()
        if plan is not None:
            actions = plan.decide(message.source, dest, message.tag,
                                  message.seq)
            if 'delay' in actions:
                _time.sleep(plan.delay)
        self.commlog.record_send(message.source, dest, message.tag,
                                 _payload_nbytes(message.payload),
                                 section=message.section)
        cond = self._conds[dest]
        with cond:
            if 'drop' in actions:
                self._dropped[dest].append(message)
                self.ndrops_injected[dest] += 1
                # no notify: the receiver recovers it on its retry path
                return
            box = self._boxes[dest]
            if 'reorder' in actions and box:
                box.insert(0, message)
            else:
                box.append(message)
            if 'duplicate' in actions:
                # enqueue the *same* object again; consumption discards
                # aliases by identity (transport-level dedup)
                box.append(message)
                self.ndups_injected[dest] += 1
            self.ndelivered[dest] += 1
            self.nbytes_delivered[dest] += _payload_nbytes(message.payload)
            cond.notify_all()

    def _redeliver_locked(self, dest):
        """Move dropped messages into the mailbox (``cond`` held)."""
        dropped = self._dropped[dest]
        if dropped:
            self._boxes[dest].extend(dropped)
            self.nredelivered[dest] += len(dropped)
            dropped.clear()

    def _find(self, dest, comm_id, source, tag):
        """Index of the next matching message, honoring non-overtaking.

        Among matching messages of the same (comm, source, tag) stream
        the lowest sequence number wins, so fault-injected reordering is
        invisible to MPI matching semantics.  If an *earlier* message of
        the winning stream is stranded in drop-limbo, it is redelivered
        on the spot (receiver-driven retransmission).
        """
        box = self._boxes[dest]
        best = None
        for i, msg in enumerate(box):
            if not _matches(msg, comm_id, source, tag):
                continue
            if best is None:
                best = i
            else:
                cand = box[best]
                if msg.key() == cand.key() and msg.seq < cand.seq:
                    best = i
        if best is not None and self._dropped[dest]:
            winner = box[best]
            for msg in self._dropped[dest]:
                if msg.key() == winner.key() and msg.seq < winner.seq:
                    # an earlier message of this stream was dropped:
                    # recover it before matching out of order
                    self.nretries[dest] += 1
                    self._redeliver_locked(dest)
                    return self._find(dest, comm_id, source, tag)
        return best

    def _pop_locked(self, dest, index):
        """Remove and return ``box[index]``, discarding duplicate
        aliases of the same message object (``cond`` held)."""
        box = self._boxes[dest]
        msg = box.pop(index)
        if msg in box:  # fault-injected duplicate: purge aliases
            box[:] = [m for m in box if m is not msg]
        return msg

    def probe(self, dest, comm_id, source, tag):
        """Non-destructively check for a matching message."""
        cond = self._conds[dest]
        with cond:
            return self._find(dest, comm_id, source, tag) is not None

    def probe_pending(self, dest, comm_id, source, tag):
        """Lock-free scan of mailbox *and* drop-limbo (deadlock probes).

        Reads list snapshots without taking ``dest``'s condition (the
        caller typically holds its *own* rank's condition; taking
        another rank's here could deadlock the runtime itself).  Safe
        under the GIL; at worst conservatively reports a message that is
        about to be consumed, which only suppresses a deadlock report.
        """
        for msg in list(self._boxes[dest]) + list(self._dropped[dest]):
            if _matches(msg, comm_id, source, tag):
                return True
        return False

    def collect(self, dest, comm_id, source, tag, block=True, timeout=None):
        """Remove and return the first matching message (or None).

        Blocking receives wait in ``check_interval`` slices: each
        expired slice first redelivers fault-dropped messages (bounded
        by ``max_retries``, with linearly growing backoff), then probes
        the wait-for graph and raises a
        :class:`~repro.mpi.commlog.DeadlockError` naming any live cycle;
        only after ``timeout`` seconds (default ``recv_timeout``) does
        it give up with a plain :class:`RemoteRankError`.
        """
        cond = self._conds[dest]
        log = self.commlog
        timeout = self.recv_timeout if timeout is None else timeout
        deadline = _time.monotonic() + timeout
        retries = 0
        registered = False
        try:
            with cond:
                while True:
                    if self._failed.is_set():
                        raise RemoteRankError(self._fail_reason
                                              or "a peer rank failed")
                    i = self._find(dest, comm_id, source, tag)
                    if i is not None:
                        if registered:
                            # clear *before* popping: the deadlock probe
                            # relies on this ordering for soundness
                            log.clear_wait(dest)
                            registered = False
                        msg = self._pop_locked(dest, i)
                        log.record_recv(msg.source, dest, msg.tag,
                                        _payload_nbytes(msg.payload))
                        return msg
                    if not block:
                        return None
                    if not registered:
                        log.set_wait(dest, comm_id, source, tag)
                        registered = True
                    remaining = deadline - _time.monotonic()
                    if remaining <= 0:
                        raise RemoteRankError(
                            "timed out waiting for message (source=%s, "
                            "tag=%s) on rank %d — likely communication "
                            "deadlock" % (source, tag, dest))
                    # linear backoff across retry attempts
                    slice_ = min(self.check_interval * (1 + retries),
                                 remaining)
                    if cond.wait(timeout=slice_):
                        continue  # traffic arrived; re-match
                    if self._dropped[dest] and retries < self.max_retries:
                        retries += 1
                        self.nretries[dest] += 1
                        self._redeliver_locked(dest)
                        continue
                    error = log.deadlock_probe(self, dest)
                    if error is not None:
                        self.fail(origin=dest, reason=str(error))
                        raise error
        finally:
            if registered:
                log.clear_wait(dest)

    def fail(self, origin=None, reason=None):
        """Mark the job failed and wake all blocked ranks."""
        if reason is not None and self._fail_reason is None:
            self._fail_reason = ("rank %s failed: %s" % (origin, reason)
                                 if origin is not None else str(reason))
        self._failed.set()
        for cond in self._conds:
            with cond:
                cond.notify_all()

    def reset(self):
        """Recover a failed world: clear the failure flag, all mailboxes,
        fault-injection drop-limbo, wait registrations, the commlog
        send/recv ledgers, *and* every live communicator's point-to-point
        and collective sequence counters (monotonic instrumentation
        counters are preserved).  Without the ledger/sequence clearing a
        reused world could replay stale in-flight messages or desync
        collective tag streams across ranks.  All ranks must be quiescent
        when one rank calls this (recovery synchronizes through
        :meth:`coordinate`; graceful-degradation tests use a barrier)."""
        self._failed.clear()
        self._fail_reason = None
        for cond, box, dropped in zip(self._conds, self._boxes,
                                      self._dropped):
            with cond:
                box.clear()
                dropped.clear()
        self.commlog.clear_all_waits()
        self.commlog.clear_ledgers()
        for comm in list(self._comms):
            comm.reset_sequences()

    # -- resilience --------------------------------------------------------

    def alive_ranks(self):
        """Sorted ranks (this world's numbering) not marked dead."""
        return [r for r in range(self.size) if r not in self.dead]

    def mark_dead(self, rank):
        """Declare ``rank`` dead (it will never rejoin this world) and
        wake any rendezvous waiting on it."""
        self.dead.add(rank)
        with self._rv_cond:
            self._rv_cond.notify_all()

    def successor(self, orig_of):
        """The next generation of this logical run (after a shrink or
        a grow): a fresh world over original ranks ``orig_of`` with the
        same transport settings, fault plan and lineage, every fired
        kill disarmed (kills are keyed on original ranks and must not
        re-fire on the rebuilt world) and the recovery counters carried
        over."""
        new = SimWorld(len(orig_of),
                       faults=self.faults if self.faults is not None
                       else False,
                       recv_timeout=self.recv_timeout,
                       max_retries=self.max_retries,
                       check_interval=self.check_interval,
                       orig_of=orig_of, lineage=self.lineage)
        new.disarmed_kills = self.disarmed_kills | self.pending_kills
        new.recovery_stats = dict(self.recovery_stats)
        return new

    def coordinate(self, rank, fn=None, timeout=None):
        """Out-of-band rendezvous of all *alive* ranks.

        Every alive rank must call this (SPMD).  Once all have joined,
        the lowest alive rank runs ``fn()`` (with no locks held) and its
        return value — or exception — is propagated to every
        participant.  With ``fn=None`` this is a fault-tolerant barrier.

        Unlike the regular transport this keeps working after
        :meth:`fail` was called, which is exactly when the recovery
        driver needs it; the alive set is re-evaluated every scheduling
        slice so a concurrent :meth:`mark_dead` unblocks the rendezvous.
        """
        timeout = self.recv_timeout if timeout is None else timeout
        deadline = _time.monotonic() + timeout
        cond = self._rv_cond
        with cond:
            epoch = self._rv_epoch
            self._rv_joined.add(rank)
            cond.notify_all()
            while True:
                if self._rv_epoch != epoch:
                    ok, value = self._rv_result
                    if not ok:
                        raise value
                    return value
                alive = self.alive_ranks()
                if rank not in alive:
                    raise RemoteRankError(
                        "dead rank %d joined a rendezvous" % rank)
                if set(alive) <= self._rv_joined and rank == alive[0]:
                    break  # all joined: this rank is the coordinator
                if _time.monotonic() > deadline:
                    self._rv_joined.discard(rank)
                    raise RemoteRankError(
                        "recovery rendezvous timed out on rank %d "
                        "(joined: %s, alive: %s)"
                        % (rank, sorted(self._rv_joined), alive))
                cond.wait(timeout=self.check_interval)
        # coordinator path — run fn without holding the rendezvous lock
        # (fn typically takes per-rank mailbox conditions in reset())
        try:
            result = (True, fn() if fn is not None else None)
        except BaseException as exc:  # noqa: BLE001 - propagate to peers
            result = (False, exc)
        with cond:
            self._rv_result = result
            self._rv_joined.clear()
            self._rv_epoch += 1
            cond.notify_all()
        ok, value = result
        if not ok:
            raise value
        return value

    # -- robustness instrumentation -----------------------------------------

    def comm_health(self):
        """Aggregate robustness counters (flows into profiling JSON)."""
        out = {'drops_injected': sum(self.ndrops_injected),
               'duplicates_injected': sum(self.ndups_injected),
               'redelivered': sum(self.nredelivered),
               'retries': sum(self.nretries)}
        out.update(self.commlog.counters())
        out.update(self.recovery_stats)
        return out


class Request:
    """Base class of non-blocking operation handles."""

    def wait(self):
        raise NotImplementedError

    def test(self):
        raise NotImplementedError

    # mpi4py-style aliases
    def Wait(self):
        return self.wait()

    def Test(self):
        return self.test()

    @staticmethod
    def waitall(requests):
        return [req.wait() for req in requests]

    Waitall = waitall


class CompletedRequest(Request):
    """A request that completed at initiation (buffered sends)."""

    def __init__(self, value=None):
        self._value = value

    def wait(self):
        return self._value

    def test(self):
        return True, self._value


class RecvRequest(Request):
    """Handle for a pending non-blocking receive."""

    def __init__(self, comm, source, tag, buf=None):
        self._comm = comm
        self._source = source
        self._tag = tag
        self._buf = buf
        self._done = False
        self._value = None

    def wait(self):
        if not self._done:
            msg = self._comm.world.collect(self._comm.rank, self._comm._id,
                                           self._source, self._tag)
            self._value = self._comm._land(msg.payload, self._buf)
            self._done = True
        return self._value

    def test(self):
        if self._done:
            return True, self._value
        msg = self._comm.world.collect(self._comm.rank, self._comm._id,
                                       self._source, self._tag, block=False)
        if msg is None:
            return False, None
        self._value = self._comm._land(msg.payload, self._buf)
        self._done = True
        return True, self._value


class SimComm:
    """A communicator over a :class:`SimWorld` (mpi4py-like surface)."""

    def __init__(self, world, rank, comm_id=('world',)):
        self.world = world
        self.rank = rank
        self._id = comm_id
        self._coll_seq = itertools.count()
        self._dup_seq = itertools.count()
        #: per-(dest, tag) send sequence numbers (non-overtaking streams)
        self._pt_seq = {}
        #: label attached to outgoing messages (set by exchangers so the
        #: commlog can attribute traffic to kernel sections)
        self.section = None
        world._comms.add(self)

    def reset_sequences(self):
        """Restart point-to-point and collective sequence counters.

        Called (on every live communicator) by :meth:`SimWorld.reset`
        during coordinated recovery so all ranks resume with aligned
        message streams.  Deliberately does *not* reset the ``Dup``
        counter: derived-communicator ids must stay unique for the
        lifetime of the world.
        """
        self._pt_seq.clear()
        self._coll_seq = itertools.count()

    def fault_tick(self, timestep):
        """Fault-injection hook called by generated kernels at the top
        of every timestep; kills this rank if the active plan says so.

        Kill coordinates are expressed in *original* ranks (translated
        through ``world.orig_of`` after a shrink) and kills already
        fired-and-recovered (``world.disarmed_kills``) are skipped so a
        resumed run makes progress past the fault.
        """
        plan = self.world.faults
        if plan is not None:
            orig = self.world.orig_of[self.rank]
            try:
                plan.tick(orig, timestep,
                          disarmed=self.world.disarmed_kills)
            except BaseException:
                self.world.pending_kills.add((orig, timestep))
                raise

    # -- introspection ---------------------------------------------------------

    @property
    def size(self):
        return self.world.size

    def Get_rank(self):
        return self.rank

    def Get_size(self):
        return self.size

    @staticmethod
    def Wtime():
        """MPI-style wall clock (used by the profiling subsystem)."""
        import time
        return time.perf_counter()

    def Dup(self):
        """A new communicator with an isolated message space.

        SPMD-deterministic: all ranks must call in the same order.
        """
        new_id = self._id + ('dup%d' % next(self._dup_seq),)
        return SimComm(self.world, self.rank, comm_id=new_id)

    def _derived(self, label, cls, *args, **kwargs):
        new_id = self._id + (label,)
        return cls(self.world, self.rank, *args, comm_id=new_id, **kwargs)

    # -- point-to-point ---------------------------------------------------------

    def send(self, obj, dest, tag=0):
        if dest == PROC_NULL:
            return
        key = (dest, tag)
        seq = self._pt_seq.get(key, 0)
        self._pt_seq[key] = seq + 1
        self.world.deliver(dest, _Message(self._id, self.rank, tag,
                                          _copy_payload(obj), seq=seq,
                                          section=self.section))

    Send = send

    def isend(self, obj, dest, tag=0):
        self.send(obj, dest, tag=tag)
        return CompletedRequest()

    Isend = isend

    def _land(self, payload, buf):
        if buf is not None and isinstance(buf, np.ndarray):
            flat = np.asarray(payload)
            buf[...] = flat.reshape(buf.shape)
            return buf
        return payload

    def recv(self, buf=None, source=ANY_SOURCE, tag=ANY_TAG):
        if source == PROC_NULL:
            return buf
        msg = self.world.collect(self.rank, self._id, source, tag)
        return self._land(msg.payload, buf)

    def Recv(self, buf, source=ANY_SOURCE, tag=ANY_TAG):
        return self.recv(buf=buf, source=source, tag=tag)

    def irecv(self, buf=None, source=ANY_SOURCE, tag=ANY_TAG):
        if source == PROC_NULL:
            return CompletedRequest(buf)
        return RecvRequest(self, source, tag, buf=buf)

    Irecv = irecv

    def sendrecv(self, sendobj, dest, sendtag=0, source=ANY_SOURCE,
                 recvtag=ANY_TAG, recvbuf=None):
        """Combined send/recv; deadlock-free like MPI_Sendrecv."""
        self.send(sendobj, dest, tag=sendtag)
        if source == PROC_NULL:
            return recvbuf
        return self.recv(buf=recvbuf, source=source, tag=recvtag)

    Sendrecv = sendrecv

    def probe(self, source=ANY_SOURCE, tag=ANY_TAG):
        return self.world.probe(self.rank, self._id, source, tag)

    # -- collectives -----------------------------------------------------------

    def _ctag(self):
        return _COLLECTIVE_TAG_BASE - next(self._coll_seq)

    def barrier(self):
        self.allgather(None)

    Barrier = barrier

    def bcast(self, obj, root=0):
        tag = self._ctag()
        if self.rank == root:
            for dest in range(self.size):
                if dest != root:
                    self.send(obj, dest, tag=tag)
            return _copy_payload(obj)
        return self.recv(source=root, tag=tag)

    Bcast = bcast

    def gather(self, obj, root=0):
        tag = self._ctag()
        if self.rank == root:
            out = [None] * self.size
            out[root] = _copy_payload(obj)
            for source in range(self.size):
                if source != root:
                    out[source] = self.recv(source=source, tag=tag)
            return out
        self.send(obj, root, tag=tag)
        return None

    def scatter(self, objs, root=0):
        tag = self._ctag()
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise ValueError("scatter needs one object per rank")
            for dest in range(self.size):
                if dest != root:
                    self.send(objs[dest], dest, tag=tag)
            return _copy_payload(objs[root])
        return self.recv(source=root, tag=tag)

    def allgather(self, obj):
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    def reduce(self, obj, op=None, root=0):
        gathered = self.gather(obj, root=root)
        if self.rank != root:
            return None
        return _apply_reduction(gathered, op)

    def allreduce(self, obj, op=None):
        reduced = self.reduce(obj, op=op, root=0)
        return self.bcast(reduced, root=0)

    Allreduce = allreduce

    def alltoall(self, objs):
        tag = self._ctag()
        if objs is None or len(objs) != self.size:
            raise ValueError("alltoall needs one object per rank")
        for dest in range(self.size):
            if dest != self.rank:
                self.send(objs[dest], dest, tag=tag)
        out = [None] * self.size
        out[self.rank] = _copy_payload(objs[self.rank])
        for source in range(self.size):
            if source != self.rank:
                out[source] = self.recv(source=source, tag=tag)
        return out


def _apply_reduction(values, op):
    if op is None or op == 'sum':
        result = values[0]
        for v in values[1:]:
            result = result + v
        return result
    if op == 'max':
        result = values[0]
        for v in values[1:]:
            result = np.maximum(result, v) if isinstance(
                result, np.ndarray) else max(result, v)
        return result
    if op == 'min':
        result = values[0]
        for v in values[1:]:
            result = np.minimum(result, v) if isinstance(
                result, np.ndarray) else min(result, v)
        return result
    if op == 'prod':
        result = values[0]
        for v in values[1:]:
            result = result * v
        return result
    if callable(op):
        result = values[0]
        for v in values[1:]:
            result = op(result, v)
        return result
    raise ValueError("unknown reduction op %r" % (op,))


def serial_comm():
    """A single-rank communicator (the no-MPI default)."""
    return SimComm(SimWorld(1), 0)


def run_parallel(fn, ranks, *args, timeout=600.0, **kwargs):
    """Run ``fn(comm, *args, **kwargs)`` SPMD-style on ``ranks`` threads.

    Returns the per-rank return values.  The first exception raised by any
    rank is re-raised in the caller (peers blocked on communication are
    woken with :class:`RemoteRankError`).
    """
    world = SimWorld(ranks)
    results = [None] * ranks
    errors = []
    lock = threading.Lock()

    def body(rank):
        comm = SimComm(world, rank)
        try:
            results[rank] = fn(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - propagate to caller
            with lock:
                errors.append((rank, exc))
            world.fail()

    threads = [threading.Thread(target=body, args=(r,), daemon=True,
                                name='sim-mpi-rank-%d' % r)
               for r in range(ranks)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
        if t.is_alive():
            world.fail()
            raise RemoteRankError("rank thread did not terminate "
                                  "(deadlock?)")
    if errors:
        errors.sort(key=lambda e: e[0])
        # prefer the most informative error: a genuine application error
        # beats a fault/deadlock diagnostic, which beats the generic
        # peer-failed wakeup the other ranks were unblocked with
        rank, exc = errors[0]
        primary = [e for e in errors if not isinstance(e[1], RemoteRankError)]
        if not primary:
            primary = [e for e in errors
                       if type(e[1]) is not RemoteRankError]
        if primary:
            rank, exc = primary[0]
        raise exc
    return results


def parallel(ranks, **run_kwargs):
    """Decorator form of :func:`run_parallel`.

    >>> @parallel(ranks=4)
    ... def job(comm):
    ...     return comm.rank
    >>> job()
    [0, 1, 2, 3]
    """
    def wrap(fn):
        def invoke(*args, **kwargs):
            return run_parallel(fn, ranks, *args, timeout=run_kwargs.get(
                'timeout', 600.0), **kwargs)
        invoke.__name__ = getattr(fn, '__name__', 'parallel_job')
        invoke.__doc__ = fn.__doc__
        return invoke
    return wrap
