"""Batched PFS data path: analytic fast-forward, now composable under load.

The legacy data path turns every client request into one simulation
process per stripe piece, each stepping through network timeouts,
server queue grants, and disk-service timeouts — a dozen events per
piece.  At paper scale that per-piece event storm dominates the run.

This module collapses it.  A client request is decomposed into
per-server piece groups in one pass (vectorized for large requests);
for each target server the group is priced analytically — network
arrival instants, disk seek/transfer chain, cache hits, write-behind
acks and drains — using exactly the same float expressions, in exactly
the same order, as the event-stepped path.  The plan becomes a
:class:`FastSpan`: one absolute-time event resumes the client at the
planned completion instant, and the span's side effects (disk head
state, counters, cache inserts) are applied lazily, in timestamp
order, so external observers never see the future.

**Contended servers no longer force event stepping.**  Each server
carries at most one :class:`PlanChain` — a FIFO chain of stacked
spans whose aggregate tail state (channel/CPU free times, last planned
arrival per resource, planned disk-head position, in-flight
write-behind drains) is exactly the queue state a newly arriving
request would observe.  A new request *stacks* onto the chain when its
earliest network arrival cannot overtake any arrival the chain already
planned (the append-order guard): FIFO then guarantees the new span's
grants are a pure concatenation, so pricing against the tail state
reproduces the legacy queue waits bit-for-bit.  ``server.plan_state()``
is the gate: it reports the active chain (or an idle marker) only
while the real resources are untouched.

Correctness for everything the chain cannot predict comes from
*revocation*: any event-stepped entry into a planned server (a
shared-pointer piece, a policy probe, a fault application) first calls
``server.settle()``, which applies the whole chain's effects up to the
current instant — k-way merged across spans in global timestamp order,
so LRU-sensitive cache state evolves exactly as the legacy path's —
and reconstitutes every unfinished piece as real queue state in chain
order.  An adaptive guard watches a sliding window of span outcomes
per server and stops planning where revocation dominates, so
pathological workloads degrade to plain event stepping instead of
plan/revoke thrash.  ``REPRO_FAST_DATAPATH=0`` disables the whole
path, keeping the legacy per-piece code as a determinism cross-check.

Two implementation choices carry the constant factor (0.68x ->
~1.5x on the contended 8-client server microbench, >= 2x end-to-end;
committed numbers in ``BENCH_datapath.json``):

- **One effect list per chain.**  Spans append their side effects
  (counter bumps, disk-head commits, cache inserts, drain completions)
  directly onto ``PlanChain.effects``; a cursor marks the applied
  prefix and a dirty flag triggers a stable re-sort of the pending
  tail only when a new span's effects can land before already-pending
  ones.  Stable sort over append order (chain order x emission order)
  resolves same-timestamp ties exactly as the legacy event chain.
- **Early planning.**  Single-piece requests on private-pointer files
  — the dominant shape — skip the generic planner for a specialized
  constructor that prices against chain-cached disk constants
  (``disk.plan_consts()`` is fixed while a chain is alive, the same
  quiet-time invariant revocation relies on).
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import TYPE_CHECKING, Generator, List

from repro import flags, sanitize
from repro.errors import PFSError
from repro.machine.disk import RAID3Array
from repro.pfs.server import PLAN_IDLE
from repro.pfs.striping import StripePiece
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.pfs.client import PFS, PFSNodeClient
    from repro.pfs.file import SharedFileState
    from repro.pfs.server import StripeServer

#: Below this piece count, scalar decomposition beats array setup.
_VECTOR_MIN_PIECES = 64

#: Adaptive guard: outcomes (planned spans) remembered per server, and
#: the number of revocations within that window that permanently
#: disables planning on the server.  Disabling can never change
#: observable behavior — spans are exact whether planned or not — it
#: only stops paying plan/revoke overhead where prediction keeps
#: failing.
_SPAN_WINDOW = 64
_SPAN_WINDOW_MASK = (1 << _SPAN_WINDOW) - 1
_SPAN_DISABLE_REVOKED = 32

#: Effect opcodes (dispatched inline in PlanChain.apply_until).
_E_WCNT = 0      # write arrived at server: writes/bytes counters
_E_DISK = 1      # disk service start: commit planned head state
_E_RDONE = 2     # read-miss completion: ionode counters, insert, net
_E_HDONE = 3     # read-hit completion: net send counters
_E_WDONE = 4     # write-through completion: ionode counters, insert
_E_ACK = 5       # write-behind ack: dirty insert
_E_DRAIN = 6     # write-behind drain done: ionode counters, mark clean
_E_RCNT = 7      # read request arrived at server: reads/bytes counters
_E_SEND = 8      # client sends started: network traffic counters

#: Shared empty piece-timeline for the kinds a span does not carry.
_EMPTY = ()

_INF = float("inf")

#: Sort key for the chain-level effect list.  The sort is stable, so
#: same-time effects keep their append order — chain order across
#: spans, emission order within one.
_EFFECT_T = itemgetter(0)

#: Applied-prefix length that triggers compaction of the chain-level
#: effect list (long-lived chains under steady contention would grow
#: without bound otherwise).
_EFFECT_PRUNE = 512


def _fast_datapath_default() -> bool:
    return flags.fast_datapath()


class PlanChain:
    """The FIFO chain of stacked spans planned on one server.

    The chain owns the *planned* queue state a newly arriving request
    would observe: when each modeled resource drains (``ch_free``,
    ``cpu_free``), the latest arrival already planned per resource
    (``ch_arrival``, ``cpu_arrival`` — the append-order guard compares
    against these), the disk head position after the last planned
    request (``next_off``), and the completion times of write-behind
    drains whose slots are still held (``wb_drains``).  Spans read the
    tail state while pricing and push it forward; settlement revokes
    the whole chain at once, in chain order, so reconstituted resource
    requests land in the same FIFO order the plan assumed.
    """

    __slots__ = (
        "dp", "server", "env", "spans", "effects", "cursor", "dirty",
        "next_due", "ip", "const",
        "ch_free", "ch_arrival", "cpu_free", "cpu_arrival",
        "next_off", "wb_drains",
    )

    def __init__(self, dp: "DataPath", server: "StripeServer") -> None:
        self.dp = dp
        self.server = server
        self.env = dp.env
        ionode = server.ionode
        #: Per-server constants every stacked span needs: the I/O
        #: node's mesh position and the disk's hoisted service-model
        #: constants.  The eligibility gate keeps fault-scheduled
        #: servers unplanned, so the disk config cannot change while
        #: the chain lives (the same invariant commit_planned relies
        #: on) and caching the tuple here is exact.
        self.ip = ionode.mesh_position
        self.const = ionode.disk.plan_consts()
        self.spans: list = []
        #: The chain-level effect list: spans emit their effects
        #: straight into it at plan time (append order = chain order,
        #: emission order within a span); ``cursor`` marks the applied
        #: prefix and ``dirty`` flags a pending tail that needs its
        #: stable re-sort before the next application (a stacked span's
        #: effects usually overlap its predecessors' in time).
        self.effects: list = []
        self.cursor = 0
        self.dirty = False
        #: Earliest unapplied effect time across the chain — the O(1)
        #: gate in :meth:`apply_until`.  May go stale *low* (a discard
        #: does not re-scan), never stale high.
        self.next_due = _INF
        #: -1.0 sorts before any simulation instant (env starts at 0).
        self.ch_free = -1.0
        self.ch_arrival = -1.0
        self.cpu_free = -1.0
        self.cpu_arrival = -1.0
        self.next_off = server.ionode.disk.plan_head()
        self.wb_drains: deque = deque()

    # -- membership ------------------------------------------------------
    def add(self, span: "FastSpan") -> None:
        if not self.spans:
            self.server.plan = self
        self.spans.append(span)

    def discard(self, span: "FastSpan") -> None:
        """Drop a naturally completed span (identity match — network
        tails let spans finish out of chain order)."""
        spans = self.spans
        for i, s in enumerate(spans):
            if s is span:
                del spans[i]
                break
        if not spans and self.server.plan is self:
            self.server.plan = None

    # -- planned write-behind occupancy ---------------------------------
    def wb_inflight(self, tau: float) -> int:
        """Write-behind slots the chain still holds at ``tau``.

        Planned drain completions are pushed in chain order and are
        non-decreasing (drains serialize on the channel), so expiring
        the head of the deque is exact.
        """
        drains = self.wb_drains
        while drains and drains[0] <= tau:
            drains.popleft()
        return len(drains)

    # -- merged lazy effect application ---------------------------------
    def apply_until(self, tau: float) -> None:
        """Apply every chain effect due at or before ``tau``.

        Effects from different spans are interleaved in global
        timestamp order (ties broken by chain position — the earlier
        span's event chain was inserted first in the legacy world), so
        order-sensitive state (block-cache LRU, float accumulators)
        evolves exactly as the event-stepped path's.  The ``next_due``
        memo makes the common nothing-due probe (every stack attempt,
        most settles) a single comparison; otherwise the pending tail
        is stable-sorted on demand (appended in chain order, so ties
        resolve correctly) and applied with one linear walk.
        """
        if tau < self.next_due:
            return
        effects = self.effects
        i = self.cursor
        if i > _EFFECT_PRUNE:
            del effects[:i]
            i = 0
        if self.dirty:
            tail = effects[i:]
            tail.sort(key=_EFFECT_T)
            effects[i:] = tail
            self.dirty = False
        server = self.server
        ion = server.ionode
        disk = ion.disk
        net = self.dp.net
        const = self.const
        req_overhead = const[4]
        rate = const[5]
        n = len(effects)
        # Inline dispatch, branches ordered by effect frequency.
        while i < n:
            e = effects[i]
            if e[0] > tau:
                break
            code = e[1]
            if code == _E_DISK:
                # disk.commit_planned, inlined with the chain's cached
                # service constants (exact: the config cannot change
                # while the chain lives).
                nb = e[3]
                dur = e[4]
                transfer = nb / rate
                disk._next_offset = e[2] + nb
                disk.busy_time += dur
                disk.position_time += dur - transfer - req_overhead
                disk.transfer_time += transfer
                disk.requests += 1
                disk.bytes_serviced += nb
            elif code == _E_RDONE:
                ion.completed += 1
                ion.total_queue_delay += e[3] - e[2]
                ion.total_service += e[0] - e[3]
                if e[5] is not None:
                    server.cache.insert(e[5], dirty=False)
                net.messages += 1
                net.bytes_moved += e[4]
            elif code == _E_WDONE:
                ion.completed += 1
                ion.total_queue_delay += e[3] - e[2]
                ion.total_service += e[0] - e[3]
                if e[4] is not None:
                    server.cache.insert(e[4], dirty=False)
            elif code == _E_WCNT:
                server.writes += 1
                server.bytes_written += e[2]
            elif code == _E_RCNT:
                server.reads += e[2]
                server.bytes_read += e[3]
            elif code == _E_SEND:
                net.messages += e[2]
                net.bytes_moved += e[3]
            elif code == _E_HDONE:
                net.messages += 1
                net.bytes_moved += e[2]
            elif code == _E_ACK:
                server.cache.insert(e[2], dirty=True)
            else:  # _E_DRAIN
                ion.completed += 1
                ion.total_queue_delay += e[3] - e[2]
                ion.total_service += e[0] - e[3]
                server.cache.mark_clean(e[4])
                server.wb_drained += 1
                server.wb_drain_wait += e[0] - e[2]
            i += 1
        self.cursor = i
        self.next_due = effects[i][0] if i < n else _INF

    # -- revocation ------------------------------------------------------
    def settle(self) -> None:
        """Fold the whole chain back into real, event-stepped state.

        Applies the merged effects up to *now*, then reconstitutes each
        span's unfinished pieces in chain order, so granted holders,
        queued requests, and pending arrivals rebuild in exactly the
        FIFO order the plan priced.  After this returns, the server is
        indistinguishable from one that never had a plan.
        """
        tau = self.env.now
        self.apply_until(tau)
        spans = self.spans
        self.spans = []
        self.effects = []
        self.cursor = 0
        self.dirty = False
        self.next_due = _INF
        server = self.server
        if server.plan is self:
            server.plan = None
        dp = self.dp
        n = len(spans)
        dp.revocations += n
        server.span_revocations += n
        for s in spans:
            s.revoked = True
        for s in spans:
            s._reconstitute(tau)
        for _ in spans:
            dp._span_outcome(server, 1)


class DataPath:
    """Per-PFS orchestrator routing client transfers through spans."""

    def __init__(self, pfs: "PFS") -> None:
        self.pfs = pfs
        self.env = pfs.env
        self.costs = pfs.costs
        self.net = pfs.machine.network
        #: Hot-path constants (the cost model is validated and fixed at
        #: PFS construction).
        self.client_overhead = self.costs.client_overhead
        self.bw = self.net.config.bandwidth
        self.chs = self.costs.cache_hit_service
        self.was = self.costs.write_ack_service
        self.ccr = self.costs.cache_copy_rate
        #: Counters for the perf report.
        self.spans = 0
        self.span_pieces = 0
        self.fallback_pieces = 0
        self.revocations = 0
        #: Spans planned onto a non-empty chain (contended fast path).
        self.spans_stacked = 0
        #: Byte split between the two execution strategies (telemetry).
        self.span_bytes = 0
        self.span_stacked_bytes = 0
        self.fallback_bytes = 0
        #: Fault engine, when one is attached (repro.faults).  Gates
        #: span planning (see FaultEngine.span_ok) and switches piece
        #: completion to failure-aware chaining.
        self.faults = None
        #: REPRO_SANITIZE class selection (repro.sanitize), resolved
        #: once here: every chain and span this datapath plans carries
        #: invariant checks, or none do.  The default classes have no
        #: sanitizer branches at all.
        if sanitize.enabled():
            self._chain_cls = SanitizedPlanChain
            self._span_cls = SanitizedFastSpan
        else:
            self._chain_cls = PlanChain
            self._span_cls = FastSpan

    # ------------------------------------------------------------------
    def transfer(
        self,
        client: "PFSNodeClient",
        state: "SharedFileState",
        offset: int,
        nbytes: int,
        kind: str,
        cached: bool,
    ) -> Generator:
        """Drop-in replacement for the client's legacy ``_data_path``.

        The client yields exactly one event.  The request "arrives" at
        the stripe servers ``client_overhead`` later — at that instant a
        scheduled *callback* (no generator resume) plans spans (stacking
        onto loaded servers when the append-order guard allows), or
        settles the targets and spawns fallback pieces.
        """
        env = self.env
        if nbytes == 0:
            yield env.timeout(self.client_overhead)
            return
        if kind == "write_behind" and not cached:
            # The server degrades uncached write-behind to write-through.
            kind = "write_through"
        if not cached and state.sem.private_pointer:
            early = self.launch_early(client, state, offset, nbytes, kind)
            if early is not None:
                yield early
                return
        done = Event(env)
        arrival = env.at(env.now + self.client_overhead)
        arrival.callbacks.append(
            lambda _ev: self._launch(
                client, state, offset, nbytes, kind, cached, done
            )
        )
        yield done

    def _launch(
        self,
        client: "PFSNodeClient",
        state: "SharedFileState",
        offset: int,
        nbytes: int,
        kind: str,
        cached: bool,
        done: Event,
    ) -> None:
        """Plan the transfer at its arrival instant (runs as a callback)."""
        if not state.sem.private_pointer:
            # Shared-pointer modes (M_SYNC, M_LOG, M_GLOBAL) trace the
            # *post-op* shared offset, so the order in which a client
            # resume interleaves with other ranks' pointer advances at a
            # tied timestamp is observable.  A span's completion event
            # is inserted at plan time — much earlier in the timestamp's
            # FIFO order than the legacy chain's final event — which
            # shifts that order.  Keep these modes fully event-stepped.
            self._launch_stepped(client, state, offset, nbytes, kind,
                                 cached, done)
            return
        layout = state.layout
        ss = layout.stripe_size
        n_io = layout.n_io_nodes
        base = layout.disk_base
        first = offset // ss
        end = offset + nbytes
        last = (end - 1) // ss
        k = last - first + 1
        env = self.env

        if k == 1:
            srv = first % n_io
            doff = base + (first // n_io) * ss + (offset - first * ss)
            server = self.pfs.servers[srv]
            chain = self._eligible(server, client, kind, (nbytes,), env.now)
            if chain is not None:
                stacked = bool(chain.spans)
                self._span_cls(
                    self, client, server, state.file_id,
                    (doff,), (nbytes,), kind, cached, chain, done,
                )
                self.spans += 1
                self.span_pieces += 1
                self.span_bytes += nbytes
                if stacked:
                    self.spans_stacked += 1
                    self.span_stacked_bytes += nbytes
            else:
                server.settle()
                self.fallback_pieces += 1
                self.fallback_bytes += nbytes
                piece = StripePiece(srv, doff, offset, nbytes)
                env.process(
                    self._fallback_piece(
                        client, piece, state, kind, cached, done
                    ),
                    name=f"{kind}-piece",
                )
            return

        # -- decompose into parallel piece lists, file order ------------
        if k < _VECTOR_MIN_PIECES:
            ios = []
            doffs = []
            foffs = []
            ns = []
            for stripe in range(first, last + 1):
                start = stripe * ss
                foff = offset if offset > start else start
                pend = end if end < start + ss else start + ss
                ios.append(stripe % n_io)
                doffs.append(base + (stripe // n_io) * ss + (foff - start))
                foffs.append(foff)
                ns.append(pend - foff)
        else:
            io_a, doff_a, foff_a, n_a = layout.pieces_arrays(offset, nbytes)
            ios = io_a.tolist()
            doffs = doff_a.tolist()
            foffs = foff_a.tolist()
            ns = n_a.tolist()

        # -- group per server (round-robin => strided slices) ------------
        if n_io == 1:
            groups = [(ios[0], doffs, foffs, ns)]
        else:
            groups = []
            for r in range(n_io if n_io < k else k):
                srv = (first + r) % n_io
                groups.append(
                    (srv, doffs[r::n_io], foffs[r::n_io], ns[r::n_io])
                )

        servers = self.pfs.servers
        waits: List[object] = []
        for srv, g_doffs, g_foffs, g_ns in groups:
            server = servers[srv]
            chain = self._eligible(server, client, kind, g_ns, env.now)
            if chain is not None:
                stacked = bool(chain.spans)
                span = self._span_cls(
                    self, client, server, state.file_id,
                    g_doffs, g_ns, kind, cached, chain,
                )
                waits.append(span.client_event)
                self.spans += 1
                self.span_pieces += len(g_ns)
                self.span_bytes += sum(g_ns)
                if stacked:
                    self.spans_stacked += 1
                    self.span_stacked_bytes += sum(g_ns)
            else:
                server.settle()
                self.fallback_pieces += len(g_ns)
                self.fallback_bytes += sum(g_ns)
                for doff, foff, n in zip(g_doffs, g_foffs, g_ns):
                    piece = StripePiece(srv, doff, foff, n)
                    waits.append(
                        env.process(
                            client._piece_io(
                                piece, state, kind, cached, self.net
                            ),
                            name=f"{kind}-piece",
                        )
                    )
        self._chain(waits, done)

    def _launch_stepped(
        self, client, state, offset, nbytes, kind, cached, done: Event
    ) -> None:
        """Fully event-stepped launch: the legacy per-piece processes,
        in legacy decomposition order, chained to ``done``."""
        env = self.env
        pieces = state.layout.pieces(offset, nbytes)
        self.fallback_pieces += len(pieces)
        self.fallback_bytes += nbytes
        if len(pieces) == 1:
            env.process(
                self._fallback_piece(
                    client, pieces[0], state, kind, cached, done
                ),
                name=f"{kind}-piece",
            )
            return
        procs = [
            env.process(
                client._piece_io(p, state, kind, cached, self.net),
                name=f"{kind}-piece",
            )
            for p in pieces
        ]
        self._chain(procs, done)

    def _chain(self, waits, done: Event) -> None:
        """Resolve ``done`` once every wait in ``waits`` has.

        With a fault engine attached, piece processes report transfer
        faults as *return values* (never raised — see
        ``PFSNodeClient._piece_io``), so the whole gather always
        completes; the first piece error then fails ``done``, which the
        waiting client process defuses and re-raises.
        """
        gate = self.env.all_of(waits)
        if self.faults is None:
            gate.callbacks.append(lambda _ev: done.succeed())
            return

        def finish(_ev) -> None:
            for w in waits:
                err = w._value
                if err is not None and isinstance(err, BaseException):
                    done.fail(err)
                    return
            done.succeed()

        gate.callbacks.append(finish)

    def _fallback_piece(
        self, client, piece, state, kind, cached, done: Event
    ) -> Generator:
        """Event-stepped single-piece transfer, chained to ``done``."""
        err = yield from client._piece_io(piece, state, kind, cached, self.net)
        if err is not None:
            done.fail(err)
        else:
            done.succeed()

    # ------------------------------------------------------------------
    def launch_early(
        self,
        client: "PFSNodeClient",
        state: "SharedFileState",
        offset: int,
        nbytes: int,
        kind: str,
    ):
        """Plan an *uncached* private-pointer transfer at request time.

        The request arrives at the stripe servers ``client_overhead``
        later, but an uncached transfer interacts with nothing in
        between — no cache to probe, no shared pointer to trace — so
        when every target server is plannable the spans can be priced
        immediately against the future arrival instant ``t0``,
        skipping the per-request arrival event and launch callback
        entirely.  The arrival-time counter bumps (server read
        counters, client send traffic) become effects at ``t0`` so
        settlement before the arrival replays them exactly.  Returns
        the completion event to wait on, or ``None`` when any target
        declines — all-or-nothing, because a partial early plan would
        split one legacy arrival instant across two launches.  The
        caller then falls back to the arrival-callback launch, which
        can still plan per-server or event-step.
        """
        env = self.env
        t0 = env.now + self.client_overhead
        layout = state.layout
        ss = layout.stripe_size
        n_io = layout.n_io_nodes
        base = layout.disk_base
        first = offset // ss
        end = offset + nbytes
        last = (end - 1) // ss
        k = last - first + 1

        if k == 1:
            srv = first % n_io
            server = self.pfs.servers[srv]
            chain = self._eligible(server, client, kind, (nbytes,), t0)
            if chain is None:
                return None
            doff = base + (first // n_io) * ss + (offset - first * ss)
            stacked = bool(chain.spans)
            ev = self._plan_single_early(
                client, server, doff, nbytes, kind, chain, t0
            )
            self.spans += 1
            self.span_pieces += 1
            self.span_bytes += nbytes
            if stacked:
                self.spans_stacked += 1
                self.span_stacked_bytes += nbytes
            return ev

        if k < _VECTOR_MIN_PIECES:
            ios = []
            doffs = []
            ns = []
            for stripe in range(first, last + 1):
                start = stripe * ss
                foff = offset if offset > start else start
                pend = end if end < start + ss else start + ss
                ios.append(stripe % n_io)
                doffs.append(base + (stripe // n_io) * ss + (foff - start))
                ns.append(pend - foff)
        else:
            io_a, doff_a, _foff_a, n_a = layout.pieces_arrays(offset, nbytes)
            ios = io_a.tolist()
            doffs = doff_a.tolist()
            ns = n_a.tolist()

        if n_io == 1:
            groups = [(ios[0], doffs, ns)]
        else:
            groups = []
            for r in range(n_io if n_io < k else k):
                srv = (first + r) % n_io
                groups.append((srv, doffs[r::n_io], ns[r::n_io]))

        servers = self.pfs.servers
        chains = []
        for srv, _g_doffs, g_ns in groups:
            chain = self._eligible(servers[srv], client, kind, g_ns, t0)
            if chain is None:
                return None
            chains.append(chain)
        waits: List[object] = []
        for (srv, g_doffs, g_ns), chain in zip(groups, chains):
            stacked = bool(chain.spans)
            span = self._span_cls(
                self, client, servers[srv], state.file_id,
                g_doffs, g_ns, kind, False, chain, None, t0,
            )
            waits.append(span.client_event)
            self.spans += 1
            self.span_pieces += len(g_ns)
            self.span_bytes += sum(g_ns)
            if stacked:
                self.spans_stacked += 1
                self.span_stacked_bytes += sum(g_ns)
        done = Event(env)
        self._chain(waits, done)
        return done

    def _plan_single_early(
        self, client: "PFSNodeClient", server: "StripeServer",
        doff: int, n: int, kind: str, chain: PlanChain, t0: float,
    ) -> Event:
        """Specialized single-piece planner for early (uncached) spans.

        Exactly the generic :class:`FastSpan` construction, straight-
        lined for the overwhelmingly common case — one piece, no cache
        key, ``kind`` read or write-through — which is every request of
        a stripe-aligned unbuffered workload.  The generic constructor
        pays generic-loop and list bookkeeping this path never needs.
        """
        env = self.env
        span_cls = self._span_cls
        span = span_cls.__new__(span_cls)
        span.dp = self
        span.env = env
        span.server = server
        span.chain = chain
        span.kind = kind
        span.cached = False
        span.t0 = t0
        span.revoked = False
        span.hits = _EMPTY
        span.misses = _EMPTY
        span.items = _EMPTY
        span.pending = 0
        span.strict = -_INF
        span.cp = cp = client.mesh_position
        span.ip = ip = chain.ip
        const = chain.const
        next_off = chain.next_off
        effects = chain.effects
        mark = len(effects)
        ch_t = chain.ch_free
        if t0 > ch_t:
            ch_t = t0
        if kind == "read":
            effects.append((t0, _E_RCNT, 1, n))
            d = 0.0 if ip == cp else self.net.base_cost(ip, cp) + n / self.bw
            if next_off is not None and doff == next_off:
                position = const[1]
            else:
                position = const[2]
            dur = const[4] + position + n / const[5]
            c = ch_t + dur
            done = c + d
            effects.append((ch_t, _E_DISK, doff, n, dur))
            effects.append((c, _E_RDONE, t0, ch_t, n, None))
            span.misses = ((ch_t, c, done, n, doff, None, d),)
            chain.ch_arrival = t0
            t_client = done
        else:  # write_through
            effects.append((t0, _E_SEND, 1, n))
            a = t0 if cp == ip else t0 + self.net.base_cost(cp, ip) + n / self.bw
            if next_off is not None and doff == next_off:
                position = const[1]
            else:
                position = const[2]
                if n < server.stripe_size:
                    position += const[3]
            dur = const[4] + position + n / const[5]
            g = a if a > ch_t else ch_t
            c = g + dur
            effects.append((a, _E_WCNT, n))
            effects.append((g, _E_DISK, doff, n, dur))
            effects.append((c, _E_WDONE, a, g, None))
            span.items = ((a, g, c, n, doff, None),)
            chain.ch_arrival = a
            t_client = c
        chain.ch_free = c
        chain.next_off = doff + n
        if (not chain.dirty and mark > chain.cursor
                and t0 < effects[mark - 1][0]):
            chain.dirty = True
        if t0 < chain.next_due:
            chain.next_due = t0
        spans = chain.spans
        if not spans:
            server.plan = chain
        spans.append(span)
        server.spans_planned += 1
        span.client_event = ev = Event(env)
        span.t_done = t_client
        trigger = env.at(t_client)
        trigger.callbacks.append(span._finish)
        return ev

    def plan_write_at(
        self,
        client: "PFSNodeClient",
        state: "SharedFileState",
        offset: int,
        nbytes: int,
        kind: str,
        cached: bool,
        t0: float,
    ):
        """Plan one write whose request is issued *in the future*.

        The batch submitter (``PFSNodeClient.write_batch``) walks a
        whole sequence of writes analytically: request ``j`` is issued
        at the planned completion of request ``j-1``, so its arrival
        instant ``t0`` lies beyond ``env.now``.  Pricing is the
        ordinary :class:`FastSpan` construction against the chain tail
        — exact under the batch contract that no foreign traffic
        enters the target servers during the batch window (enforced
        loudly by the spans' ``strict`` revocation threshold).  The
        eligibility gate itself is evaluated *now*, which is
        conservative: a server that would only become plannable by
        ``t0`` simply declines.  Returns the planned client-completion
        instant (write-through: last disk commit; write-behind: last
        cache ack), or ``None`` when any target server declines — the
        caller then falls back to per-request event-stepped submission
        for the rest of the batch.
        """
        layout = state.layout
        ss = layout.stripe_size
        n_io = layout.n_io_nodes
        base = layout.disk_base
        first = offset // ss
        end = offset + nbytes
        last = (end - 1) // ss
        k = last - first + 1
        servers = self.pfs.servers

        if k == 1:
            srv = first % n_io
            server = servers[srv]
            chain = self._eligible(server, client, kind, (nbytes,), t0)
            if chain is None:
                return None
            doff = base + (first // n_io) * ss + (offset - first * ss)
            stacked = bool(chain.spans)
            span = self._span_cls(
                self, client, server, state.file_id,
                (doff,), (nbytes,), kind, cached, chain, None, t0,
            )
            if kind == "write_through":
                span.strict = chain.ch_arrival
                t_client = chain.ch_free
            else:
                span.strict = chain.cpu_arrival
                t_client = chain.cpu_free
            self.spans += 1
            self.span_pieces += 1
            self.span_bytes += nbytes
            if stacked:
                self.spans_stacked += 1
                self.span_stacked_bytes += nbytes
            return t_client

        if k < _VECTOR_MIN_PIECES:
            ios = []
            doffs = []
            ns = []
            for stripe in range(first, last + 1):
                start = stripe * ss
                foff = offset if offset > start else start
                pend = end if end < start + ss else start + ss
                ios.append(stripe % n_io)
                doffs.append(base + (stripe // n_io) * ss + (foff - start))
                ns.append(pend - foff)
        else:
            io_a, doff_a, _foff_a, n_a = layout.pieces_arrays(offset, nbytes)
            ios = io_a.tolist()
            doffs = doff_a.tolist()
            ns = n_a.tolist()

        if n_io == 1:
            groups = [(ios[0], doffs, ns)]
        else:
            groups = []
            for r in range(n_io if n_io < k else k):
                srv = (first + r) % n_io
                groups.append((srv, doffs[r::n_io], ns[r::n_io]))

        chains = []
        for srv, _g_doffs, g_ns in groups:
            chain = self._eligible(servers[srv], client, kind, g_ns, t0)
            if chain is None:
                return None
            chains.append(chain)
        t_client = t0
        for (srv, g_doffs, g_ns), chain in zip(groups, chains):
            stacked = bool(chain.spans)
            span = self._span_cls(
                self, client, servers[srv], state.file_id,
                g_doffs, g_ns, kind, cached, chain, None, t0,
            )
            if kind == "write_through":
                span.strict = chain.ch_arrival
                done = chain.ch_free
            else:
                span.strict = chain.cpu_arrival
                done = chain.cpu_free
            if done > t_client:
                t_client = done
            self.spans += 1
            self.span_pieces += len(g_ns)
            self.span_bytes += sum(g_ns)
            if stacked:
                self.spans_stacked += 1
                self.span_stacked_bytes += sum(g_ns)
        return t_client

    def _eligible(
        self, server: "StripeServer", client: "PFSNodeClient",
        kind: str, ns, t0: float,
    ):
        """The chain this transfer may plan onto, or ``None``.

        Returns the server's active :class:`PlanChain` when the new
        span can *stack* (append-order guard), a fresh chain when the
        server is genuinely idle, and ``None`` when the transfer must
        be event-stepped (caller settles first).  ``t0`` is the
        instant the request's pieces reach the server: the current
        time for arrival-time launches, a future instant for early
        plans (the gate itself — fault quiet-times, resource
        idleness — is evaluated *now*, which is conservative: any
        entry between now and ``t0`` settles the chain).  With a
        fault engine attached, a server whose fault schedule is not
        entirely in the past is never planned (quiet-time gating), so
        faulted traffic is event-stepped under both datapath modes.
        """
        if server.span_disabled:
            return None
        faults = self.faults
        if faults is not None and not faults.span_ok(server.ionode.index):
            return None
        state = server.plan_state()
        if state is None:
            return None
        if state is not PLAN_IDLE:
            if self._can_stack(state, server, client, kind, ns, t0):
                return state
            return None
        if type(server.ionode.disk) is not RAID3Array:
            return None
        if kind == "write_behind" and len(ns) > server._wb_slots.capacity:
            return None
        return self._chain_cls(self, server)

    def _can_stack(
        self, chain: PlanChain, server: "StripeServer",
        client: "PFSNodeClient", kind: str, ns, t0: float,
    ) -> bool:
        """Append-order guard: may this span extend the chain?

        Stacking is exact only when the new span's earliest resource
        arrival (at or after ``t0``) cannot overtake any arrival the
        chain already planned — FIFO then makes the new grants a pure
        concatenation.  Ties are safe: the chain's event would have
        been inserted earlier at the same timestamp, so it dispatches
        first, which is exactly the order the tail state prices.  Chain effects due by
        *now* are applied first so plan-time cache lookups observe the
        same state the legacy path would.
        """
        chain.apply_until(self.env.now)
        if kind == "read":
            # Read pieces enter both queues at their arrival instant.
            return chain.ch_arrival <= t0 and chain.cpu_arrival <= t0
        cp = client.mesh_position
        ip = server.ionode.mesh_position
        if cp == ip:
            first = t0
        else:
            first = t0 + self.net.base_cost(cp, ip) + min(ns) / self.bw
        if first < chain.ch_arrival:
            return False
        if kind == "write_behind":
            if first < chain.cpu_arrival:
                return False
            if (chain.wb_inflight(self.env.now) + len(ns)
                    > server._wb_slots.capacity):
                return False
        return True

    def _span_outcome(self, server: "StripeServer", revoked: int) -> None:
        """Feed one span outcome into the server's adaptive guard."""
        window = ((server._span_window << 1) | revoked) & _SPAN_WINDOW_MASK
        server._span_window = window
        seen = server._span_seen
        if seen < _SPAN_WINDOW:
            server._span_seen = seen + 1
            if seen + 1 < _SPAN_WINDOW:
                return
        elif not revoked:
            # A zero outcome can only shift ones *out* of the window:
            # if the count was below the threshold last time, it still
            # is, so the popcount is only worth taking on revocations
            # (and once, when the window first fills).
            return
        if bin(window).count("1") >= _SPAN_DISABLE_REVOKED:
            server.span_disabled = True


class FastSpan:
    """One analytically fast-forwarded piece batch on one server.

    Construction *plans* the batch against the chain's tail state: it
    prices every stage with the exact legacy expressions (queue waits
    fall out of the chain's resource free-times), posts absolute-time
    events (client completion and final-effect resolution), appends
    itself to the chain, and stores an ordered effect list plus
    per-piece timelines for possible revocation.
    """

    __slots__ = (
        "dp", "env", "server", "chain", "kind", "cached", "t0", "t_done",
        "cp", "ip", "client_event", "revoked",
        "hits", "misses", "items", "pending", "strict",
    )

    def __init__(
        self,
        dp: DataPath,
        client: "PFSNodeClient",
        server: "StripeServer",
        file_id: int,
        doffs,
        ns,
        kind: str,
        cached: bool,
        chain: PlanChain,
        client_event: Event = None,
        t0: float = None,
    ) -> None:
        env = dp.env
        self.dp = dp
        self.env = env
        self.server = server
        self.chain = chain
        self.kind = kind
        self.cached = cached
        #: The instant the request's pieces reach the server.  Early
        #: plans (DataPath.launch_early) price before it; then the
        #: arrival-time counter bumps become effects at ``t0``.
        if t0 is None:
            t0 = env.now
            early = False
        else:
            early = t0 > env.now
        self.t0 = t0
        self.client_event = (
            client_event if client_event is not None else Event(env)
        )
        self.revoked = False
        self.hits = _EMPTY
        self.misses = _EMPTY
        self.items = _EMPTY
        self.pending = 0
        #: Strict-revocation threshold: batch-planned spans (see
        #: DataPath.plan_write_at) whose network arrivals have not all
        #: happened yet cannot be revoked exactly — the batching client
        #: has already committed to the planned timeline — so
        #: _reconstitute raises when ``tau < strict`` instead of
        #: silently diverging.  -inf for ordinary spans.
        self.strict = -_INF

        net = dp.net
        self.cp = cp = client.mesh_position
        self.ip = ip = chain.ip
        bw = dp.bw
        _, seq_overhead, positioning, rmw_extra, req_overhead, rate = (
            chain.const
        )
        next_off = chain.next_off
        ss = server.stripe_size
        effects = chain.effects
        mark = len(effects)
        eff = effects.append
        k = len(ns)

        if kind == "read":
            total = ns[0] if k == 1 else sum(ns)
            if early:
                eff((t0, _E_RCNT, k, total))
            else:
                server.reads += k
                server.bytes_read += total
            self.hits = hits = []
            self.misses = misses = []
            back_base = net.base_cost(ip, cp)
            cache = server.cache
            lookup = cache.lookup
            chs = dp.chs
            cpu_t = t0 if t0 > chain.cpu_free else chain.cpu_free
            ch_t = t0 if t0 > chain.ch_free else chain.ch_free
            t_client = t0
            resolve_t = t0
            for j in range(k):
                doff = doffs[j]
                n = ns[j]
                key = (file_id, doff // ss) if cached else None
                d = 0.0 if ip == cp else back_base + n / bw
                if key is not None and lookup(key):
                    u_g = cpu_t
                    u_c = u_g + chs
                    done = u_c + d
                    eff((u_c, _E_HDONE, n))
                    hits.append((u_g, u_c, done, n, d))
                    cpu_t = u_c
                    if u_c > resolve_t:
                        resolve_t = u_c
                else:
                    if next_off is not None and doff == next_off:
                        position = seq_overhead
                    else:
                        position = positioning
                    dur = req_overhead + position + n / rate
                    g = ch_t
                    c = g + dur
                    done = c + d
                    next_off = doff + n
                    eff((g, _E_DISK, doff, n, dur))
                    eff((c, _E_RDONE, t0, g, n, key))
                    misses.append((g, c, done, n, doff, key, d))
                    ch_t = c
                    if c > resolve_t:
                        resolve_t = c
                if done > t_client:
                    t_client = done
            if self.misses:
                chain.ch_free = ch_t
                chain.ch_arrival = t0
                chain.next_off = next_off
            if self.hits:
                chain.cpu_free = cpu_t
                chain.cpu_arrival = t0
        elif kind == "write_through":
            total = ns[0] if k == 1 else sum(ns)
            if early:
                eff((t0, _E_SEND, k, total))
            else:
                net.count_sends(k, total)
            self.items = items = []
            out_base = net.base_cost(cp, ip)
            arrive = [
                t0 + (0.0 if cp == ip else out_base + ns[j] / bw)
                for j in range(k)
            ]
            if k == 1:
                order = (0,)
            else:
                order = sorted(range(k), key=arrive.__getitem__)
            ch_t = t0 if t0 > chain.ch_free else chain.ch_free
            for j in order:
                doff = doffs[j]
                n = ns[j]
                a = arrive[j]
                key = (file_id, doff // ss) if cached else None
                if next_off is not None and doff == next_off:
                    position = seq_overhead
                else:
                    position = positioning
                    if n < ss:
                        position += rmw_extra
                dur = req_overhead + position + n / rate
                g = a if a > ch_t else ch_t
                c = g + dur
                next_off = doff + n
                eff((a, _E_WCNT, n))
                eff((g, _E_DISK, doff, n, dur))
                eff((c, _E_WDONE, a, g, key))
                items.append((a, g, c, n, doff, key))
                ch_t = c
            t_client = resolve_t = ch_t
            chain.ch_free = ch_t
            chain.ch_arrival = arrive[order[-1]]
            chain.next_off = next_off
        else:  # write_behind (cached — uncached was normalized away)
            if early:
                eff((t0, _E_SEND, k, ns[0] if k == 1 else sum(ns)))
            else:
                net.count_sends(k, ns[0] if k == 1 else sum(ns))
            self.items = items = []
            out_base = net.base_cost(cp, ip)
            was = dp.was
            ccr = dp.ccr
            arrive = [
                t0 + (0.0 if cp == ip else out_base + ns[j] / bw)
                for j in range(k)
            ]
            if k == 1:
                order = (0,)
            else:
                order = sorted(range(k), key=arrive.__getitem__)
            cpu_t = t0 if t0 > chain.cpu_free else chain.cpu_free
            acks = []
            for j in order:
                n = ns[j]
                a = arrive[j]
                ack_dur = was + n / ccr
                cg = a if a > cpu_t else cpu_t
                cc = cg + ack_dur
                key = (file_id, doffs[j] // ss)
                eff((a, _E_WCNT, n))
                eff((cc, _E_ACK, key))
                acks.append((j, a, cg, cc, key, ack_dur))
                cpu_t = cc
            t_client = cpu_t
            ch_t = t0 if t0 > chain.ch_free else chain.ch_free
            for j, a, cg, cc, key, ack_dur in acks:
                doff = doffs[j]
                n = ns[j]
                if next_off is not None and doff == next_off:
                    position = seq_overhead
                else:
                    position = positioning
                    if n < ss:
                        position += rmw_extra
                dur = req_overhead + position + n / rate
                dg = cc if cc > ch_t else ch_t
                dc = dg + dur
                next_off = doff + n
                eff((dg, _E_DISK, doff, n, dur))
                eff((dc, _E_DRAIN, cc, dg, key))
                items.append(
                    (a, cg, cc, dg, dc, n, doff, key, ack_dur)
                )
                chain.wb_drains.append(dc)
                ch_t = dc
            resolve_t = ch_t
            chain.cpu_free = cpu_t
            chain.cpu_arrival = arrive[order[-1]]
            chain.ch_free = ch_t
            # Drains enter the channel queue as their acks complete;
            # the last ack time bounds every planned channel arrival.
            chain.ch_arrival = cpu_t
            chain.next_off = next_off

        # Seal the emitted effect range: update the chain's next-due
        # memo and flag the pending tail dirty when the new effects are
        # not already in global time order — multi-piece streams
        # interleave internally, and a stacked span's effects usually
        # start before its predecessors' last one.
        first_t = effects[mark][0]
        if k > 1:
            for e in effects[mark + 1:]:
                if e[0] < first_t:
                    first_t = e[0]
            chain.dirty = True
        elif (not chain.dirty and mark > chain.cursor
                and first_t < effects[mark - 1][0]):
            chain.dirty = True
        if first_t < chain.next_due:
            chain.next_due = first_t
        chain.add(self)
        server.spans_planned += 1
        if kind == "write_behind":
            # Drains outlast the ack the client waits on: post a
            # separate resolve event.  Resolve before the client
            # trigger so same-timestamp final effects (and the span's
            # clearing) precede the client's resumption, matching the
            # legacy completion order.
            resolve = env.at(resolve_t)
            resolve.callbacks.append(self._resolve)
        # The client resumes through a trigger event at the planned
        # completion instant; a revoked span's abandoned trigger
        # no-ops through the ``revoked`` guard.
        self.t_done = t_client
        trigger = env.at(t_client)
        trigger.callbacks.append(
            self._client_trigger if kind == "write_behind"
            else self._finish
        )

    # -- natural completion ---------------------------------------------
    def _resolve(self, _ev) -> None:
        if self.revoked:
            return
        self.chain.apply_until(self.env.now)
        self.chain.discard(self)
        self.dp._span_outcome(self.server, 0)

    def _client_trigger(self, _ev) -> None:
        if self.revoked:
            return
        ev = self.client_event
        if not ev.triggered:
            ev.succeed()

    def _finish(self, _ev) -> None:
        """Combined resolve + client trigger (read / write-through)."""
        if self.revoked:
            return
        self.chain.apply_until(self.env.now)
        self.chain.discard(self)
        self.dp._span_outcome(self.server, 0)
        ev = self.client_event
        if not ev.triggered:
            ev.succeed()

    # -- revocation ------------------------------------------------------
    def _reconstitute(self, tau: float) -> None:
        """Rebuild this span's unfinished pieces as real queue state.

        Called by :meth:`PlanChain.settle` (which has already applied
        the merged effects up to ``tau`` and marked the whole chain
        revoked) in chain order, so the resource requests issued here
        queue behind those of earlier spans exactly as planned.
        """
        if tau < self.strict:
            # A batch-planned span still has pending network arrivals a
            # foreign request could overtake; the batching client has
            # already baked the planned completion into its timeline, so
            # exact replay is impossible.  Batch submission is only
            # offered under the exclusive-window contract (see
            # PFSNodeClient.write_batch) — loud failure beats silent
            # divergence from the legacy path.
            raise PFSError(
                "batch-planned span revoked before its arrivals "
                f"completed (t={tau:.9f} < {self.strict:.9f}, "
                f"io_node={self.server.ionode.index}): batched "
                "submission requires an exclusive window — no foreign "
                "traffic may reach a batched server mid-batch"
            )
        kind = self.kind
        if kind == "read":
            self._revoke_read(tau)
        elif kind == "write_through":
            self._revoke_wt(tau)
        else:
            self._revoke_wb(tau)
        if self.pending == 0 and not self.client_event.triggered:
            self.client_event.succeed()

    def _done_one(self, _ev=None) -> None:
        self.pending -= 1
        if self.pending == 0:
            ev = self.client_event
            if not ev.triggered:
                ev.succeed()

    # -- read reconstitution --------------------------------------------
    def _revoke_read(self, tau: float) -> None:
        env = self.env
        server = self.server
        if tau < self.t0:
            # Early-planned span revoked before its request even
            # reached the server: no effect (the arrival-time counter
            # bump included) has been applied, every piece is wholly
            # future.  Replay each from its arrival instant exactly as
            # a legacy piece process would (early plans are uncached,
            # so there are no hits).
            for _g, _c, _done, n, doff, key, _d in self.misses:
                self.pending += 1
                env.process(self._recon_read_future(n, doff, key))
            return
        cpu = server._cpu
        channel = server.ionode._channel
        for u_g, u_c, done, n, d in self.hits:
            if u_c <= tau:
                if done > tau:
                    self.pending += 1
                    waiter = env.at(done)
                    waiter.callbacks.append(self._done_one)
            elif u_g <= tau:
                req = cpu.request()
                self.pending += 1
                env.process(self._recon_hit_hold(req, u_c, done, n))
            else:
                req = cpu.request()
                self.pending += 1
                env.process(self._recon_hit_queued(req, n, d))
        for g, c, done, n, doff, key, d in self.misses:
            if c <= tau:
                if done > tau:
                    self.pending += 1
                    waiter = env.at(done)
                    waiter.callbacks.append(self._done_one)
            elif g <= tau:
                req = channel.request()
                self.pending += 1
                env.process(self._recon_miss_hold(req, g, c, done, n, key))
            else:
                req = channel.request()
                self.pending += 1
                env.process(self._recon_miss_queued(req, n, doff, key))

    def _recon_hit_hold(self, req, u_c, done, n) -> Generator:
        env = self.env
        yield req
        yield env.at(u_c)
        self.server._cpu.release(req)
        net = self.dp.net
        net.messages += 1
        net.bytes_moved += n
        if done > u_c:
            yield env.at(done)
        self._done_one()

    def _recon_hit_queued(self, req, n, d) -> Generator:
        env = self.env
        yield req
        yield env.timeout(self.dp.costs.cache_hit_service)
        self.server._cpu.release(req)
        net = self.dp.net
        net.messages += 1
        net.bytes_moved += n
        if d > 0:
            yield env.timeout(d)
        self._done_one()

    def _recon_miss_hold(self, req, g, c, done, n, key) -> Generator:
        env = self.env
        server = self.server
        yield req
        yield env.at(c)
        ion = server.ionode
        ion._channel.release(req)
        ion.completed += 1
        ion.total_queue_delay += g - self.t0
        ion.total_service += c - g
        if key is not None:
            server.cache.insert(key, dirty=False)
        net = self.dp.net
        net.messages += 1
        net.bytes_moved += n
        if done > c:
            yield env.at(done)
        self._done_one()

    def _recon_read_future(self, n, doff, key) -> Generator:
        # Mirrors the legacy read piece from its arrival at t0: settle
        # whatever plan formed meanwhile, bump the arrival counters,
        # then run the disk access and the reply send for real.
        env = self.env
        server = self.server
        yield env.at(self.t0)
        server.settle()
        server.reads += 1
        server.bytes_read += n
        req = server.ionode._channel.request()
        yield from self._recon_miss_queued(req, n, doff, key)

    def _recon_miss_queued(self, req, n, doff, key) -> Generator:
        env = self.env
        server = self.server
        ion = server.ionode
        yield req
        g = env.now
        service = ion.disk.service_time(doff, n)
        yield env.timeout(service)
        ion._channel.release(req)
        ion.completed += 1
        ion.total_queue_delay += g - self.t0
        ion.total_service += env.now - g
        if key is not None:
            server.cache.insert(key, dirty=False)
        yield from self.dp.net.send(self.ip, self.cp, n)
        self._done_one()

    # -- write-through reconstitution -----------------------------------
    def _revoke_wt(self, tau: float) -> None:
        env = self.env
        if tau < self.t0:
            # Early-planned span: the planned send-counter effect at t0
            # never applied; restore it at the instant the legacy sends
            # would have started (every piece below lands in the
            # wholly-future branch).
            k = len(self.items)
            total = sum(item[3] for item in self.items)
            counts = env.at(self.t0)
            counts.callbacks.append(
                lambda _ev: self.dp.net.count_sends(k, total)
            )
        channel = self.server.ionode._channel
        for a, g, c, n, doff, key in self.items:
            if c <= tau:
                continue
            self.pending += 1
            if g <= tau:
                req = channel.request()
                env.process(self._recon_wt_hold(req, a, g, c, key))
            elif a <= tau:
                req = channel.request()
                env.process(self._recon_wt_queued(req, a, n, doff, key))
            else:
                env.process(self._recon_wt_future(a, n, doff, key))

    def _recon_wt_hold(self, req, a, g, c, key) -> Generator:
        env = self.env
        server = self.server
        yield req
        yield env.at(c)
        ion = server.ionode
        ion._channel.release(req)
        ion.completed += 1
        ion.total_queue_delay += g - a
        ion.total_service += c - g
        if key is not None:
            server.cache.insert(key, dirty=False)
        self._done_one()

    def _recon_wt_queued(self, req, a, n, doff, key) -> Generator:
        env = self.env
        server = self.server
        ion = server.ionode
        yield req
        g = env.now
        service = ion.disk.service_time(
            doff, n, rmw=n < server.stripe_size
        )
        yield env.timeout(service)
        ion._channel.release(req)
        ion.completed += 1
        ion.total_queue_delay += g - a
        ion.total_service += env.now - g
        if key is not None:
            server.cache.insert(key, dirty=False)
        self._done_one()

    def _recon_wt_future(self, a, n, doff, key) -> Generator:
        env = self.env
        server = self.server
        yield env.at(a)
        server.settle()
        server.writes += 1
        server.bytes_written += n
        req = server.ionode._channel.request()
        yield from self._recon_wt_queued(req, a, n, doff, key)

    # -- write-behind reconstitution ------------------------------------
    def _revoke_wb(self, tau: float) -> None:
        env = self.env
        server = self.server
        cpu = server._cpu
        channel = server.ionode._channel
        slots = server._wb_slots
        for a, cg, cc, dg, dc, n, doff, key, ack_dur in self.items:
            if dc <= tau:
                continue
            if cc <= tau:
                # Acked (client done); only the drain is outstanding.
                sreq = slots.request()
                creq = channel.request()
                if dg <= tau:
                    env.process(
                        self._recon_drain_hold(creq, cc, dg, dc, key, sreq)
                    )
                else:
                    env.process(
                        self._recon_drain_queued(creq, cc, n, doff, key, sreq)
                    )
            elif cg <= tau:
                sreq = slots.request()
                preq = cpu.request()
                self.pending += 1
                env.process(self._recon_ack_hold(preq, cc, n, doff, key, sreq))
            elif a <= tau:
                sreq = slots.request()
                preq = cpu.request()
                self.pending += 1
                env.process(
                    self._recon_ack_queued(preq, n, doff, key, ack_dur, sreq)
                )
            else:
                self.pending += 1
                env.process(
                    self._recon_wb_future(a, n, doff, key, ack_dur)
                )

    def _recon_drain_hold(self, creq, cc, dg, dc, key, sreq) -> Generator:
        env = self.env
        server = self.server
        yield creq
        yield env.at(dc)
        ion = server.ionode
        ion._channel.release(creq)
        ion.completed += 1
        ion.total_queue_delay += dg - cc
        ion.total_service += dc - dg
        server.cache.mark_clean(key)
        server._wb_slots.release(sreq)

    def _recon_drain_queued(self, creq, issued, n, doff, key, sreq) -> Generator:
        env = self.env
        server = self.server
        ion = server.ionode
        yield creq
        g = env.now
        service = ion.disk.service_time(
            doff, n, rmw=n < server.stripe_size
        )
        yield env.timeout(service)
        ion._channel.release(creq)
        ion.completed += 1
        ion.total_queue_delay += g - issued
        ion.total_service += env.now - g
        server.cache.mark_clean(key)
        server._wb_slots.release(sreq)

    def _recon_drain_fresh(self, issued, n, doff, key, sreq) -> Generator:
        # Mirrors the legacy _drain: the channel request happens at the
        # process's Initialize, going through settle like a real submit.
        server = self.server
        server.settle()
        creq = server.ionode._channel.request()
        yield from self._recon_drain_queued(creq, issued, n, doff, key, sreq)

    def _recon_ack_hold(self, preq, cc, n, doff, key, sreq) -> Generator:
        env = self.env
        server = self.server
        yield preq
        yield env.at(cc)
        server._cpu.release(preq)
        server.cache.insert(key, dirty=True)
        env.process(
            self._recon_drain_fresh(cc, n, doff, key, sreq), name="wb-drain"
        )
        self._done_one()

    def _recon_ack_queued(self, preq, n, doff, key, ack_dur, sreq) -> Generator:
        env = self.env
        server = self.server
        yield preq
        yield env.timeout(ack_dur)
        server._cpu.release(preq)
        server.cache.insert(key, dirty=True)
        env.process(
            self._recon_drain_fresh(env.now, n, doff, key, sreq),
            name="wb-drain",
        )
        self._done_one()

    def _recon_wb_future(self, a, n, doff, key, ack_dur) -> Generator:
        env = self.env
        server = self.server
        yield env.at(a)
        server.settle()
        server.writes += 1
        server.bytes_written += n
        sreq = server._wb_slots.request()
        yield sreq
        preq = server._cpu.request()
        yield from self._recon_ack_queued(preq, n, doff, key, ack_dur, sreq)


class SanitizedPlanChain(PlanChain):
    """``REPRO_SANITIZE`` variant of :class:`PlanChain`.

    Checks the two properties the merged-effect design stakes byte
    identity on (see :mod:`repro.sanitize`):

    - **effect-list monotonicity** — effects are applied in
      non-decreasing timestamp order, across calls, and never past the
      requested horizon; the ``next_due`` memo is never stale-high
      (an effect already due must not survive the O(1) probe);
    - **applied-prefix cursor validity** — the cursor stays within the
      effect list through application, pruning, and settlement, and
      settlement leaves no residual plan state behind.

    Selected once per :class:`DataPath` construction; checks only read
    state, so sanitized runs stay byte-identical.
    """

    __slots__ = ("_san_last",)

    def __init__(self, dp: "DataPath", server: "StripeServer") -> None:
        PlanChain.__init__(self, dp, server)
        #: Timestamp of the last applied effect, across apply calls.
        self._san_last = -_INF

    def apply_until(self, tau: float) -> None:
        effects = self.effects
        cursor = self.cursor
        if not 0 <= cursor <= len(effects):
            sanitize.fail(
                f"PlanChain cursor {cursor} outside effect list of "
                f"length {len(effects)} "
                f"(io_node={self.server.ionode.index})"
            )
        if tau < self.next_due:
            for e in effects[cursor:]:
                if e[0] <= tau:
                    sanitize.fail(
                        f"PlanChain.next_due memo stale-high: effect at "
                        f"t={e[0]!r} still unapplied behind "
                        f"next_due={self.next_due!r} (tau={tau!r}, "
                        f"io_node={self.server.ionode.index})"
                    )
            return
        pre_len = len(effects)
        PlanChain.apply_until(self, tau)
        effects = self.effects
        start = cursor - (pre_len - len(effects))
        last = self._san_last
        for e in effects[start:self.cursor]:
            t = e[0]
            if t < last:
                sanitize.fail(
                    f"PlanChain applied effects out of order: t={t!r} "
                    f"after t={last!r} "
                    f"(io_node={self.server.ionode.index})"
                )
            if t > tau:
                sanitize.fail(
                    f"PlanChain applied an effect at t={t!r} past the "
                    f"requested horizon tau={tau!r} "
                    f"(io_node={self.server.ionode.index})"
                )
            last = t
        self._san_last = last
        if not 0 <= self.cursor <= len(effects):
            sanitize.fail(
                f"PlanChain cursor {self.cursor} left outside effect "
                f"list of length {len(effects)} after application "
                f"(io_node={self.server.ionode.index})"
            )

    def settle(self) -> None:
        PlanChain.settle(self)
        if self.spans or self.effects or self.cursor != 0:
            sanitize.fail(
                "PlanChain.settle left residual plan state: "
                f"{len(self.spans)} spans, {len(self.effects)} effects, "
                f"cursor={self.cursor} "
                f"(io_node={self.server.ionode.index})"
            )
        if self.server.plan is self:
            sanitize.fail(
                "PlanChain.settle left itself attached to the server "
                f"(io_node={self.server.ionode.index})"
            )


class SanitizedFastSpan(FastSpan):
    """``REPRO_SANITIZE`` variant of :class:`FastSpan`.

    Checks the arrival-threshold and revocation-state consistency the
    plan/revoke protocol relies on (see :mod:`repro.sanitize`):

    - a planned completion never precedes the span's request arrival
      (``t_done >= t0``);
    - stacking never plans a resource arrival earlier than the chain
      tail (the append-order guard's promise — violating it reorders
      FIFO grants);
    - reconstitution only runs on spans settlement has revoked and
      already detached from their chain;
    - a span's completion dispatches exactly at its planned instant
      (``t_done``).
    """

    __slots__ = ()

    def __init__(
        self, dp, client, server, file_id, doffs, ns, kind, cached,
        chain, client_event=None, t0=None,
    ) -> None:
        ch_arrival = chain.ch_arrival
        cpu_arrival = chain.cpu_arrival
        FastSpan.__init__(
            self, dp, client, server, file_id, doffs, ns, kind,
            cached, chain, client_event, t0,
        )
        if chain.ch_arrival < ch_arrival or chain.cpu_arrival < cpu_arrival:
            sanitize.fail(
                "append-order guard violated: span planned a resource "
                f"arrival (ch={chain.ch_arrival!r}, "
                f"cpu={chain.cpu_arrival!r}) earlier than the chain "
                f"tail (ch={ch_arrival!r}, cpu={cpu_arrival!r}) on "
                f"io_node={server.ionode.index}"
            )
        if self.t_done < self.t0:
            sanitize.fail(
                f"FastSpan planned completion t={self.t_done!r} "
                f"precedes its request arrival t0={self.t0!r} "
                f"(io_node={server.ionode.index})"
            )

    def _reconstitute(self, tau: float) -> None:
        if not self.revoked:
            sanitize.fail(
                "FastSpan._reconstitute on a live span: settlement "
                "must mark the whole chain revoked before rebuilding "
                f"queue state (io_node={self.server.ionode.index})"
            )
        for s in self.chain.spans:
            if s is self:
                sanitize.fail(
                    "FastSpan._reconstitute while still a member of "
                    "its chain: settlement must detach the chain "
                    f"first (io_node={self.server.ionode.index})"
                )
        FastSpan._reconstitute(self, tau)

    def _finish(self, _ev) -> None:
        if not self.revoked and self.env.now != self.t_done:
            sanitize.fail(
                f"FastSpan completion dispatched at t={self.env.now!r} "
                f"but was planned for t_done={self.t_done!r} "
                f"(io_node={self.server.ionode.index})"
            )
        FastSpan._finish(self, _ev)
