"""Stripe servers: the PFS daemon on each I/O node.

A :class:`StripeServer` fronts one I/O node's disk with a block cache
and implements the two write policies the access modes need:

- **write-through** — the client is acknowledged only after the disk
  commit (atomic modes: M_UNIX);
- **write-behind** — the client is acknowledged once the data is in
  the server cache; a background drain process commits it
  (non-atomic modes: M_ASYNC and friends).

Requests from clients arrive as stripe *pieces* (see
:mod:`repro.pfs.striping`); pieces for different servers proceed in
parallel, which is where striped bandwidth comes from.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.errors import ServerUnavailableError
from repro.machine.ionode import IONode
from repro.pfs.cache import BlockCache
from repro.pfs.costs import PFSCostModel
from repro.pfs.striping import StripePiece
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Engine

#: Sentinel returned by :meth:`StripeServer.plan_state` when every
#: plannable resource is empty and unmonitored but no chain is active:
#: the batched data path may start a fresh plan chain here.
PLAN_IDLE = object()


class StripeServer:
    """The PFS stripe daemon for one I/O node."""

    def __init__(
        self,
        env: "Engine",
        ionode: IONode,
        costs: PFSCostModel,
        stripe_size: int,
        cache_blocks: int = 1024,
        write_behind_slots: int = 256,
    ) -> None:
        self.env = env
        self.ionode = ionode
        self.costs = costs
        self.stripe_size = stripe_size
        self.cache = BlockCache(cache_blocks)
        #: Backpressure for write-behind: each cached-but-undrained
        #: write holds a slot; when the cache is saturated, new
        #: write-behind acks block until drains complete.
        self._wb_slots = Resource(env, capacity=write_behind_slots)
        #: The server daemon's CPU: cache lookups and write-behind
        #: acknowledgements serialize here (one i860 per I/O node).
        self._cpu = Resource(env, capacity=1)
        #: Counters for reports.
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        #: Active batched-datapath plan chain (see repro.pfs.datapath),
        #: if this server's queues are currently being fast-forwarded
        #: analytically.  Any event-stepped entry below settles it
        #: first, so the chain is never observable from the outside.
        self.plan = None
        #: Span accounting for telemetry: spans planned on this server
        #: and spans folded back into real queue state by revocation.
        self.spans_planned = 0
        self.span_revocations = 0
        #: Per-node crash state installed by the fault engine
        #: (repro.faults); ``None`` means no fault engine attached.
        self.faults = None
        #: Write-behind buffers destroyed by a node crash before their
        #: drain could commit (policy "fail").
        self.wb_lost = 0
        self.wb_lost_bytes = 0
        #: Write-behind drain accounting: completed drains and the
        #: total ack-to-commit latency they accumulated.  The batched
        #: data path mirrors these when it fast-forwards drains.
        self.wb_drained = 0
        self.wb_drain_wait = 0.0
        ionode.settle_hook = self.settle

    # -- batched-datapath interop ------------------------------------------
    def settle(self) -> None:
        """Fold any active plan chain back into real queue state."""
        plan = self.plan
        if plan is not None:
            plan.settle()

    def plan_state(self):
        """Queue-state snapshot for the batched data path.

        Returns ``None`` when any plannable resource is busy, queued,
        or monitored (timings would depend on event interleaving a plan
        cannot replay); the active :class:`~repro.pfs.datapath.PlanChain`
        when one exists (its tail state *is* the queue state — real
        resources are untouched while a chain is active); or
        :data:`PLAN_IDLE` when the server is genuinely idle.
        """
        ch = self.ionode._channel
        if ch.users or ch.queue or ch.monitor is not None:
            return None
        cpu = self._cpu
        if cpu.users or cpu.queue or cpu.monitor is not None:
            return None
        wb = self._wb_slots
        if wb.users or wb.queue or wb.monitor is not None:
            return None
        plan = self.plan
        return plan if plan is not None else PLAN_IDLE

    # -- helpers -----------------------------------------------------------
    def _block_key(self, piece: StripePiece, file_id: int):
        return (file_id, piece.disk_offset // self.stripe_size)

    # -- reads ---------------------------------------------------------------
    def read_piece(
        self, node: int, file_id: int, piece: StripePiece, cached: bool = True
    ) -> Generator:
        """Process step: service one read piece.

        ``cached=False`` bypasses the block cache entirely (buffering
        disabled on the handle): every call is a real disk access.
        """
        fs = self.faults
        if fs is not None and fs.down:
            yield from fs.gate()
        self.settle()
        self.reads += 1
        self.bytes_read += piece.nbytes
        if cached and self.cache.lookup(self._block_key(piece, file_id)):
            grant = self._cpu.request()
            yield grant
            yield self.env.timeout(self.costs.cache_hit_service)
            self._cpu.release(grant)
            return
        yield from self.ionode.submit(
            node, "read", piece.disk_offset, piece.nbytes
        )
        if cached:
            self.cache.insert(self._block_key(piece, file_id), dirty=False)

    # -- writes ----------------------------------------------------------------
    def _is_substripe(self, piece: StripePiece) -> bool:
        return piece.nbytes < self.stripe_size

    def write_through(
        self, node: int, file_id: int, piece: StripePiece, cached: bool = True
    ) -> Generator:
        """Process step: synchronous write (disk commit before ack).

        Sub-stripe pieces carry the RAID-3 read-modify-write flag: if
        the disk cannot stream them they pay the parity penalty — the
        reason scattered small writes are so much slower than the
        sequential small writes a single coordinator issues.
        """
        fs = self.faults
        if fs is not None and fs.down:
            yield from fs.gate()
        self.settle()
        self.writes += 1
        self.bytes_written += piece.nbytes
        yield from self.ionode.submit(
            node, "write", piece.disk_offset, piece.nbytes,
            rmw=self._is_substripe(piece),
        )
        if cached:
            self.cache.insert(self._block_key(piece, file_id), dirty=False)

    def write_behind(
        self, node: int, file_id: int, piece: StripePiece, cached: bool = True
    ) -> Generator:
        """Process step: cache-acknowledged write with background drain.

        With ``cached=False`` (buffering disabled) the write degrades
        to write-through.
        """
        if not cached:
            yield from self.write_through(node, file_id, piece, cached=False)
            return
        fs = self.faults
        if fs is not None and fs.down:
            yield from fs.gate()
        self.settle()
        self.writes += 1
        self.bytes_written += piece.nbytes
        slot = self._wb_slots.request()
        yield slot
        # Cache-copy acknowledgement: fixed service plus a copy cost
        # that keeps multi-hundred-KB acks from being free; serialized
        # on the server daemon's CPU.
        grant = self._cpu.request()
        yield grant
        yield self.env.timeout(
            self.costs.write_ack_service
            + piece.nbytes / self.costs.cache_copy_rate
        )
        self._cpu.release(grant)
        key = self._block_key(piece, file_id)
        self.cache.insert(key, dirty=True)
        # Background drain: commits to disk, then frees the slot and
        # marks the block clean.  The only modeled failure is a node
        # crash with policy "fail", which destroys the buffered data.
        self.env.process(self._drain(node, key, piece, slot), name="wb-drain")

    def _drain(self, node: int, key, piece: StripePiece, slot) -> Generator:
        acked_at = self.env.now
        try:
            yield from self.ionode.submit(
                node, "write", piece.disk_offset, piece.nbytes,
                rmw=self._is_substripe(piece),
            )
        except ServerUnavailableError:
            # The crash wiped server memory: the acknowledged data is
            # gone.  Account the loss exactly and free the slot so the
            # (restarted) server is not permanently throttled.
            self.wb_lost += 1
            self.wb_lost_bytes += piece.nbytes
            self.cache.invalidate(key)
            self._wb_slots.release(slot)
            return
        self.cache.mark_clean(key)
        self._wb_slots.release(slot)
        self.wb_drained += 1
        self.wb_drain_wait += self.env.now - acked_at

    @property
    def pending_write_behind(self) -> int:
        """Write-behind slots currently held (cached, undrained)."""
        return self._wb_slots.count

    def __repr__(self) -> str:
        return (
            f"<StripeServer io={self.ionode.index} reads={self.reads} "
            f"writes={self.writes}>"
        )
