"""The PFS client library: the API application models call.

:class:`PFS` assembles the file system over a machine; each
application rank obtains a :class:`PFSNodeClient` whose methods are
generator *process steps*::

    client = pfs.client(rank)
    handle = yield from client.open("/pfs/input.dat")
    data = yield from client.read(handle, 4096)
    yield from client.close(handle)

Every call is traced (time, duration, size, operation, node, file,
mode, phase) through the attached Pablo tracer — durations include all
queueing, exactly as the paper's instrumentation measured them.

Mode dispatch (see DESIGN.md):

===========  ================================================================
mode         behaviour
===========  ================================================================
M_UNIX       shared files serialize every operation through the per-file
             atomicity token; writes are write-through; sole-opener files
             skip the token.
M_RECORD     fixed-size requests, issued in node order (turn taker), data
             path parallel across stripe servers, write-behind.
M_ASYNC      no token, private pointers, write-behind; seeks are local.
M_GLOBAL     collective: all group members issue identical requests; one
             physical I/O plus a broadcast.
M_SYNC       shared pointer, node-ordered, variable sizes, write-behind.
M_LOG        shared pointer, first-come-first-served appends.
===========  ================================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Sequence

from repro import flags
from repro.errors import (
    AccessModeError,
    MessageLostError,
    PFSError,
    RetryExhaustedError,
    ServerUnavailableError,
)
from repro.machine.paragon import ParagonXPS
from repro.pablo.records import IOOp
from repro.pfs.collective import CollectiveRegistry
from repro.pfs.costs import PFSCostModel
from repro.pfs.file import Extent, SharedFileState
from repro.pfs.handle import FileHandle
from repro.pfs.modes import AccessMode
from repro.pfs.server import StripeServer
from repro.sim.events import Event
from repro.sim.resources import PriorityResource

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Engine

#: Atomicity-token scheduling classes: data operations preempt queued
#: pointer operations (see SharedFileState.token).
_DATA_PRIORITY = 0
_SEEK_PRIORITY = 1

#: Metadata-node scheduling classes: lightweight closes preempt the
#: open storms that dominate the unoptimized code versions.
_CLOSE_PRIORITY = 0
_OPEN_PRIORITY = 1


def _fast_app_default() -> bool:
    """App-layer batched submission (REPRO_FAST_APP, default on)."""
    return flags.fast_app()


class PFS:
    """One Intel PFS instance over a simulated Paragon.

    Parameters
    ----------
    env, machine:
        Simulation engine and the machine the file system runs on.
    costs:
        Service-time constants (defaults to the calibrated model).
    tracer:
        Optional Pablo tracer; must expose ``record_fields(...)``.
    cache_blocks:
        Stripe-server cache capacity, in stripe-sized blocks.
    """

    def __init__(
        self,
        env: "Engine",
        machine: ParagonXPS,
        costs: Optional[PFSCostModel] = None,
        tracer: Optional[object] = None,
        cache_blocks: int = 96,
        write_behind_slots: int = 256,
    ) -> None:
        from repro.pfs.directory import PFSNamespace

        self.env = env
        self.machine = machine
        self.costs = costs or PFSCostModel()
        self.costs.validate()
        self.tracer = tracer
        self.stripe_size = machine.config.stripe_size
        self.namespace = PFSNamespace(
            env, self.stripe_size, machine.config.n_io_nodes
        )
        self.servers: List[StripeServer] = [
            StripeServer(
                env, ion, self.costs, self.stripe_size,
                cache_blocks=cache_blocks,
                write_behind_slots=write_behind_slots,
            )
            for ion in machine.io_nodes
        ]
        #: The single PFS metadata service node; open/close/iomode
        #: serialize here (closes with priority over opens).
        self.metadata = PriorityResource(env, capacity=1)
        self.registry = CollectiveRegistry(env)
        self._clients: Dict[int, "PFSNodeClient"] = {}
        #: Fault engine (repro.faults), installed by the engine itself;
        #: ``None`` keeps every transfer on the exact healthy-run path.
        self.faults = None
        #: Batched data path (REPRO_FAST_DATAPATH, default on); None
        #: means every transfer takes the legacy per-piece path.
        from repro.pfs.datapath import DataPath, _fast_datapath_default

        self.datapath: Optional[DataPath] = (
            DataPath(self) if _fast_datapath_default() else None
        )
        #: App-layer batch submission (REPRO_FAST_APP, default on):
        #: read_batch/write_batch issue a whole request schedule in one
        #: client call.  Off, they degrade to exact per-request loops.
        self.fast_app = _fast_app_default()
        #: Batch-coverage counters (surfaced by telemetry).
        self.app_batches_submitted = 0
        self.app_batch_bytes = 0

    def client(self, rank: int) -> "PFSNodeClient":
        """The (cached) client library instance for ``rank``."""
        cli = self._clients.get(rank)
        if cli is None:
            cli = PFSNodeClient(self, rank)
            self._clients[rank] = cli
        return cli

    def server_for(self, io_node: int) -> StripeServer:
        return self.servers[io_node]


class PFSNodeClient:
    """The PFS client library on one compute node."""

    def __init__(self, pfs: PFS, rank: int) -> None:
        self.pfs = pfs
        self.env = pfs.env
        self.rank = rank
        node = pfs.machine.compute_nodes[rank]
        self.mesh_position = node.mesh_position
        #: Application phase label stamped onto trace events.
        self.phase = ""

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    def _trace(
        self,
        op: IOOp,
        path: str,
        start: float,
        nbytes: int = 0,
        offset: int = -1,
        mode: str = "",
    ) -> None:
        tracer = self.pfs.tracer
        if tracer is None:
            return
        tracer.record_fields(
            self.rank,
            op,
            path,
            start,
            self.env.now - start,
            nbytes,
            offset,
            mode,
            self.phase,
        )

    # ------------------------------------------------------------------
    # metadata operations
    # ------------------------------------------------------------------
    def open(
        self, path: str, buffered: bool = True
    ) -> Generator[object, object, FileHandle]:
        """Open (creating if needed); serializes at the metadata node."""
        start = self.env.now
        grant = self.pfs.metadata.request(priority=_OPEN_PRIORITY)
        yield grant
        yield self.env.timeout(self.pfs.costs.open_service)
        state = self.pfs.namespace.lookup_or_create(path)
        state.add_opener(self.rank)
        self.pfs.metadata.release(grant)
        handle = FileHandle(
            state, self.rank, buffered=buffered,
            buffer_size=self.pfs.stripe_size,
        )
        self._trace(IOOp.OPEN, path, start, mode=state.mode_str)
        return handle

    def gopen(
        self,
        path: str,
        group: Sequence[int],
        mode: Optional[AccessMode] = None,
        buffered: bool = True,
    ) -> Generator[object, object, FileHandle]:
        """Global open: one metadata operation for the whole group.

        Collective — every rank in ``group`` must call.  Optionally
        installs an access mode atomically (saving the separate,
        costly ``setiomode`` call, as the paper notes for PRISM C).
        """
        start = self.env.now
        group = sorted(group)
        if self.rank not in group:
            raise PFSError(f"rank {self.rank} not in gopen group {group}")
        leader, call = self.pfs.registry.join(
            f"gopen:{path}", self.rank, len(group), payload=tuple(group)
        )
        if leader:
            grant = self.pfs.metadata.request(priority=_OPEN_PRIORITY)
            yield grant
            yield self.env.timeout(
                self.pfs.costs.gopen_service
                + self.pfs.costs.gopen_per_node * len(group)
            )
            state = self.pfs.namespace.lookup_or_create(path)
            for r in group:
                state.add_opener(r)
            if mode is not None:
                state.set_mode(mode)
            self.pfs.metadata.release(grant)
            # Distribute the file state to the group.
            positions = [
                self.pfs.machine.compute_nodes[r].mesh_position for r in group
            ]
            yield self.env.timeout(
                self.pfs.machine.network.broadcast_time(
                    self.mesh_position, 256, positions
                )
            )
            self.pfs.registry.finish(call, state)
        else:
            state = yield call.gate.wait()
        handle = FileHandle(
            state, self.rank, buffered=buffered,
            buffer_size=self.pfs.stripe_size,
        )
        self._trace(IOOp.GOPEN, path, start, mode=state.mode_str)
        return handle

    def setiomode(
        self,
        handle: FileHandle,
        mode: AccessMode,
        group: Sequence[int],
    ) -> Generator[object, object, None]:
        """Collective mode change for ``handle``'s file."""
        handle.require_open()
        start = self.env.now
        group = sorted(group)
        state = handle.state
        leader, call = self.pfs.registry.join(
            f"iomode:{state.path}", self.rank, len(group),
            payload=(str(mode), tuple(group)),
        )
        if leader:
            grant = self.pfs.metadata.request(priority=_OPEN_PRIORITY)
            yield grant
            yield self.env.timeout(
                self.pfs.costs.iomode_service
                + self.pfs.costs.iomode_per_node * len(group)
            )
            state.set_mode(mode)
            self.pfs.metadata.release(grant)
            self.pfs.registry.finish(call)
        else:
            yield call.gate.wait()
        self._trace(IOOp.IOMODE, state.path, start, mode=str(mode))

    def close(self, handle: FileHandle) -> Generator[object, object, None]:
        """Close; serializes (briefly) at the metadata node."""
        handle.require_open()
        start = self.env.now
        grant = self.pfs.metadata.request(priority=_CLOSE_PRIORITY)
        yield grant
        yield self.env.timeout(self.pfs.costs.close_service)
        handle.state.remove_opener(self.rank)
        self.pfs.metadata.release(grant)
        handle.mark_closed()
        self._trace(IOOp.CLOSE, handle.path, start, mode=handle.state.mode_str)

    def flush(self, handle: FileHandle) -> Generator[object, object, None]:
        """Flush client and server buffers for this handle."""
        handle.require_open()
        start = self.env.now
        yield self.env.timeout(self.pfs.costs.flush_service)
        if handle.buffer is not None:
            handle.buffer.invalidate()
        self._trace(IOOp.FLUSH, handle.path, start, mode=handle.state.mode_str)

    def seek(
        self, handle: FileHandle, offset: int
    ) -> Generator[object, object, int]:
        """Position the file pointer.

        On a *shared* ``M_UNIX`` file this is a synchronous round trip
        through the atomicity token — the operation behind the
        version-B seek explosion in ESCAT (Figure 5).
        """
        handle.require_open()
        if offset < 0:
            raise PFSError(f"seek to negative offset {offset}")
        start = self.env.now
        state = handle.state
        if state.mode == AccessMode.M_UNIX and state.is_shared:
            grant = state.token.request(priority=_SEEK_PRIORITY)
            yield grant
            yield self.env.timeout(self.pfs.costs.seek_shared_service)
            state.token.release(grant)
        else:
            yield self.env.timeout(self.pfs.costs.seek_local_service)
        if state.sem.private_pointer:
            handle.offset = offset
        else:
            state.shared_offset = offset
        self._trace(
            IOOp.SEEK, handle.path, start, offset=offset,
            mode=state.mode_str,
        )
        return offset

    # ------------------------------------------------------------------
    # data operations
    # ------------------------------------------------------------------
    def read(
        self, handle: FileHandle, nbytes: int
    ) -> Generator[object, object, List[Extent]]:
        """Read ``nbytes`` at the current pointer; returns the extents
        (write tokens) covering the range, for integrity checking."""
        if not handle._open:
            handle.require_open()
        if nbytes < 0:
            raise PFSError(f"negative read size {nbytes}")
        start = self.env.now
        state = handle.state
        mode = state.mode
        mode_str = state.mode_str
        sem = state.sem

        if mode == AccessMode.M_GLOBAL:
            extents = yield from self._global_read(handle, nbytes)
        elif sem.node_ordered:
            extents = yield from self._ordered_read(handle, nbytes)
        else:
            if mode == AccessMode.M_UNIX and state.is_shared:
                # Atomicity token: held only for the validation/ordering
                # round trip; the data transfer proceeds at the stripe
                # servers afterwards.  Pointer operations (seek) hold
                # the token much longer, which is what lets seeks
                # dominate version-B ESCAT while data ops stay
                # comparatively cheap.
                grant = state.token.request(priority=_DATA_PRIORITY)
                yield grant
                yield self.env.timeout(self.pfs.costs.token_data_service)
                offset = handle.offset
                handle.offset = offset + nbytes
                state.token.release(grant)
                advance_after = False
            else:
                offset = (
                    handle.offset if sem.private_pointer
                    else state.shared_offset
                )
                if mode == AccessMode.M_LOG:
                    state.shared_offset = offset + nbytes
                advance_after = True
            buffer = handle.buffer
            if buffer is None:
                extents = yield from self._direct_read(
                    handle, offset, nbytes, cached=handle.server_cached
                )
            else:
                # Inlined _client_read: the buffer-hit loop is the most
                # frequent operation in every application, and a
                # delegation frame here is re-entered on every resume.
                env = self.env
                hit_service = self.pfs.costs.buffer_hit_service
                extents = []
                pos = offset
                rend = offset + nbytes
                while pos < rend:
                    bstart = buffer._start
                    if (
                        bstart is not None
                        and buffer._generation == state._next_token
                        and bstart <= pos < buffer._end
                    ):
                        take = min(rend, buffer._end) - pos
                        yield env.timeout(hit_service)
                        extents.extend(buffer.serve(pos, take))
                    else:
                        fetch_start, fetch_len = buffer.fetch_range(pos)
                        fext = yield from self._direct_read(
                            handle, fetch_start, fetch_len, cached=True
                        )
                        buffer.install(fetch_start, fetch_len, fext)
                        take = min(rend, fetch_start + fetch_len) - pos
                        if take <= 0:  # pragma: no cover - defensive
                            raise PFSError("buffer fetch made no progress")
                        extents.extend(buffer.serve(pos, take))
                    pos += take
            if advance_after and state.sem.private_pointer:
                handle.offset = offset + nbytes
        tracer = self.pfs.tracer
        if tracer is not None:
            tracer.record_fields(
                self.rank, IOOp.READ, handle.path, start,
                self.env.now - start, nbytes,
                (
                    handle.offset if state.sem.private_pointer
                    else state.shared_offset
                ) - nbytes,
                mode_str, self.phase,
            )
        return extents

    def write(
        self, handle: FileHandle, nbytes: int
    ) -> Generator[object, object, int]:
        """Write ``nbytes`` at the current pointer; returns the write
        token recorded in the file's extent map."""
        if not handle._open:
            handle.require_open()
        if nbytes < 0:
            raise PFSError(f"negative write size {nbytes}")
        start = self.env.now
        state = handle.state
        mode = state.mode
        mode_str = state.mode_str
        sem = state.sem
        token = state.new_token(self.rank)

        if mode == AccessMode.M_GLOBAL:
            yield from self._global_write(handle, nbytes, token)
        elif sem.node_ordered:
            yield from self._ordered_write(handle, nbytes, token)
        elif mode == AccessMode.M_UNIX and state.is_shared:
            # Token held for the ordering/validation round trip only;
            # the synchronous (write-through) disk commit happens at
            # the stripe servers after release.
            grant = state.token.request(priority=_DATA_PRIORITY)
            yield grant
            yield self.env.timeout(self.pfs.costs.token_data_service)
            offset = handle.offset
            handle.offset = offset + nbytes
            state.token.release(grant)
            yield from self._data_path(
                handle, offset, nbytes, kind="write_through"
            )
            state.record_write(offset, nbytes, token)
        else:
            if sem.private_pointer:
                offset = handle.offset
            else:
                offset = state.shared_offset
                state.shared_offset = offset + nbytes
            policy = (
                "write_through" if mode == AccessMode.M_UNIX else "write_behind"
            )
            yield from self._data_path(handle, offset, nbytes, kind=policy)
            state.record_write(offset, nbytes, token)
            if state.sem.private_pointer:
                handle.offset = offset + nbytes
        tracer = self.pfs.tracer
        if tracer is not None:
            tracer.record_fields(
                self.rank, IOOp.WRITE, handle.path, start,
                self.env.now - start, nbytes,
                (
                    handle.offset if state.sem.private_pointer
                    else state.shared_offset
                ) - nbytes,
                mode_str, self.phase,
            )
        return token

    def pread(
        self, handle: FileHandle, offset: int, nbytes: int
    ) -> Generator[object, object, List[Extent]]:
        """Positional read: like :meth:`read` at an explicit offset,
        without consulting or advancing any file pointer.

        Only valid under private-pointer, non-collective modes
        (M_UNIX, M_ASYNC); the coordination modes define their offsets
        themselves.
        """
        handle.require_open()
        self._check_positional(handle, offset, nbytes)
        start = self.env.now
        state = handle.state
        if state.mode == AccessMode.M_UNIX and state.is_shared:
            grant = state.token.request(priority=_DATA_PRIORITY)
            yield grant
            yield self.env.timeout(self.pfs.costs.token_data_service)
            state.token.release(grant)
        extents = yield from self._client_read(handle, offset, nbytes)
        self._trace(
            IOOp.READ, handle.path, start, nbytes=nbytes, offset=offset,
            mode=state.mode_str,
        )
        return extents

    def pwrite(
        self, handle: FileHandle, offset: int, nbytes: int
    ) -> Generator[object, object, int]:
        """Positional write (see :meth:`pread`); returns the token."""
        handle.require_open()
        self._check_positional(handle, offset, nbytes)
        start = self.env.now
        state = handle.state
        token = state.new_token(self.rank)
        if state.mode == AccessMode.M_UNIX and state.is_shared:
            grant = state.token.request(priority=_DATA_PRIORITY)
            yield grant
            yield self.env.timeout(self.pfs.costs.token_data_service)
            state.token.release(grant)
            yield from self._data_path(
                handle, offset, nbytes, kind="write_through"
            )
        else:
            policy = (
                "write_through" if state.mode == AccessMode.M_UNIX
                else "write_behind"
            )
            yield from self._data_path(handle, offset, nbytes, kind=policy)
        state.record_write(offset, nbytes, token)
        self._trace(
            IOOp.WRITE, handle.path, start, nbytes=nbytes, offset=offset,
            mode=state.mode_str,
        )
        return token

    @staticmethod
    def _check_positional(handle: FileHandle, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0:
            raise PFSError(f"invalid positional request ({offset}, {nbytes})")
        mode = handle.state.mode
        if mode not in (AccessMode.M_UNIX, AccessMode.M_ASYNC):
            raise AccessModeError(
                f"positional I/O is undefined under {mode}; it bypasses "
                "the mode's pointer coordination"
            )

    # ------------------------------------------------------------------
    # batched submission (REPRO_FAST_APP)
    # ------------------------------------------------------------------
    def read_batch(
        self, handle: FileHandle, sizes: Sequence[int]
    ) -> Generator[object, object, List[Extent]]:
        """Read a whole schedule of requests in one client call.

        Semantically identical to ``for n in sizes: read(handle, n)``
        — same trace rows, same simulated times — but client-buffer
        hits are priced analytically (one resumption per *miss*
        instead of one event per request), and the trace rows land as
        a single column block.  The fast path requires a sole-opener,
        private-pointer, non-collective file (the exclusive window
        that makes the analytic walk exact); anything else degrades to
        the per-request loop, as does ``REPRO_FAST_APP=0``.
        """
        if not handle._open:
            handle.require_open()
        pfs = self.pfs
        state = handle.state
        sem = state.sem
        buffer = handle.buffer
        if (
            not pfs.fast_app
            or buffer is None
            or not sem.private_pointer
            or sem.node_ordered
            or state.mode == AccessMode.M_GLOBAL
            or state.is_shared
        ):
            extents: List[Extent] = []
            for nbytes in sizes:
                extents.extend((yield from self.read(handle, nbytes)))
            return extents

        env = self.env
        hit_service = pfs.costs.buffer_hit_service
        mode_str = state.mode_str
        offset = handle.offset
        t = env.now
        extents = []
        starts: List[float] = []
        durations: List[float] = []
        offsets: List[int] = []
        planned = 0
        total = 0
        for nbytes in sizes:
            if nbytes < 0:
                break
            start_t = t
            pos = offset
            rend = offset + nbytes
            while pos < rend:
                bstart = buffer._start
                if (
                    bstart is not None
                    and buffer._generation == state._next_token
                    and bstart <= pos < buffer._end
                ):
                    # Buffer hit: the request never leaves the client,
                    # so its service time simply extends the analytic
                    # clock — no event round trip.
                    take = min(rend, buffer._end) - pos
                    t += hit_service
                    extents.extend(buffer.serve(pos, take))
                else:
                    # Miss: catch simulated time up to the analytic
                    # clock (never an at(now) hop, which would shift
                    # same-timestamp dispatch order) and run the real
                    # event-stepped fetch.
                    if t > env.now:
                        yield env.at(t)
                    fetch_start, fetch_len = buffer.fetch_range(pos)
                    fext = yield from self._direct_read(
                        handle, fetch_start, fetch_len, cached=True
                    )
                    buffer.install(fetch_start, fetch_len, fext)
                    take = min(rend, fetch_start + fetch_len) - pos
                    if take <= 0:  # pragma: no cover - defensive
                        raise PFSError("buffer fetch made no progress")
                    extents.extend(buffer.serve(pos, take))
                    t = env.now
                pos += take
            starts.append(start_t)
            durations.append(t - start_t)
            offsets.append(offset)
            offset = rend
            total += nbytes
            planned += 1
        if t > env.now:
            yield env.at(t)
        handle.offset = offset
        if planned:
            tracer = pfs.tracer
            if tracer is not None:
                tracer.record_columns(
                    self.rank, IOOp.READ, handle.path, mode_str,
                    self.phase, starts, durations,
                    list(sizes[:planned]), offsets,
                )
            pfs.app_batches_submitted += 1
            pfs.app_batch_bytes += total
        for nbytes in sizes[planned:]:
            extents.extend((yield from self.read(handle, nbytes)))
        return extents

    def write_batch(
        self, handle: FileHandle, sizes: Sequence[int]
    ) -> Generator[object, object, List[int]]:
        """Write a whole schedule of requests in one client call.

        Semantically identical to ``for n in sizes: write(handle, n)``
        but the sequence is priced analytically through the datapath's
        span planner (:meth:`~repro.pfs.datapath.DataPath.plan_write_at`):
        request ``j`` is planned against the chain tail at the planned
        completion of ``j-1``, tokens and extents are recorded at plan
        time, and a single wake-up replaces one event round trip per
        request.  Exact only inside an *exclusive window* — the file is
        sole-opener/private-pointer and no foreign traffic reaches the
        target servers mid-batch (the spans' strict revocation
        threshold raises loudly if that contract is broken, rather
        than silently diverging from the legacy path).  Any
        ineligibility — legacy datapath, shared/collective/ordered
        file, zero-size request, busy or faulted server —
        falls back to per-request submission from that point on.
        """
        if not handle._open:
            handle.require_open()
        pfs = self.pfs
        state = handle.state
        sem = state.sem
        mode = state.mode
        datapath = pfs.datapath
        if (
            not pfs.fast_app
            or datapath is None
            or not sem.private_pointer
            or sem.node_ordered
            or mode == AccessMode.M_GLOBAL
            or state.is_shared
        ):
            tokens: List[int] = []
            for nbytes in sizes:
                tokens.append((yield from self.write(handle, nbytes)))
            return tokens

        env = self.env
        overhead = datapath.client_overhead
        cached = handle.server_cached
        kind = (
            "write_through" if mode == AccessMode.M_UNIX else "write_behind"
        )
        if kind == "write_behind" and not cached:
            kind = "write_through"
        mode_str = state.mode_str
        offset = handle.offset
        t = env.now
        tokens = []
        starts: List[float] = []
        durations: List[float] = []
        offsets: List[int] = []
        planned = 0
        total = 0
        for nbytes in sizes:
            if nbytes <= 0:
                break
            t_client = datapath.plan_write_at(
                self, state, offset, nbytes, kind, cached, t + overhead
            )
            if t_client is None:
                break
            token = state.new_token(self.rank)
            state.record_write(offset, nbytes, token)
            tokens.append(token)
            starts.append(t)
            durations.append(t_client - t)
            offsets.append(offset)
            offset += nbytes
            total += nbytes
            t = t_client
            planned += 1
        handle.offset = offset
        if t > env.now:
            yield env.at(t)
        if planned:
            tracer = pfs.tracer
            if tracer is not None:
                tracer.record_columns(
                    self.rank, IOOp.WRITE, handle.path, mode_str,
                    self.phase, starts, durations,
                    list(sizes[:planned]), offsets,
                )
            pfs.app_batches_submitted += 1
            pfs.app_batch_bytes += total
        for nbytes in sizes[planned:]:
            tokens.append((yield from self.write(handle, nbytes)))
        return tokens

    # ------------------------------------------------------------------
    # mode-specific read/write bodies
    # ------------------------------------------------------------------
    def _global_read(
        self, handle: FileHandle, nbytes: int
    ) -> Generator[object, object, List[Extent]]:
        """M_GLOBAL: identical collective requests; one physical I/O."""
        state = handle.state
        if not state.group:
            raise AccessModeError(
                f"M_GLOBAL read on {state.path!r} without a group; "
                "set the mode via gopen/setiomode with a group"
            )
        leader, call = self.pfs.registry.join(
            f"gread:{state.path}:{state.mode_generation}",
            self.rank, len(state.group), payload=nbytes,
        )
        if leader:
            offset = state.shared_offset
            extents = yield from self._direct_read(
                handle, offset, nbytes, cached=True
            )
            state.shared_offset = offset + nbytes
            positions = [
                self.pfs.machine.compute_nodes[r].mesh_position
                for r in state.group
            ]
            yield self.env.timeout(
                self.pfs.machine.network.broadcast_time(
                    self.mesh_position, nbytes, positions
                )
            )
            self.pfs.registry.finish(call, extents)
            return extents
        extents = yield call.gate.wait()
        return list(extents)

    def _global_write(
        self, handle: FileHandle, nbytes: int, token: int
    ) -> Generator[object, object, None]:
        """M_GLOBAL write: the data is written once for the group."""
        state = handle.state
        if not state.group:
            raise AccessModeError(
                f"M_GLOBAL write on {state.path!r} without a group"
            )
        leader, call = self.pfs.registry.join(
            f"gwrite:{state.path}:{state.mode_generation}",
            self.rank, len(state.group), payload=nbytes,
        )
        if leader:
            offset = state.shared_offset
            yield from self._data_path(
                handle, offset, nbytes, kind="write_through"
            )
            state.record_write(offset, nbytes, token)
            state.shared_offset = offset + nbytes
            self.pfs.registry.finish(call)
        else:
            yield call.gate.wait()

    def _ordered_read(
        self, handle: FileHandle, nbytes: int
    ) -> Generator[object, object, List[Extent]]:
        """M_RECORD / M_SYNC: node-ordered issue, parallel data path."""
        state = handle.state
        self._check_record_size(state, nbytes)
        idx = state.group_index(self.rank)
        yield state.turn.wait_turn(idx)
        yield self.env.timeout(self.pfs.costs.record_dispatch_service)
        if state.mode == AccessMode.M_SYNC:
            offset = state.shared_offset
            state.shared_offset = offset + nbytes
        else:
            offset = handle.offset
            handle.offset = offset + nbytes
        state.turn.done(idx)
        extents = yield from self._direct_read(
            handle, offset, nbytes, cached=handle.server_cached
        )
        return extents

    def _ordered_write(
        self, handle: FileHandle, nbytes: int, token: int
    ) -> Generator[object, object, None]:
        state = handle.state
        self._check_record_size(state, nbytes)
        idx = state.group_index(self.rank)
        yield state.turn.wait_turn(idx)
        yield self.env.timeout(self.pfs.costs.record_dispatch_service)
        if state.mode == AccessMode.M_SYNC:
            offset = state.shared_offset
            state.shared_offset = offset + nbytes
        else:
            offset = handle.offset
            handle.offset = offset + nbytes
        state.turn.done(idx)
        yield from self._data_path(handle, offset, nbytes, kind="write_behind")
        state.record_write(offset, nbytes, token)

    def _check_record_size(self, state: SharedFileState, nbytes: int) -> None:
        if state.mode != AccessMode.M_RECORD:
            return
        if state.record_size is None:
            if nbytes < 1:
                raise AccessModeError("M_RECORD record size must be >= 1")
            state.record_size = nbytes
        elif nbytes != state.record_size:
            raise AccessModeError(
                f"M_RECORD on {state.path!r} requires fixed-size requests "
                f"({state.record_size}); got {nbytes}"
            )

    # ------------------------------------------------------------------
    # data paths
    # ------------------------------------------------------------------
    def _client_read(
        self, handle: FileHandle, offset: int, nbytes: int
    ) -> Generator[object, object, List[Extent]]:
        """Read via the client-side buffer when enabled."""
        if handle.buffer is None:
            return (
                yield from self._direct_read(
                    handle, offset, nbytes, cached=handle.server_cached
                )
            )
        buffer = handle.buffer
        env = self.env
        state = handle.state
        hit_service = self.pfs.costs.buffer_hit_service
        out: List[Extent] = []
        pos = offset
        end = offset + nbytes
        while pos < end:
            # Inlined ReadBuffer.covers: validity + range check.
            bstart = buffer._start
            if (
                bstart is not None
                and buffer._generation == state._next_token
                and bstart <= pos < buffer._end
            ):
                take = min(end, buffer._end) - pos
                yield env.timeout(hit_service)
                out.extend(buffer.serve(pos, take))
            else:
                fetch_start, fetch_len = buffer.fetch_range(pos)
                extents = yield from self._direct_read(
                    handle, fetch_start, fetch_len, cached=True
                )
                buffer.install(fetch_start, fetch_len, extents)
                take = min(end, fetch_start + fetch_len) - pos
                if take <= 0:  # pragma: no cover - defensive
                    raise PFSError("buffer fetch made no progress")
                out.extend(buffer.serve(pos, take))
            pos += take
        return out

    def _direct_read(
        self, handle: FileHandle, offset: int, nbytes: int, cached: bool
    ) -> Generator[object, object, List[Extent]]:
        """Stripe-parallel read; returns covering extents."""
        yield from self._data_path(
            handle, offset, nbytes, kind="read", cached=cached
        )
        return handle.state.extents.read(offset, offset + nbytes)

    def _data_path(
        self,
        handle: FileHandle,
        offset: int,
        nbytes: int,
        kind: str,
        cached: Optional[bool] = None,
    ) -> Generator[object, object, None]:
        """Move ``nbytes`` between this client and the stripe servers.

        Pieces on different I/O nodes proceed in parallel; the call
        completes when the slowest piece does.
        """
        if cached is None:
            cached = handle.server_cached
        datapath = self.pfs.datapath
        if datapath is not None:
            # Inlined DataPath.transfer (one generator frame fewer on
            # every transfer): schedule the request arrival at the
            # servers after the client-side overhead and wake on the
            # single completion event the launch plan resolves.
            env = self.env
            if nbytes == 0:
                yield env.timeout(datapath.client_overhead)
                return
            if kind == "write_behind" and not cached:
                kind = "write_through"
            state = handle.state
            if not cached and state.sem.private_pointer:
                # Uncached transfers touch nothing between issue and
                # arrival (no cache probe, no shared pointer), so the
                # datapath can usually plan them *now* against the
                # future arrival instant — skipping the arrival event
                # and launch callback entirely.
                early = datapath.launch_early(
                    self, state, offset, nbytes, kind
                )
                if early is not None:
                    yield early
                    return
            done = Event(env)
            arrival = env.at(env.now + datapath.client_overhead)
            arrival.callbacks.append(
                lambda _ev: datapath._launch(
                    self, state, offset, nbytes, kind, cached, done
                )
            )
            yield done
            return
        yield self.env.timeout(self.pfs.costs.client_overhead)
        if nbytes == 0:
            return
        state = handle.state
        pieces = state.layout.pieces(offset, nbytes)
        net = self.pfs.machine.network
        if len(pieces) == 1:
            err = yield from self._piece_io(pieces[0], state, kind, cached, net)
            if err is not None:
                raise err
            return
        procs = [
            self.env.process(
                self._piece_io(p, state, kind, cached, net),
                name=f"{kind}-piece",
            )
            for p in pieces
        ]
        yield self.env.all_of(procs)
        if self.pfs.faults is not None:
            for proc in procs:
                if proc._value is not None:
                    raise proc._value

    def _piece_io(
        self, piece, state: SharedFileState, kind: str, cached: bool, net
    ) -> Generator[object, object, Optional[PFSError]]:
        """Move one stripe piece.  Never raises a transfer fault:
        fault-layer failures come back as the *return value* (an
        exception instance), so a multi-piece gather can complete every
        sibling piece before the caller surfaces the first error.  On
        the healthy path the return value is always ``None``."""
        faults = self.pfs.faults
        if faults is not None:
            return (
                yield from self._piece_io_faulted(
                    faults, piece, state, kind, cached
                )
            )
        server = self.pfs.server_for(piece.io_node)
        io_pos = server.ionode.mesh_position
        if kind == "read":
            yield from server.read_piece(
                self.rank, state.file_id, piece, cached=cached
            )
            yield from net.send(io_pos, self.mesh_position, piece.nbytes)
        elif kind == "write_through":
            yield from net.send(self.mesh_position, io_pos, piece.nbytes)
            yield from server.write_through(
                self.rank, state.file_id, piece, cached=cached
            )
        elif kind == "write_behind":
            yield from net.send(self.mesh_position, io_pos, piece.nbytes)
            yield from server.write_behind(
                self.rank, state.file_id, piece, cached=cached
            )
        else:  # pragma: no cover - defensive
            raise PFSError(f"unknown data path kind {kind!r}")
        return None

    def _piece_io_faulted(
        self, faults, piece, state: SharedFileState, kind: str, cached: bool
    ) -> Generator[object, object, Optional[PFSError]]:
        """One stripe piece with retry/timeout/backoff semantics.

        Down-server rejections and lost messages are retried up to the
        plan's ``max_retries`` with exponential backoff; every retry is
        visible in the Pablo trace as an :data:`IOOp.RETRY` record
        whose duration is the backoff wait.  Exhausted retries return
        :class:`~repro.errors.RetryExhaustedError`.
        """
        server = self.pfs.server_for(piece.io_node)
        io_pos = server.ionode.mesh_position
        retry = faults.plan.retry
        attempt = 0
        while True:
            try:
                if kind == "read":
                    yield from server.read_piece(
                        self.rank, state.file_id, piece, cached=cached
                    )
                    yield from faults.client_send(
                        io_pos, self.mesh_position, piece.nbytes
                    )
                elif kind == "write_through":
                    yield from faults.client_send(
                        self.mesh_position, io_pos, piece.nbytes
                    )
                    yield from server.write_through(
                        self.rank, state.file_id, piece, cached=cached
                    )
                elif kind == "write_behind":
                    yield from faults.client_send(
                        self.mesh_position, io_pos, piece.nbytes
                    )
                    yield from server.write_behind(
                        self.rank, state.file_id, piece, cached=cached
                    )
                else:  # pragma: no cover - defensive
                    raise PFSError(f"unknown data path kind {kind!r}")
                return None
            except (ServerUnavailableError, MessageLostError) as exc:
                attempt += 1
                if attempt > retry.max_retries:
                    return RetryExhaustedError(
                        f"rank {self.rank} gave up on {kind} of "
                        f"{piece.nbytes} bytes (io_node {piece.io_node}) "
                        f"after {retry.max_retries} retries: {exc}"
                    )
                delay = retry.backoff(attempt)
                faults.record_retry(exc, delay)
                backoff_start = self.env.now
                yield self.env.timeout(delay)
                self._trace(
                    IOOp.RETRY, state.path, backoff_start,
                    nbytes=piece.nbytes, offset=piece.file_offset,
                    mode=state.mode_str,
                )

    def __repr__(self) -> str:
        return f"<PFSNodeClient rank={self.rank} phase={self.phase!r}>"
