"""Problem definitions for the two applications.

The paper's test problems:

- **ESCAT / ethylene** — electronic excitation of ethylene to its
  first triplet state; two collision channels; 128 nodes.
- **ESCAT / carbon monoxide** — 13 collision outcomes; 256 nodes; the
  quadrature volume grows as O(n^3) in the number of outcomes, so this
  problem is heavily I/O bound (Table 3's 19.4%).
- **PRISM test problem** — 201 spectral elements, Reynolds number
  1000, 1250 time steps, checkpoint every 250 steps, 64 nodes.

Request counts and sizes are calibrated to reproduce the paper's
request-size CDFs (Figures 2 and 7); volumes are sized so M_RECORD
phases divide evenly among nodes.  Compute-time constants reproduce
the execution-time figures (1 and 6); the paper does not decompose the
non-I/O portion of its wall-time reductions, so per-version compute
overheads model the code restructuring that accompanied the I/O
changes (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.units import KB


# ----------------------------------------------------------------------
# vectorized request schedules (batched-submission staging)
#
# The applications' request streams are deterministic functions of the
# problem parameters, so each phase's sizes can be precomputed as one
# NumPy array walk and handed to the client's batched submission API
# (PFSNodeClient.read_batch / write_batch) instead of being recomputed
# inside per-request Python loops.  Each helper is the exact closed
# form of the corresponding request loop — same sizes, same order.
# ----------------------------------------------------------------------

def cycled_schedule(count: int, sizes: Tuple[int, ...]) -> List[int]:
    """``[sizes[i % len(sizes)] for i in range(count)]``, vectorized."""
    if count < 0:
        raise WorkloadError(f"negative request count {count}")
    if count == 0:
        return []
    if not sizes or min(sizes) < 1:
        raise WorkloadError(f"invalid size cycle {sizes!r}")
    return np.resize(np.asarray(sizes, dtype=np.int64), count).tolist()


def tile_schedule(total: int, sizes: Tuple[int, ...]) -> List[int]:
    """Vectorized :func:`repro.apps.base.tile_sizes`.

    Cover ``total`` bytes cycling through ``sizes``; the final request
    is the remainder.  Full-size requests run until the cumulative sum
    first reaches ``total`` — exactly the greedy loop's behaviour.
    """
    if total < 0:
        raise WorkloadError(f"negative total {total}")
    if not sizes or min(sizes) < 1:
        raise WorkloadError(f"invalid size cycle {sizes!r}")
    if total == 0:
        return []
    arr = np.asarray(sizes, dtype=np.int64)
    per_cycle = int(arr.sum())
    reps = total // per_cycle + 1
    tiled = np.resize(arr, reps * len(sizes))
    ends = np.cumsum(tiled)
    cut = int(np.searchsorted(ends, total, side="left"))
    if ends[cut] == total:
        return tiled[: cut + 1].tolist()
    head = tiled[:cut].tolist()
    head.append(total - (int(ends[cut - 1]) if cut else 0))
    return head


def spread_schedule(total: int, count: int, sizes: Tuple[int, ...]) -> List[int]:
    """Vectorized :func:`repro.apps.base.spread_sizes`.

    Splits ``total`` into ``count`` round-robin requests with the last
    absorbing the remainder.  Falls back to the exact scalar loop in
    the (never hit at calibrated scale) tight-budget case where the
    loop's leave-a-byte-each clamp would engage.
    """
    from repro.apps.base import spread_sizes

    if count < 1:
        raise WorkloadError(f"count must be >= 1, got {count}")
    if total < count:
        raise WorkloadError(f"cannot split {total} bytes into {count} requests")
    if count == 1:
        return [total]
    arr = np.resize(np.asarray(sizes, dtype=np.int64), count - 1)
    ends = np.cumsum(arr)
    slack = total - ends - (count - 1 - np.arange(count - 1))
    if (slack < 0).any():
        return spread_sizes(total, count, sizes)
    out = arr.tolist()
    out.append(total - int(ends[-1]))
    return out


def reload_schedule(
    channel_bytes: int, chunk: int, record_size: int
) -> List[Tuple[List[int], int]]:
    """Segment ESCAT version A's node-zero quadrature reload.

    The original loop reads ``chunk`` bytes at a time and broadcasts
    whenever a full ``record_size`` record has been reassembled.  That
    interleaving collapses into segments: ``ceil(record_size/chunk)``
    full-chunk reads then one broadcast, repeated, plus a final
    partial segment.  Returns ``[(read_sizes, broadcast_bytes), ...]``
    in issue order — the same reads and broadcasts the loop emits.
    """
    if chunk < 1 or record_size < 1:
        raise WorkloadError(
            f"invalid reload geometry (chunk={chunk}, record={record_size})"
        )
    if channel_bytes <= 0:
        return []
    n_full, rem = divmod(channel_bytes, chunk)
    per_segment = -(-record_size // chunk)
    full_segments, tail_reads = divmod(n_full, per_segment)
    segments: List[Tuple[List[int], int]] = [
        ([chunk] * per_segment, per_segment * chunk)
    ] * full_segments
    tail: List[int] = [chunk] * tail_reads
    if rem:
        tail.append(rem)
    if tail:
        segments.append((tail, tail_reads * chunk + rem))
    return segments


@dataclass(frozen=True)
class EscatProblem:
    """One ESCAT data set and its workload parameters."""

    name: str
    n_nodes: int
    n_channels: int
    #: Energies at which the scattering problem is solved; each energy
    #: re-reads the full quadrature data set (phase three).
    n_energies: int

    # -- phase one: three input files ------------------------------------
    #: Small text reads of the problem-definition file, per reader.
    problemdef_reads: int = 1000
    problemdef_sizes: Tuple[int, ...] = (384, 512, 640, 896)
    #: 64 KB chunk reads of the two initial-matrix files, per reader.
    matrix_reads: int = 40
    matrix_chunk: int = 64 * KB

    # -- phase two: quadrature staging ------------------------------------
    #: Fixed M_RECORD record size (two PFS stripes, per the paper).
    record_size: int = 128 * KB
    #: Records per collision channel; must divide evenly by n_nodes.
    records_per_channel: int = 512
    #: Quadrature write request size (all writes are small).
    write_chunk: int = 2048
    #: Version A's node-zero reload chunk (the paper: initial-version
    #: reads are "less than 1K bytes"; Figure 3 shows the reload in
    #: sub-2KB chunks).
    reload_chunk: int = 896
    #: Version A writes through node zero with four request sizes.
    node0_write_sizes: Tuple[int, ...] = (512, 1024, 2048, 2816)

    # -- phase four: results ------------------------------------------------
    result_writes_per_channel: int = 60
    result_sizes: Tuple[int, ...] = (800, 1600, 2400)

    # -- compute model -----------------------------------------------------
    #: Base computation per phase-two cycle (seconds).
    cycle_compute: float = 8.2
    #: Computation before phase one / per energy in phase three / at
    #: the end (seconds).
    setup_compute: float = 40.0
    energy_compute: float = 240.0
    final_compute: float = 25.0
    #: Computation combining each reloaded record with the
    #: energy-dependent structures (phase three inner loop).
    record_compute: float = 0.18
    #: Per-version extra per-cycle overhead (non-I/O restructuring).
    version_cycle_overhead: Dict[str, float] = field(
        default_factory=lambda: {"A": 1.95, "B": 0.90, "C": 0.0}
    )

    def validate(self) -> None:
        if self.n_nodes < 2:
            raise WorkloadError("ESCAT needs >= 2 nodes")
        if self.records_per_channel % self.n_nodes != 0:
            raise WorkloadError(
                f"records_per_channel ({self.records_per_channel}) must "
                f"divide evenly by n_nodes ({self.n_nodes})"
            )
        if self.channel_bytes % (self.n_nodes * self.write_chunk) != 0:
            raise WorkloadError(
                "channel volume must be a whole number of write cycles"
            )
        if self.n_channels < 1 or self.n_energies < 1:
            raise WorkloadError("need >= 1 channel and >= 1 energy")

    # -- derived quantities ---------------------------------------------
    @property
    def channel_bytes(self) -> int:
        """Quadrature volume of one collision channel."""
        return self.records_per_channel * self.record_size

    @property
    def quadrature_bytes(self) -> int:
        return self.channel_bytes * self.n_channels

    @property
    def cycles_per_channel(self) -> int:
        """Compute/write cycles needed to stage one channel."""
        return self.channel_bytes // (self.n_nodes * self.write_chunk)

    @property
    def total_cycles(self) -> int:
        return self.cycles_per_channel * self.n_channels

    @property
    def records_per_node_per_channel(self) -> int:
        return self.records_per_channel // self.n_nodes

    @property
    def problemdef_bytes(self) -> int:
        sizes = self.problemdef_sizes
        return sum(
            sizes[i % len(sizes)] for i in range(self.problemdef_reads)
        )

    @property
    def matrix_bytes(self) -> int:
        return self.matrix_reads * self.matrix_chunk

    # -- precomputed request schedules (batched submission) -------------
    @property
    def problemdef_schedule(self) -> List[int]:
        """Phase-one problem-definition read sizes, in issue order."""
        return cycled_schedule(self.problemdef_reads, self.problemdef_sizes)

    @property
    def result_schedule(self) -> List[int]:
        """Phase-four per-channel result write sizes, in issue order."""
        total = sum(
            self.result_sizes[i % len(self.result_sizes)]
            for i in range(self.result_writes_per_channel)
        )
        return spread_schedule(
            total, self.result_writes_per_channel, self.result_sizes
        )

    @property
    def reload_segments(self) -> List[Tuple[List[int], int]]:
        """Version A phase-three read/broadcast segments, per channel."""
        return reload_schedule(
            self.channel_bytes, self.reload_chunk, self.record_size
        )

    def quadrature_path(self, channel: int) -> str:
        return f"/pfs/escat/quad.ch{channel}"

    def result_path(self, channel: int) -> str:
        return f"/pfs/escat/result.ch{channel}"

    input_paths = property(
        lambda self: [
            "/pfs/escat/problemdef",
            "/pfs/escat/matrices1",
            "/pfs/escat/matrices2",
        ]
    )


#: The paper's modest baseline problem (section 4.1).
ETHYLENE = EscatProblem(
    name="ethylene",
    n_nodes=128,
    n_channels=2,
    n_energies=1,
)

#: The larger problem of Table 3's last column: 13 collision outcomes
#: on 256 nodes; phase three re-reads the quadrature at several
#: energies, which is what pushes I/O to ~20% of execution.
CARBON_MONOXIDE = EscatProblem(
    name="carbon-monoxide",
    n_nodes=256,
    n_channels=13,
    n_energies=6,
    records_per_channel=1280,
    write_chunk=16384,
    cycle_compute=2.2,
    record_compute=0.05,
    setup_compute=30.0,
    energy_compute=120.0,
    final_compute=20.0,
    problemdef_reads=1400,
    matrix_reads=80,
)


def scaled_escat_problem(
    n_nodes: int = 8,
    n_channels: int = 2,
    records_per_channel: int = 16,
    n_energies: int = 1,
    cycle_compute: float = 0.05,
) -> EscatProblem:
    """A miniature ESCAT problem for tests and quick demos."""
    problem = replace(
        ETHYLENE,
        name=f"mini-{n_nodes}n",
        n_nodes=n_nodes,
        n_channels=n_channels,
        n_energies=n_energies,
        records_per_channel=records_per_channel,
        problemdef_reads=40,
        matrix_reads=6,
        cycle_compute=cycle_compute,
        setup_compute=0.5,
        energy_compute=1.0,
        final_compute=0.2,
        result_writes_per_channel=8,
        version_cycle_overhead={
            "A": cycle_compute * 0.25,
            "B": cycle_compute * 0.11,
            "C": 0.0,
        },
    )
    problem.validate()
    return problem


@dataclass(frozen=True)
class PrismProblem:
    """The PRISM test problem and its workload parameters."""

    name: str
    n_nodes: int
    n_elements: int = 201
    reynolds: float = 1000.0
    steps: int = 1250
    checkpoint_every: int = 250

    # -- phase one: three input files -----------------------------------
    #: Parameter file (text): Reynolds number, mesh elements,
    #: coordinates, boundary conditions.
    rea_reads: int = 150
    rea_sizes: Tuple[int, ...] = (24, 48, 96, 160)
    #: Restart file: tiny header reads plus large body records.
    rst_header_reads: int = 30
    rst_header_size: int = 36
    rst_body_read_size: int = 155584
    rst_body_reads_per_node: int = 4
    #: Connectivity file: text in versions A/B, binary in C.
    cnn_text_reads: int = 300
    cnn_text_sizes: Tuple[int, ...] = (32, 64, 128)
    cnn_binary_reads: int = 24
    cnn_binary_size: int = 8192

    # -- phase two: integration ---------------------------------------------
    measurement_write: int = 96
    history_write: int = 72
    stat_files: int = 3
    stat_writes_per_checkpoint: int = 12
    stat_write_size: int = 1024
    checkpoint_write_size: int = 155584
    checkpoint_writes: int = 67

    # -- phase three: field output ------------------------------------------
    field_write_size: int = 155584
    field_writes_per_node: int = 4

    # -- compute model ---------------------------------------------------
    setup_compute: float = 12.0
    final_compute: float = 15.0
    #: Per-version per-step computation (seconds); the spread models
    #: the solver restructuring accompanying the I/O changes.
    step_compute: Dict[str, float] = field(
        default_factory=lambda: {"A": 7.30, "B": 6.85, "C": 5.65}
    )

    def validate(self) -> None:
        if self.n_nodes < 2:
            raise WorkloadError("PRISM needs >= 2 nodes")
        if self.steps < 1 or self.checkpoint_every < 1:
            raise WorkloadError("invalid step/checkpoint configuration")

    @property
    def n_checkpoints(self) -> int:
        return self.steps // self.checkpoint_every

    @property
    def rst_body_bytes(self) -> int:
        return self.n_nodes * self.rst_body_reads_per_node * self.rst_body_read_size

    @property
    def rea_bytes(self) -> int:
        return sum(
            self.rea_sizes[i % len(self.rea_sizes)]
            for i in range(self.rea_reads)
        )

    @property
    def field_bytes(self) -> int:
        return self.n_nodes * self.field_writes_per_node * self.field_write_size

    # -- precomputed request schedules (batched submission) -------------
    @property
    def checkpoint_schedule(self) -> List[int]:
        """Per-checkpoint .chk write sizes, in issue order."""
        return [self.checkpoint_write_size] * self.checkpoint_writes

    @property
    def stat_schedule(self) -> List[int]:
        """Per-checkpoint per-stat-file write sizes, in issue order."""
        return [self.stat_write_size] * self.stat_writes_per_checkpoint

    #: File paths.
    rea_path = "/pfs/prism/prism.rea"
    rst_path = "/pfs/prism/prism.rst"
    cnn_path = "/pfs/prism/prism.cnn"
    mea_path = "/pfs/prism/prism.mea"
    his_path = "/pfs/prism/prism.his"
    chk_path = "/pfs/prism/prism.chk"
    fld_path = "/pfs/prism/prism.fld"

    def stat_path(self, index: int) -> str:
        return f"/pfs/prism/prism.sta{index}"


#: The paper's PRISM test problem (section 5.1).
PRISM_TEST = PrismProblem(name="prism-test", n_nodes=64)


def scaled_prism_problem(
    n_nodes: int = 8,
    steps: int = 20,
    checkpoint_every: int = 5,
    step_compute: float = 0.05,
) -> PrismProblem:
    """A miniature PRISM problem for tests and quick demos."""
    problem = replace(
        PRISM_TEST,
        name=f"mini-{n_nodes}n",
        n_nodes=n_nodes,
        steps=steps,
        checkpoint_every=checkpoint_every,
        rea_reads=30,
        rst_header_reads=4,
        rst_body_reads_per_node=2,
        cnn_text_reads=40,
        cnn_binary_reads=6,
        checkpoint_writes=8,
        field_writes_per_node=2,
        setup_compute=0.2,
        final_compute=0.2,
        step_compute={"A": step_compute * 1.28, "B": step_compute * 1.2,
                      "C": step_compute},
    )
    problem.validate()
    return problem
