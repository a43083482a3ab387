"""Stripe arithmetic: file offsets -> (I/O node, disk address) pieces.

PFS stripes files round-robin across the I/O nodes in fixed-size
stripe units (64 KB by default).  A request spanning multiple stripes
is decomposed into per-stripe pieces that are serviced by their
respective I/O nodes in parallel — the source of PFS's bandwidth for
large, stripe-aligned requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import PFSError


@dataclass(frozen=True)
class StripePiece:
    """One stripe-contained fragment of a file request."""

    io_node: int
    disk_offset: int
    file_offset: int
    nbytes: int


class StripeLayout:
    """Round-robin striping of one file across the I/O nodes.

    Parameters
    ----------
    stripe_size:
        Stripe unit in bytes.
    n_io_nodes:
        Number of I/O nodes in the stripe group.
    disk_base:
        Base address of this file's data on every disk.  The simulator
        gives each file a distinct, widely-spaced base so that accesses
        to different files never look sequential to the disk model.
    """

    def __init__(self, stripe_size: int, n_io_nodes: int, disk_base: int = 0) -> None:
        if stripe_size < 1:
            raise PFSError(f"stripe size must be >= 1, got {stripe_size}")
        if n_io_nodes < 1:
            raise PFSError(f"need >= 1 I/O node, got {n_io_nodes}")
        if disk_base < 0:
            raise PFSError(f"negative disk base {disk_base}")
        self.stripe_size = stripe_size
        self.n_io_nodes = n_io_nodes
        self.disk_base = disk_base

    def stripe_index(self, offset: int) -> int:
        """Which stripe (0-based) ``offset`` falls in."""
        if offset < 0:
            raise PFSError(f"negative offset {offset}")
        return offset // self.stripe_size

    def io_node_of(self, offset: int) -> int:
        """Which I/O node serves the stripe containing ``offset``."""
        return self.stripe_index(offset) % self.n_io_nodes

    def disk_offset_of(self, offset: int) -> int:
        """Disk address of ``offset`` on its I/O node."""
        stripe = self.stripe_index(offset)
        within = offset - stripe * self.stripe_size
        return self.disk_base + (stripe // self.n_io_nodes) * self.stripe_size + within

    def pieces(self, offset: int, nbytes: int) -> List[StripePiece]:
        """Decompose a request into per-stripe pieces.

        >>> layout = StripeLayout(stripe_size=64, n_io_nodes=4)
        >>> [ (p.io_node, p.nbytes) for p in layout.pieces(32, 96) ]
        [(0, 32), (1, 64)]
        """
        if nbytes < 0:
            raise PFSError(f"negative request size {nbytes}")
        if offset < 0:
            raise PFSError(f"negative offset {offset}")
        out: List[StripePiece] = []
        pos = offset
        remaining = nbytes
        while remaining > 0:
            stripe = pos // self.stripe_size
            stripe_end = (stripe + 1) * self.stripe_size
            take = min(remaining, stripe_end - pos)
            out.append(
                StripePiece(
                    io_node=stripe % self.n_io_nodes,
                    disk_offset=self.disk_offset_of(pos),
                    file_offset=pos,
                    nbytes=take,
                )
            )
            pos += take
            remaining -= take
        return out

    def stripe_groups(
        self, offset: int, nbytes: int
    ) -> List[Tuple[int, List[int], List[int], List[int]]]:
        """:meth:`pieces` regrouped per I/O node, as parallel lists.

        Returns one ``(io_node, disk_offsets, file_offsets, sizes)``
        group per I/O node the request touches, in the order the
        request first touches them; each group lists that node's
        pieces in file order.  Round-robin striping makes every group
        a strided slice of the file-order pieces, so no search is
        needed.

        >>> layout = StripeLayout(stripe_size=64, n_io_nodes=2)
        >>> layout.stripe_groups(32, 160)
        [(0, [32, 64], [32, 128], [32, 64]), (1, [0], [64], [64])]
        """
        if nbytes < 0:
            raise PFSError(f"negative request size {nbytes}")
        if offset < 0:
            raise PFSError(f"negative offset {offset}")
        if nbytes == 0:
            return []
        ss = self.stripe_size
        n_io = self.n_io_nodes
        base = self.disk_base
        first = offset // ss
        end = offset + nbytes
        last = (end - 1) // ss
        k = last - first + 1
        doffs = []
        foffs = []
        ns = []
        for stripe in range(first, last + 1):
            start = stripe * ss
            foff = offset if offset > start else start
            pend = end if end < start + ss else start + ss
            doffs.append(base + (stripe // n_io) * ss + (foff - start))
            foffs.append(foff)
            ns.append(pend - foff)
        if n_io == 1:
            return [(0, doffs, foffs, ns)]
        return [
            ((first + r) % n_io, doffs[r::n_io], foffs[r::n_io], ns[r::n_io])
            for r in range(n_io if n_io < k else k)
        ]

    def is_stripe_aligned(self, offset: int, nbytes: int) -> bool:
        """True when the request starts on a stripe boundary and is a
        whole multiple of the stripe size — the shape M_RECORD rewards."""
        return offset % self.stripe_size == 0 and nbytes % self.stripe_size == 0

    def __repr__(self) -> str:
        return (
            f"<StripeLayout unit={self.stripe_size} "
            f"io_nodes={self.n_io_nodes} base={self.disk_base}>"
        )
