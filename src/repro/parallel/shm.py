"""Zero-copy gallery broadcast through POSIX shared memory.

Pickling the trajectory collections into every worker process costs
O(corpus bytes × workers) of serialization per ``pairwise`` call, which
can dominate the Eq. 10 scoring the workers are meant to parallelize.
So the shard workers of :mod:`repro.cluster` read the read-only corpus
from shared memory, packed **once**, and requests ship only indices.

:class:`SharedTrajectoryArena` packs a gallery's ``(t, x, y)`` arrays
(plus per-trajectory offsets) into one ``multiprocessing.shared_memory``
block.  A shard worker attaches its shard's arena when it starts, and a
matrix call's row arena for each request of the call, and reconstructs
:class:`~repro.core.trajectory.Trajectory` *views* over the block with
:meth:`Trajectory.from_views` — ``np.ndarray(buffer=shm.buf)`` slices,
no per-point objects, no copies.  Because the packed arrays are the
exact float64 values the parent trajectories hold, every score computed
against a view is bitwise identical to the serial path.

Ownership protocol (leak safety)
--------------------------------
* The **parent owns** the segment: it creates the block, and it is the
  only process that ever calls :meth:`~SharedTrajectoryArena.close`
  (which unlinks).  ``close`` is idempotent, runs on context-manager
  exit, and is registered as a :func:`weakref.finalize` so even an
  abandoned arena is unlinked at garbage collection / interpreter exit.
* **Children attach** read-only and never unlink.  A child killed with
  ``SIGKILL`` leaves nothing behind: its mapping dies with it and the
  name belongs to the parent.
* The ``resource_tracker`` safety net stays intact: the parent's
  ``unlink`` unregisters the name exactly once, so no "leaked
  shared_memory" warning is emitted at shutdown, while a crashed
  *parent* still gets its segment reaped by the tracker.

In-process scoring, the last rung of :mod:`repro.parallel`, uses the
caller's own trajectory lists and never attaches.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from time import perf_counter
from typing import Sequence

import numpy as np

from ..core.trajectory import Trajectory
from ..obs import get_registry

__all__ = ["ArenaHandle", "ArenaView", "SharedTrajectoryArena"]

_FLOAT = np.float64
_ITEMSIZE = 8


@dataclass(frozen=True)
class ArenaHandle:
    """Picklable description of a packed arena: everything a worker needs.

    The handle is tiny — a segment name, integer offsets and object ids —
    so shipping it to a worker or in a request costs bytes where pickling
    the trajectories themselves cost megabytes.
    """

    shm_name: str
    n_points: int
    #: Cumulative point offsets, one entry per trajectory plus the total.
    offsets: tuple[int, ...]
    object_ids: tuple[str | None, ...]
    #: First ``n_gallery`` trajectories are the gallery; the rest (if any)
    #: are the queries of a ``pairwise(gallery, queries=...)`` call.
    n_gallery: int
    has_queries: bool

    @property
    def n_trajectories(self) -> int:
        return len(self.offsets) - 1

    @property
    def nbytes(self) -> int:
        """Size of the shared block in bytes (xy plane + timestamps)."""
        return max(1, 3 * self.n_points * _ITEMSIZE)


def _layout(buf, handle: ArenaHandle) -> tuple[np.ndarray, np.ndarray]:
    """The ``(xy, t)`` arrays over a shared buffer, per the fixed layout.

    Layout: ``xy`` is ``(n_points, 2)`` float64 at byte 0, ``t`` is
    ``(n_points,)`` float64 immediately after.
    """
    n = handle.n_points
    xy = np.ndarray((n, 2), dtype=_FLOAT, buffer=buf, offset=0)
    t = np.ndarray((n,), dtype=_FLOAT, buffer=buf, offset=2 * n * _ITEMSIZE)
    return xy, t


def _views(buf, handle: ArenaHandle) -> list[Trajectory]:
    """Zero-copy :class:`Trajectory` views for every packed trajectory."""
    xy, t = _layout(buf, handle)
    out = []
    for k in range(handle.n_trajectories):
        lo, hi = handle.offsets[k], handle.offsets[k + 1]
        out.append(
            Trajectory.from_views(xy[lo:hi], t[lo:hi], object_id=handle.object_ids[k])
        )
    return out


class ArenaView:
    """A worker's attachment to an arena: trajectory views plus lifetime.

    Keeps the :class:`~multiprocessing.shared_memory.SharedMemory` object
    referenced so the buffer backing the views stays mapped.  Never
    unlinks — the parent owns the segment.
    """

    def __init__(self, shm: shared_memory.SharedMemory, handle: ArenaHandle):
        self._shm = shm
        self.handle = handle
        trajectories = _views(shm.buf, handle)
        self.gallery: list[Trajectory] = trajectories[: handle.n_gallery]
        self.queries: list[Trajectory] | None = (
            trajectories[handle.n_gallery :] if handle.has_queries else None
        )

    def close(self) -> None:
        """Drop this process's mapping (the views become invalid)."""
        self.gallery = []
        self.queries = None
        try:
            self._shm.close()
        except (BufferError, OSError):  # views still alive elsewhere
            pass

    def __repr__(self) -> str:
        return f"<ArenaView {self.handle.shm_name} n={self.handle.n_trajectories}>"


class SharedTrajectoryArena:
    """Parent-owned shared-memory block holding a packed trajectory corpus.

    Build with :meth:`pack`, hand :attr:`handle` to workers, have them
    :meth:`attach`.  Use as a context manager (or call :meth:`close`)
    to unlink; a :func:`weakref.finalize` backstop unlinks at garbage
    collection even if neither happens.
    """

    def __init__(self, shm: shared_memory.SharedMemory, handle: ArenaHandle):
        self._shm = shm
        self.handle = handle
        self._closed = False
        # Safety net: unlink even if the owner forgets to close (e.g. an
        # exception path that never reaches the finally).  finalize runs
        # at gc and, crucially, at interpreter exit.
        self._finalizer = weakref.finalize(
            self, _unlink_quietly, shm.name
        )

    # ------------------------------------------------------------------
    @classmethod
    def pack(
        cls,
        gallery: Sequence[Trajectory],
        queries: Sequence[Trajectory] | None = None,
        registry=None,
    ) -> "SharedTrajectoryArena":
        """Copy ``gallery`` (and ``queries``) into a fresh shared block.

        This is the one-time broadcast: one memcpy of the corpus arrays
        into the segment, after which any number of workers and calls
        reuse it by name.
        """
        t0 = perf_counter()
        everything = list(gallery) + (list(queries) if queries is not None else [])
        lengths = [len(t) for t in everything]
        offsets = tuple(np.concatenate([[0], np.cumsum(lengths)]).astype(int).tolist())
        n_points = offsets[-1] if offsets else 0
        handle_proto = ArenaHandle(
            shm_name="",
            n_points=int(n_points),
            offsets=offsets if offsets else (0,),
            object_ids=tuple(t.object_id for t in everything),
            n_gallery=len(gallery),
            has_queries=queries is not None,
        )
        shm = shared_memory.SharedMemory(create=True, size=handle_proto.nbytes)
        handle = ArenaHandle(
            shm_name=shm.name,
            n_points=handle_proto.n_points,
            offsets=handle_proto.offsets,
            object_ids=handle_proto.object_ids,
            n_gallery=handle_proto.n_gallery,
            has_queries=handle_proto.has_queries,
        )
        xy, t = _layout(shm.buf, handle)
        for k, traj in enumerate(everything):
            lo, hi = handle.offsets[k], handle.offsets[k + 1]
            xy[lo:hi] = traj.xy
            t[lo:hi] = traj.timestamps
        del xy, t  # release the buffer views so close() cannot raise
        arena = cls(shm, handle)
        reg = registry if registry is not None else get_registry()
        reg.counter(
            "repro_parallel_shm_bytes_total",
            "Bytes packed into shared-memory trajectory arenas",
        ).inc(handle.nbytes)
        reg.histogram(
            "repro_parallel_shm_pack_seconds",
            "Wall seconds to pack a corpus into a shared-memory arena",
        ).observe(perf_counter() - t0)
        return arena

    @staticmethod
    def attach(handle: ArenaHandle, registry=None) -> ArenaView:
        """Attach to an existing arena by handle (worker side, no unlink)."""
        t0 = perf_counter()
        shm = shared_memory.SharedMemory(name=handle.shm_name)
        view = ArenaView(shm, handle)
        reg = registry if registry is not None else get_registry()
        reg.histogram(
            "repro_parallel_shm_attach_seconds",
            "Wall seconds to attach a worker to a shared-memory arena",
        ).observe(perf_counter() - t0)
        return view

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return self.handle.nbytes

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Unlink the segment (idempotent; parent-only)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        try:
            self._shm.close()
        except (BufferError, OSError):
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedTrajectoryArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{self.nbytes}B"
        return (
            f"<SharedTrajectoryArena {self.handle.shm_name} "
            f"n={self.handle.n_trajectories} {state}>"
        )


def _unlink_quietly(name: str) -> None:
    """Finalizer body: unlink ``name`` if it still exists."""
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    try:
        shm.close()
    except (BufferError, OSError):
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass
