"""Spatial-temporal probability estimation (Section IV, Eq. 4–5).

Given a trajectory, its noise model and its transition model,
:class:`TrajectorySTP` answers: *where was this object at time t, as a
probability distribution over grid cells?*  Following Eq. 5:

* at an observation time, the answer is the (normalized) location-noise
  distribution of that observation;
* strictly between two observations, it is the Markov-bridge interpolation
  of Eq. 4 — forward transition weights from the earlier observation times
  backward weights into the later one, renormalized;
* outside the trajectory's time span, it is zero everywhere.

The transition model picks how Eq. 4 is evaluated:

* an *isotropic* model (STS proper: the weight depends only on distance)
  makes the forward and backward sums of Eq. 4 2-D convolutions of the
  noise distribution with a radial kernel over the grid lattice,
  evaluated with FFT convolution — exact at lattice level and fast on
  large grids;
* any other model (the frequency-based STS-F) is summed explicitly over
  the cells both reachable from the earlier observation and able to
  reach the later one within the model's reachable radius (plus the
  noise supports) — the reachable-region pruning of Niedermayer et al.;
  the discarded cells carry negligible probability.  A model without a
  finite radius is summed over every cell, Eq. 4 exactly as written.

The tests check the FFT evaluator against explicit summation of the
same speed model to tight tolerance.

Batched evaluation
------------------
:meth:`TrajectorySTP.stp_batch` resolves a whole call at once.  One
``searchsorted`` against the trajectory's timestamps classifies every
query time: outside the span (zero everywhere), on an observation (that
observation's noise distribution, computed for all observations in one
:meth:`~repro.core.noise.NoiseModel.cell_distributions` pass when the
estimator is built) or bridged by the segment ``lo`` it falls in.  Only
distinct bridged times consult the result cache, and the misses are
evaluated together, across segments:

* the FFT path embeds each query's forward and backward kernel on one fixed
  per-estimator canvas (sized for the trajectory's largest observation
  gap) and runs one stacked ``rfft2``/``irfft2`` round trip per chunk of
  queries, multiplying by each observation's cached noise-plane spectrum
  in between.  Each observation's plane holds its noise support only, and
  its convolution is read on a *frame*: that support's bounding box
  dilated by the canvas half and clipped to the grid — the cells its
  kernels can reach.  One transform shape per estimator is the shortest
  that is alias-free on every frame (:meth:`TrajectorySTP._fft_geometry`),
  so per-query cost follows noise and reach, not grid area.  A query's
  forward × backward product is taken on the intersection of its two
  frames only; every other cell is exactly zero.  A query whose own
  reaches miss each other (each support dilated by the canvas half of
  its own gap, not of the largest) takes the fallback cell.  A kernel
  depends on its gap alone, and sensors report on clocks, so gaps
  repeat: a chunk transforms each distinct gap once and gathers the
  spectra into query order, and a call of several chunks first
  transforms the gaps more than one of its chunks reads into a table
  they all gather from.  A chunk evaluates its missing kernels with one
  transition-weight call per canvas size.  :data:`FFT_CHUNK_BYTES`
  bounds a chunk's scratch and the table, so a call's working set does
  not grow with its number of queries;
* explicit summation evaluates each query over its own candidate cells.

``stp(t)`` is ``stp_batch([t])[0]``.  A query's distribution does not
depend on the other queries of its call, so the chunking changes no
result.  Kernels (by their exact time gap) and noise-plane
transforms are memoized in bounded LRU caches (see ``cache_size``), so
long-lived estimators serving many queries stay fast without growing
memory unboundedly, and a memoized value is bitwise the one computed.
"""

from __future__ import annotations

import itertools
from time import perf_counter
from typing import NamedTuple

import numpy as np
from scipy import fft as _fft

from ..errors import DegenerateTrajectoryError
from ..obs import get_registry
from .cache import LRUCache
from .grid import Grid
from .noise import NoiseModel
from .speed import EXACT_ROW_MAX
from .transition import TransitionModel
from .trajectory import Trajectory

__all__ = ["TrajectorySTP", "SparseDistribution"]

# A sparse distribution over grid cells: sorted cell indices and their
# probabilities (summing to 1), or a pair of empty arrays meaning
# "zero everywhere" (Eq. 5 case 3).
SparseDistribution = tuple[np.ndarray, np.ndarray]

_EMPTY: SparseDistribution = (np.empty(0, dtype=int), np.empty(0))

#: Normalized probabilities below this are dropped from sparse results.
_SPARSE_EPS = 1e-15

#: Scratch bytes one FFT chunk of bridged queries may hold: its kernel
#: canvases, their spectra and the convolutions.  Each estimator derives
#: its chunk length from its transform shape (81 queries on an 18×18
#: transform with an 11×11 canvas, 6 on a 60×60 one with a 55×55 canvas).
#: A call of several chunks also holds the spectra of the gaps that more
#: than one of its chunks reads, at most this much with one chunk's.
FFT_CHUNK_BYTES = 1 << 20


class _FFTGeometry(NamedTuple):
    """One estimator's FFT layout (see :meth:`TrajectorySTP._fft_geometry`)."""

    half_r: int  #: kernel-canvas half-extent, rows
    half_c: int  #: kernel-canvas half-extent, columns
    shape: tuple[int, int]  #: circular transform shape
    chunk: int  #: queries per FFT chunk
    #: ``(observations, 2)``: the grid row and column each observation's
    #: noise plane puts at transform index 0.
    origins: np.ndarray
    #: Per segment ``lo``: ``(r0, c0, r1, c1, fr, fc, br, bc)``, the
    #: intersection ``[r0, r1) × [c0, c1)`` of the two observations'
    #: frames and where it starts in the forward (plane ``lo``) and
    #: backward (plane ``lo + 1``) convolutions; ``None`` when the
    #: frames do not meet.
    windows: list
    #: ``(segments, 2)``: per axis, how many cells separate the noise
    #: supports of observations ``lo`` and ``lo + 1`` (``≤ 0`` when their
    #: bounding boxes overlap on that axis).
    seps: np.ndarray


class _GapTable(NamedTuple):
    """The distinct kernel gaps of one FFT call and the spectra it shares.

    ``store`` holds the spectrum of every gap ``g`` with ``rows[g] ≥ 0``
    at that row; both are ``None`` when no spectrum is shared between
    chunks.
    """

    gaps: np.ndarray  #: ascending distinct gaps
    halves: np.ndarray  #: ``(gaps, 2)``: each gap's kernel-canvas halves
    store: np.ndarray | None
    rows: np.ndarray | None


def _segments(los: np.ndarray) -> list[tuple[int, slice]]:
    """``(lo, positions)`` for each run of equal values of the sorted ``los``."""
    bounds = np.flatnonzero(np.diff(los, prepend=-1)).tolist() + [len(los)]
    return [(int(los[a]), slice(a, b)) for a, b in zip(bounds[:-1], bounds[1:])]


def _bind_handles(reg) -> tuple:
    """The metric handles every estimator on ``reg`` shares (see ``_init_obs``)."""
    stage = reg.counter(
        "repro_stage_seconds_total", "Wall seconds spent per pipeline stage"
    )
    return (
        stage.child(component="stp", stage="noise-eval"),
        stage.child(component="stp", stage="bridge-interp"),
        stage.child(component="stp", stage="kernel-build"),
        stage.child(component="stp", stage="kernel-fft"),
        stage.child(component="stp", stage="normalize"),
        # Bound here so colocation_batch pays no per-call instrument lookup.
        stage.child(component="colocation", stage="stp-resolve"),
        stage.child(component="colocation", stage="inner-product"),
        reg.counter(
            "repro_fft_plane_transforms_total", "Noise-plane forward FFTs computed"
        ).child(),
        reg.counter(
            "repro_fft_canvas_reuse_total",
            "Noise-plane FFTs served from the fixed-canvas cache",
        ).child(),
    )


class TrajectorySTP:
    """Spatial-temporal probability of one object given its trajectory.

    Parameters
    ----------
    trajectory:
        The object's observations.  Must be non-empty.
    grid:
        Spatial partition ``R``.
    noise_model:
        Location-noise distribution ``f`` of the sensing system.
    transition_model:
        Transition scorer; for STS proper this is a
        :class:`~repro.core.transition.SpeedTransitionModel` built from the
        trajectory's *own* speed samples (personalized).  Whether it is
        isotropic picks the Eq. 4 evaluator (see the module docstring).
    cache_size:
        Capacity of the per-query result cache; the kernel, noise-plane and
        FFT caches are sized proportionally.  ``None`` means unbounded,
        ``0`` disables all memoization (every query recomputes from
        scratch — useful for benchmarking the cold path).
    registry:
        Metrics registry receiving stage timings, FFT canvas-reuse
        counters and (at snapshot time) cache statistics.  Defaults to
        the process-wide registry; a no-op registry when ``REPRO_OBS=off``.
    cache_collector:
        When ``True`` (default) the estimator registers its own
        snapshot-time cache collector.  An owning :class:`~.sts.STS`
        passes ``False`` and sums cache counters across its whole
        estimator pool in one collector instead, keeping registry
        snapshots O(caches) rather than O(estimators × caches).
    """

    def __init__(
        self,
        trajectory: Trajectory,
        grid: Grid,
        noise_model: NoiseModel,
        transition_model: TransitionModel,
        cache_size: int | None = 4096,
        registry=None,
        cache_collector: bool = True,
    ):
        if len(trajectory) == 0:
            raise DegenerateTrajectoryError(
                "cannot estimate S-T probability for an empty trajectory"
            )
        self.trajectory = trajectory
        self.grid = grid
        self.noise_model = noise_model
        self.transition_model = transition_model
        # An owning STS passes cache_collector=False and publishes one
        # aggregated cache collector for its whole estimator pool; a
        # standalone estimator keeps its own (the plain-int attribute
        # survives pickling, so rebinds honour the choice).
        self._cache_collector = bool(cache_collector)
        self._init_obs(registry)
        # Per-observation noise distributions, precomputed once: these are
        # the f(·, ℓ_i) terms every Eq. 4 evaluation reuses.
        t0 = perf_counter()
        xy = trajectory.xy
        self._observed: list[SparseDistribution] = noise_model.cell_distributions(
            grid, xy[:, 0], xy[:, 1]
        )
        self._t_noise.inc(perf_counter() - t0)
        self.cache_size = cache_size
        scaled = (lambda frac, floor: None) if cache_size is None else (
            lambda frac, floor: 0 if cache_size == 0 else max(floor, cache_size // frac)
        )
        self._cache = LRUCache(cache_size)  # query time -> SparseDistribution
        self._kernel_cache = LRUCache(scaled(8, 64))  # (dt, canvas) -> kernel
        self._plane_fft_cache = LRUCache(scaled(16, 16))  # observation -> rfft2

    # ------------------------------------------------------------------
    def _init_obs(self, registry=None) -> None:
        """Take the registry's shared handles; hot paths then pay one dict-add each.

        ``bridge-interp`` is the inclusive wall time of bridged queries
        (Eq. 4), taken per FFT chunk (plus the call's gap bookkeeping and
        table) or per explicitly summed segment;
        ``kernel-build`` (canvases, weights, embedding), ``kernel-fft``
        (transforms and plane products) and ``normalize`` are its
        components on the FFT path.
        """
        reg = registry if registry is not None else get_registry()
        self._registry = reg
        (
            self._t_noise, self._t_bridge, self._t_build, self._t_kernel, self._t_norm,
            self._t_coloc_resolve, self._t_coloc_inner,
            self._m_plane_transforms, self._m_canvas_reuse,
        ) = reg.handles(_bind_handles)
        if getattr(self, "_cache_collector", True):
            reg.register_collector(self._collect_cache_samples)

    def _named_caches(self) -> tuple[tuple[str, LRUCache], ...]:
        return (
            ("stp-results", self._cache),
            ("stp-kernels", self._kernel_cache),
            ("stp-plane-ffts", self._plane_fft_cache),
        )

    def _collect_cache_samples(self):
        """Snapshot-time cache samples; summed across live estimators."""
        samples = []
        for name, cache in self._named_caches():
            stats = cache.stats()
            labels = {"cache": name}
            samples.append(("counter", "repro_cache_hits_total", labels, stats["hits"]))
            samples.append(("counter", "repro_cache_misses_total", labels, stats["misses"]))
            samples.append(
                ("counter", "repro_cache_evictions_total", labels, stats["evictions"])
            )
            samples.append(("gauge", "repro_cache_entries", labels, stats["size"]))
            if stats["max"] is not None:
                samples.append(("gauge", "repro_cache_capacity", labels, stats["max"]))
        return samples

    def stp(self, t: float) -> SparseDistribution:
        """Eq. 5: sparse distribution ``STP(·, t, Tra)`` over grid cells.

        Returns ``(cells, probs)`` with ``probs`` summing to 1, or two empty
        arrays when ``t`` lies outside the trajectory's time span.
        """
        return self.stp_batch([t])[0]

    def stp_batch(self, times) -> list[SparseDistribution]:
        """Eq. 5 at many query times in one vectorized pass.

        ``times`` is any 1-D sequence of timestamps (duplicates allowed).
        Returns one :data:`SparseDistribution` per input time, in input
        order, identical to calling :meth:`stp` per time.  Times between
        observations are looked up in the result cache once per distinct
        time, and the misses are evaluated together across segments (see
        the module docstring).
        """
        times_arr = np.asarray(times, dtype=float).ravel()
        stamps = self.trajectory.timestamps
        at = np.searchsorted(stamps, times_arr)
        inside = (times_arr >= stamps[0]) & (times_arr <= stamps[-1])
        observed = inside & (stamps[np.minimum(at, stamps.size - 1)] == times_arr)
        results: list[SparseDistribution] = [_EMPTY] * len(times_arr)
        for i in np.flatnonzero(observed):
            results[i] = self._observed[at[i]]
        bridged = np.flatnonzero(inside & ~observed)
        if bridged.size == 0:
            return results
        uniq, inverse = np.unique(times_arr[bridged], return_inverse=True)
        resolved = [self._cache.get(float(t)) for t in uniq]
        missing = [j for j, result in enumerate(resolved) if result is None]
        if missing:
            ts = uniq[missing]
            computed = self._bridge(np.searchsorted(stamps, ts) - 1, ts)
            for j, result in zip(missing, computed):
                resolved[j] = result
                self._cache.put(float(uniq[j]), result)
        for i, j in zip(bridged, inverse):
            results[i] = resolved[j]
        return results

    def stp_dense(self, t: float) -> np.ndarray:
        """Eq. 5 as a dense ``|R|``-vector (zeros outside the span)."""
        cells, probs = self.stp(t)
        dense = np.zeros(self.grid.n_cells)
        dense[cells] = probs
        return dense

    def credible_cells(self, t: float, mass: float = 0.9) -> np.ndarray:
        """Smallest set of cells holding at least ``mass`` probability at ``t``.

        The highest-probability cells are accumulated until the requested
        mass is covered — the discrete credible region of the object's
        position, useful for geofencing ("was the object plausibly inside
        this area at time t?") and for visualizing uncertainty.  Returns
        sorted cell indices; empty when ``t`` is outside the time span.
        """
        if not 0.0 < mass <= 1.0:
            raise ValueError(f"mass must be in (0, 1], got {mass}")
        cells, probs = self.stp(t)
        if cells.size == 0:
            return cells
        order = np.argsort(-probs, kind="stable")
        covered = np.cumsum(probs[order])
        # number of cells needed to reach the mass (at least one)
        needed = int(np.searchsorted(covered, mass - 1e-12)) + 1
        return np.sort(cells[order[:needed]])

    def cache_stats(self) -> dict[str, dict[str, int | None]]:
        """Per-cache ``{size, max, hits, misses, evictions}`` stats.

        Observability hook for long-lived estimators on the serving path:
        a memory-ceiling trip (``Budget.max_rss_mb``) says *that* the
        process grew, these counters say *where*.  The same numbers feed
        the registry's ``repro_cache_*`` metrics at snapshot time.  Pair
        with :meth:`clear_cache` to release the memoized state.
        """
        return {
            "results": self._cache.stats(),
            "kernels": self._kernel_cache.stats(),
            "plane_ffts": self._plane_fft_cache.stats(),
        }

    def clear_cache(self) -> None:
        """Drop memoized query results (the noise distributions stay)."""
        self._cache.clear()
        self._kernel_cache.clear()
        self._plane_fft_cache.clear()

    # ------------------------------------------------------------------
    def _bridge(self, los: np.ndarray, ts: np.ndarray) -> list[SparseDistribution]:
        """Eq. 4 at sorted times ``ts``, each strictly inside segment ``los``.

        FFT convolution for an isotropic transition model, explicit
        summation over the reachable cells for any other.
        """
        if self.transition_model.isotropic:
            return self._fft_bridge(los, ts)
        results: list[SparseDistribution] = []
        for lo, group in _segments(los):
            t0 = perf_counter()
            results += self._interpolate_pairwise_batch(lo, ts[group])
            self._t_bridge.inc(perf_counter() - t0)
        return results

    # ------------------------------------------------------------------
    # Explicit summation (non-isotropic transition models)
    # ------------------------------------------------------------------
    def _interpolate_pairwise_batch(self, lo: int, ts: np.ndarray) -> list[SparseDistribution]:
        """Eq. 4 by explicit summation over each query's candidate cells, for segment ``lo``."""
        p_lo, p_hi = self.trajectory[lo], self.trajectory[lo + 1]
        centers = self.grid.centers()
        cells_lo, probs_lo = self._observed[lo]
        cells_hi, probs_hi = self._observed[lo + 1]
        src_lo, src_hi = centers[cells_lo], centers[cells_hi]
        model = self.transition_model
        results: list[SparseDistribution] = []
        for t, dt1, dt2 in zip(ts.tolist(), (ts - p_lo.t).tolist(), (p_hi.t - ts).tolist()):
            candidates = self._candidate_cells(p_lo, p_hi, dt1, dt2)
            dst = centers[candidates]
            # forward(r)  = Σ_j f(r_j, ℓ_i)     · P(r, t | r_j, t_i)
            # backward(r) = Σ_k f(r_k, ℓ_{i+1}) · P(r_k, t_{i+1} | r, t)
            forward = probs_lo @ model.weights(src_lo, dst, dt1)
            backward = model.weights(dst, src_hi, dt2) @ probs_hi
            unnorm = forward * backward
            total = float(unnorm.sum())
            if total <= 0.0 or not np.isfinite(total):
                results.append(self._fallback(t, lo))
            else:
                results.append(self._sparsify(candidates, unnorm / total))
        return results

    def _candidate_cells(self, p_lo, p_hi, dt1: float, dt2: float) -> np.ndarray:
        """Cells where Eq. 4 can be non-negligible.

        Cells reachable from the earlier observation within ``dt1`` *and*
        able to reach the later one within ``dt2`` (each radius widened by
        the noise support); every cell when a radius is not finite.  Falls
        back to the union, then to the merged noise supports, so the
        candidate set is never empty.
        """
        pad = self.noise_model.support_radius(self.grid) + self.grid.cell_size
        r1 = self.transition_model.reachable_radius(dt1) + pad
        r2 = self.transition_model.reachable_radius(dt2) + pad
        if not (np.isfinite(r1) and np.isfinite(r2)):
            return np.arange(self.grid.n_cells)
        from_lo = self.grid.cells_within(p_lo.x, p_lo.y, r1)
        from_hi = self.grid.cells_within(p_hi.x, p_hi.y, r2)
        both = np.intersect1d(from_lo, from_hi, assume_unique=True)
        if both.size:
            return both
        either = np.union1d(from_lo, from_hi)
        if either.size:
            return either
        supports = [cells for cells, _ in self._observed]
        return np.unique(np.concatenate(supports))

    # ------------------------------------------------------------------
    # FFT-convolution evaluation (isotropic transition models)
    # ------------------------------------------------------------------
    def _fft_bridge(self, los: np.ndarray, ts: np.ndarray) -> list[SparseDistribution]:
        """Eq. 4 by FFT convolution at sorted ``ts``, one chunk at a time.

        A kernel depends on its gap alone, so the call's forward (``dt1``)
        and backward (``dt2``) gaps are deduplicated once, and a chunk
        transforms each distinct gap it reads once.  A call of several
        chunks first transforms the gaps that more than one of its chunks
        reads, most-read first, into a table its chunks gather from
        (:meth:`_gap_table`).
        """
        t0 = perf_counter()
        stamps = self.trajectory.timestamps
        chunk = self._fft_geometry().chunk
        q = len(ts)
        gaps, gap_of = np.unique(
            np.concatenate([ts - stamps[los], stamps[los + 1] - ts]), return_inverse=True
        )
        halves = self._kernel_halves(gaps)
        if q > chunk:
            # Each distinct (chunk, gap) pair once: chunk c reads the gaps
            # pair_gap[bounds[c]:bounds[c + 1]], and kernel k is pair slot[k].
            pairs, slot = np.unique(
                np.tile(np.arange(q) // chunk, 2) * gaps.size + gap_of, return_inverse=True
            )
            bounds = np.searchsorted(pairs, np.arange(-(-q // chunk) + 1) * gaps.size)
            pair_gap = pairs % gaps.size
            del gap_of, pairs
        bookkeeping = perf_counter() - t0
        self._t_build.inc(bookkeeping)
        self._t_bridge.inc(bookkeeping)
        if q <= chunk:
            table = _GapTable(gaps, halves, None, None)
            return self._fft_chunk(los, ts, table, np.arange(gaps.size), gap_of)
        table = self._gap_table(gaps, halves, pair_gap, int(np.diff(bounds).max()))
        bounds = bounds.tolist()
        results: list[SparseDistribution] = []
        for c, start in enumerate(range(0, q, chunk)):
            stop = min(start + chunk, q)
            part, back = slice(start, stop), slice(q + start, q + stop)
            a, b = bounds[c], bounds[c + 1]
            local = np.concatenate([slot[part], slot[back]]) - a
            results += self._fft_chunk(los[part], ts[part], table, pair_gap[a:b], local)
        return results

    def _gap_table(
        self, gaps: np.ndarray, halves: np.ndarray, pair_gap: np.ndarray, widest: int
    ) -> _GapTable:
        """The spectra that several chunks of one call read, transformed once.

        ``pair_gap`` lists the gaps each chunk of the call reads, each
        once per chunk, and no chunk reads more than ``widest`` distinct
        gaps.  The gaps read by more than one chunk are taken most-read
        first, as many as fit in :data:`FFT_CHUNK_BYTES` beside the
        ``widest`` spectra of one chunk, and each is transformed once, in
        pieces of at most a chunk's kernels.  Without a repeated gap the
        table is empty and holds nothing.
        """
        t0 = perf_counter()
        geom = self._fft_geometry()
        m_r, m_c = geom.shape
        reads = np.bincount(pair_gap, minlength=gaps.size)
        shared = np.flatnonzero(reads > 1)
        room = FFT_CHUNK_BYTES // (16 * m_r * (m_c // 2 + 1)) - widest
        chosen = np.sort(shared[np.argsort(-reads[shared], kind="stable")][: max(room, 0)])
        if chosen.size == 0:
            return _GapTable(gaps, halves, None, None)
        rows = np.full(gaps.size, -1, dtype=np.int64)
        rows[chosen] = np.arange(chosen.size)
        store = np.empty((chosen.size, m_r, m_c // 2 + 1), dtype=complex)
        build = 0.0
        piece = 2 * geom.chunk
        for start in range(0, chosen.size, piece):
            part = chosen[start : start + piece]
            t1 = perf_counter()
            stack = self._kernel_stack(gaps[part], halves[part])
            build += perf_counter() - t1
            store[start : start + part.size] = _fft.rfft2(stack, s=geom.shape)
        total = perf_counter() - t0
        self._t_build.inc(build)
        self._t_kernel.inc(total - build)
        self._t_bridge.inc(total)
        return _GapTable(gaps, halves, store, rows)

    def _fft_chunk(
        self,
        los: np.ndarray,
        ts: np.ndarray,
        table: _GapTable,
        ids: np.ndarray,
        local: np.ndarray,
    ) -> list[SparseDistribution]:
        """Eq. 4 via 2-D convolution over the grid lattice, for one chunk.

        With an isotropic transition model, ``forward = f_lo ⊛ K_{dt1}``
        and ``backward = f_hi ⊛ K_{dt2}`` where ``K_dt`` is the radial
        kernel of transition weights between cell offsets.  Equivalent to
        explicit summation up to FFT round-off.

        The chunk's kernels are its forward kernels (plane ``lo``), then
        its backward ones (plane ``lo + 1``); kernel ``k`` is the kernel
        of gap ``table.gaps[ids[local[k]]]``, and ``ids`` lists the
        chunk's distinct gaps, ascending.  Each kernel is drawn on the
        smallest canvas from a geometric size series covering its own
        transition radius and embedded, centered, on the estimator's fixed
        convolution canvas (:meth:`_kernel_stack`, see
        :meth:`_fft_geometry`).  The gaps missing from the table take one
        stacked ``rfft2``, and the spectra are gathered into a fresh stack
        in kernel order; pocketfft transforms a kernel to the same bits
        whatever stack it sits in.  Each segment's
        run of spectra is multiplied by its noise-plane spectrum, and one
        ``irfft2`` returns every convolution.  The transforms are sized so
        that each convolution is alias-free on its observation's frame
        (the argument is in :meth:`_fft_geometry`); consecutive segments
        whose windows are read from the same places form one run of
        :meth:`_normalize`.

        A query whose two reaches miss each other takes :meth:`_fallback`:
        observation ``lo``'s support box dilated by the canvas half of
        ``dt1`` and observation ``lo + 1``'s dilated by that of ``dt2``
        are disjoint, that is, on some axis the two halves add up to no
        more than the cells between the supports.  A kernel is exactly
        zero outside its canvas, so the product is zero everywhere but
        for round-off.
        """
        t0 = perf_counter()
        geom = self._fft_geometry()
        q = len(ts)
        reach = table.halves[ids[local]]
        missed = (reach[:q] + reach[q:] <= geom.seps[los]).any(axis=1)
        rows = None if table.store is None else table.rows[ids]
        fresh = ids if rows is None else ids[rows < 0]
        stack = self._kernel_stack(table.gaps[fresh], table.halves[fresh])
        t1 = perf_counter()
        own = _fft.rfft2(stack, s=geom.shape) if fresh.size else None
        del stack
        if rows is None:
            spectra = own.take(local, axis=0)
        else:
            source = rows[local]
            spectra = table.store.take(np.maximum(source, 0), axis=0)
            if fresh.size:
                # The kernels of the chunk's own gaps, over the rows taken for them.
                at = np.flatnonzero(source < 0)
                spectra[at] = own[(np.cumsum(rows < 0) - 1)[local[at]]]
        del own
        planes = self._plane_spectra(np.union1d(los, los + 1).tolist())
        runs: list[list] = []  # [start, stop, window] of consecutive queries
        for lo, group in _segments(los):
            # The kernel spectrum is the left operand, one plane per run,
            # so every product is bitwise the same whatever the chunk.
            spectra[group] *= planes[lo]
            spectra[q + group.start : q + group.stop] *= planes[lo + 1]
            window = geom.windows[lo]
            if runs and runs[-1][2] == window:
                runs[-1][1] = group.stop
            else:
                runs.append([group.start, group.stop, window])
        conv = _fft.irfft2(spectra, s=geom.shape)
        del spectra
        t2 = perf_counter()
        results = self._normalize(conv, runs, los, ts, missed)
        t3 = perf_counter()
        self._t_build.inc(t1 - t0)
        self._t_kernel.inc(t2 - t1)
        self._t_norm.inc(t3 - t2)
        self._t_bridge.inc(t3 - t0)
        return results

    def _normalize(
        self,
        conv: np.ndarray,
        runs: list[list],
        los: np.ndarray,
        ts: np.ndarray,
        missed: np.ndarray,
    ) -> list[SparseDistribution]:
        """Each query's forward × backward on its window, as a distribution.

        ``conv`` holds the chunk's forward convolutions, then its backward
        ones; ``runs`` cuts the queries into ``[start, stop, window]``
        runs that read the same window (see :class:`_FFTGeometry`).  A
        run's products fill one C-contiguous ``[queries, cells]`` block of
        a flat buffer, so its ``sum(axis=1)`` is bitwise each row's own
        ``.sum()``.  Negative FFT round-off is clipped, each row is divided
        by its sum, entries at or below :data:`_SPARSE_EPS` are dropped and
        the kept entries are renormalized, each row on its own: a masked
        full-row sum would group the pairwise sum differently.  A row
        without usable mass, or whose frames do not meet, falls back to
        :meth:`_fallback`.

        Kept entries map back to ascending grid cells through the window's
        cell table.  Every result owns its arrays, so the result cache pins
        nothing chunk-wide.
        """
        q = len(ts)
        n_cols = self.grid.n_cols
        unnorm = np.empty(
            sum((b - a) * (w[2] - w[0]) * (w[3] - w[1]) for a, b, w in runs if w)
        )
        totals = np.zeros(q)
        edges: list[int] = []  # each row's start in unnorm
        tables: list = []  # per run: the grid cell of each window entry
        off = 0
        for a, b, window in runs:
            if window is None:
                edges += [off] * (b - a)
                tables.append(None)
                continue
            r0, c0, r1, c1, fr, fc, br, bc = window
            height, width = r1 - r0, c1 - c0
            size = (b - a) * height * width
            block = unnorm[off : off + size].reshape(b - a, height * width)
            np.multiply(
                conv[a:b, fr : fr + height, fc : fc + width],
                conv[q + a : q + b, br : br + height, bc : bc + width],
                out=block.reshape(b - a, height, width),
            )
            np.maximum(block, 0.0, out=block)
            block.sum(axis=1, out=totals[a:b])
            edges += range(off, off + size, height * width)
            rows = np.arange(r0 * n_cols, r1 * n_cols, n_cols)
            tables.append((rows[:, None] + np.arange(c0, c1)).ravel())
            off += size
        edges.append(off)
        usable = (totals > 0.0) & np.isfinite(totals) & ~missed
        unnorm /= np.repeat(np.where(usable, totals, 1.0), np.diff(edges))
        flat = np.flatnonzero(unnorm > _SPARSE_EPS)
        kept = unnorm[flat]
        bounds = np.searchsorted(flat, edges).tolist()
        usable = usable.tolist()
        results: list[SparseDistribution] = []
        for (a, b, _), table in zip(runs, tables):
            for i in range(a, b):
                lo, hi = bounds[i], bounds[i + 1]
                if lo == hi or not usable[i]:
                    results.append(self._fallback(float(ts[i]), int(los[i])))
                    continue
                probs = kept[lo:hi]
                results.append((table[flat[lo:hi] - edges[i]], probs / np.add.reduce(probs)))
        return results

    def _kernel_stack(self, gaps: np.ndarray, halves: np.ndarray) -> np.ndarray:
        """The transition kernel of each of the ascending ``gaps``, on the fixed canvas.

        Kernel ``i`` holds ``h·Q̂(d / gaps[i])`` over the cell offsets of
        its canvas, ``halves[i]`` from :meth:`_kernel_halves`: the
        smallest of :meth:`_span_buckets` that covers the gap's own
        transition radius, so it depends on its own gap alone.  Kernels
        are memoized by exact gap and canvas.  The misses of each canvas
        are evaluated in one
        :meth:`~.transition.TransitionModel.distance_weights_batch` call on
        its lattice points and scattered onto the canvas with the
        lattice's index (:meth:`_canvas_lattice`).
        """
        half_r, half_c = self._fft_geometry()[:2]
        stack = np.zeros((gaps.size, 2 * half_r + 1, 2 * half_c + 1))
        canvases = list(map(tuple, halves.tolist()))
        keys = [(gap, *canvas) for gap, canvas in zip(gaps.tolist(), canvases)]
        kernels = [self._kernel_cache.get(key) for key in keys]
        missing = [j for j, kernel in enumerate(kernels) if kernel is None]
        # The gaps are sorted and a radius grows with its gap, so the
        # misses of one canvas normally form one group.
        for (h_r, h_c), group in itertools.groupby(missing, key=canvases.__getitem__):
            group = list(group)
            points, lattice = self._canvas_lattice(h_r, h_c)
            weights = self.transition_model.distance_weights_batch(points, gaps[group])
            shape = (len(group), 2 * h_r + 1, 2 * h_c + 1)
            for j, kernel in zip(group, weights.take(lattice, axis=1).reshape(shape)):
                kernels[j] = kernel.copy()  # a cached kernel must not pin its batch
                self._kernel_cache.put(keys[j], kernels[j])
        for i, (h_r, h_c) in enumerate(canvases):
            stack[i, half_r - h_r : half_r + h_r + 1, half_c - h_c : half_c + h_c + 1] = kernels[i]
        return stack

    def _fft_geometry(self) -> _FFTGeometry:
        """Canvas halves, transform shape, chunk length, plane origins, windows.

        The canvas is sized for the transition radius of the trajectory's
        largest gap between consecutive observations — no in-segment query
        can have a larger ``dt``, so every kernel fits (clipped to the grid,
        like everything else, at worst).

        Per axis, take the grid's ``n`` cells, the canvas half ``h`` and
        observation ``i``'s support rows ``[s0, s1)``.  Its convolutions
        can be nonzero only on its *frame* ``V = [max(0, s0 − h),
        min(n, s1 + h))``.  Its plane is drawn with grid row ``o`` (its
        origin) at transform index 0 and the kernel's centre at index
        ``h``, so grid row ``r`` of a convolution lands at ``r − o + h``.
        The linear convolution has support ``[s0 − o, s1 − o + 2h)``, and
        a circular transform of length ``M`` keeps the frame alias-free
        when the frame fits inside ``[0, M)`` (``o ≥ V1 + h − M``, which
        also fits the plane as ``V1 ≥ s1``; ``o ≤ s0`` holds by ``V0 ≥ s0
        − h``) and the next alias of the frame's first row lies past the
        support (``M ≥ s1 + h − V0``).  The range ``[V1 + h − M, s0]`` is
        non-empty when ``M ≥ V1 − s0 + h``.  So ``M`` is the fast length
        of at least ``max(2h + 1, maxᵢ(s1 + h − V0), maxᵢ(V1 − s0 + h))``
        — the ``2h + 1`` because ``rfft2`` crops a longer canvas — and
        never exceeds the fast length of ``n + h``.  Each origin is the
        largest lower end ``maxᵢ(V1 + h) − M`` clipped into its own range,
        so observations whose frames cover the grid share one alignment.

        A segment's window is the intersection of its two frames: a
        query's forward × backward product is zero outside it.  A chunk of
        queries holds two kernel canvases, their spectra and their
        convolutions per query within :data:`FFT_CHUNK_BYTES`.
        """
        geom = getattr(self, "_fft_geometry_cached", None)
        if geom is None:
            grid = self.grid
            gaps = np.diff(self.trajectory.timestamps)
            halves = self._kernel_halves(np.array([gaps.max() if gaps.size else 0.0]))[0]
            sizes = [cells.size for cells, _ in self._observed]
            at = np.stack(
                np.divmod(np.concatenate([cells for cells, _ in self._observed]), grid.n_cols),
                axis=1,
            )
            starts = np.cumsum(sizes) - sizes
            s0 = np.minimum.reduceat(at, starts)
            s1 = np.maximum.reduceat(at, starts) + 1
            v0 = np.maximum(s0 - halves, 0)
            v1 = np.minimum(s1 + halves, [grid.n_rows, grid.n_cols])
            need = np.maximum(np.maximum(s1 - v0, v1 - s0).max(axis=0) + halves, 2 * halves + 1)
            shape = np.array([_fft.next_fast_len(m, True) for m in need.tolist()])
            # V1 ≥ s1, so V1 + h − M is every observation's lower bound.
            origins = np.minimum(v1.max(axis=0) + halves - shape, s0)
            w0 = np.maximum(v0[:-1], v0[1:])
            w1 = np.minimum(v1[:-1], v1[1:])
            table = np.concatenate(
                [w0, w1, w0 - origins[:-1] + halves, w0 - origins[1:] + halves], axis=1
            )
            windows = [
                tuple(row) if row[0] < row[2] and row[1] < row[3] else None
                for row in table.tolist()
            ]
            half_r, half_c = halves.tolist()
            m_r, m_c = shape.tolist()
            per_kernel = (
                8 * (2 * half_r + 1) * (2 * half_c + 1)
                + 16 * m_r * (m_c // 2 + 1)
                + 8 * m_r * m_c
            )
            chunk = max(1, FFT_CHUNK_BYTES // (2 * per_kernel))
            geom = self._fft_geometry_cached = _FFTGeometry(
                half_r, half_c, (m_r, m_c), chunk, origins, windows,
                np.maximum(s0[1:] - s1[:-1], s0[:-1] - s1[1:]),
            )
        return geom

    def _kernel_halves(self, dts: np.ndarray) -> np.ndarray:
        """Kernel-canvas half-extents ``(rows, cols)`` covering each ``dt``, one row each.

        The natural half-extent (transition radius in cells, plus one) is
        rounded up to the geometric bucket series of :meth:`_span_buckets`,
        so only a handful of kernel shapes exist per grid.
        """
        grid = self.grid
        radii = self.transition_model.reachable_radius(dts)
        spans = np.ceil(radii / grid.cell_size).astype(np.int64) + 1
        series = self._span_buckets()
        buckets = series[np.minimum(np.searchsorted(series, spans), series.size - 1)]
        return np.minimum(buckets[:, None], [grid.n_rows - 1, grid.n_cols - 1])

    def _span_buckets(self) -> np.ndarray:
        """Ascending canvas-size bucket series (1, 2, 3, 5, 8, 12, ...) covering the grid."""
        series = getattr(self, "_span_bucket_series", None)
        if series is None:
            top = max(self.grid.n_rows, self.grid.n_cols)
            vals = [1]
            while vals[-1] < top:
                vals.append(max(vals[-1] + 1, (vals[-1] * 3 + 1) // 2))
            series = self._span_bucket_series = np.array(vals, dtype=np.int64)
        return series

    def _plane_spectra(self, indices: list[int]) -> dict[int, np.ndarray]:
        """Forward real FFTs of the noise planes of observations ``indices``.

        Each plane is drawn at its origin (:meth:`_fft_geometry`).  Cached
        per observation; the missing planes are drawn on one stack and
        transformed in one call.
        """
        spectra: dict[int, np.ndarray] = {}
        missing = []
        for index in indices:
            cached = self._plane_fft_cache.get(index)
            if cached is None:
                missing.append(index)
            else:
                spectra[index] = cached
        self._m_canvas_reuse.inc(len(spectra))
        if missing:
            n_cols = self.grid.n_cols
            geom = self._fft_geometry()
            planes = np.zeros((len(missing), *geom.shape))
            for k, index in enumerate(missing):
                cells, probs = self._observed[index]
                o_r, o_c = geom.origins[index]
                planes[k, cells // n_cols - o_r, cells % n_cols - o_c] = probs
            for index, value in zip(missing, _fft.rfft2(planes)):
                # A copy, so a cached spectrum does not keep its whole stack alive.
                spectra[index] = value = value.copy()
                self._plane_fft_cache.put(index, value)
            self._m_plane_transforms.inc(len(missing))
        return spectra

    def _canvas_lattice(self, rows_half: int, cols_half: int) -> tuple[np.ndarray, np.ndarray]:
        """Distances at which a kernel canvas is evaluated, and their layout.

        Returns ``(points, lattice)``: ``points[lattice]`` is the canvas's
        offset-distance lattice, flattened.  The lattice is 8-fold
        symmetric, so ``points`` is normally its unique distances.  The
        speed model picks its exact sum or its table by how many values a
        row asks for (``KDESpeedModel`` takes the table above
        :data:`~.speed.EXACT_ROW_MAX`), and the path must depend on the
        canvas alone: a canvas of more cells than that, but with no more
        unique distances, is evaluated at every cell.  Cached per canvas
        shape, across every ``dt`` sharing it.
        """

        def build() -> tuple[np.ndarray, np.ndarray]:
            dx = np.arange(-cols_half, cols_half + 1)
            dy = np.arange(-rows_half, rows_half + 1)
            dist = (np.hypot(dx[None, :], dy[:, None]) * self.grid.cell_size).ravel()
            unique, inverse = np.unique(dist, return_inverse=True)
            if unique.size <= EXACT_ROW_MAX < dist.size:
                return dist, np.arange(dist.size)
            return unique, inverse

        return self._kernel_cache.get_or_compute(("lattice", rows_half, cols_half), build)

    # ------------------------------------------------------------------
    @staticmethod
    def _sparsify(cells: np.ndarray, probs: np.ndarray) -> SparseDistribution:
        """Drop negligible entries and renormalize."""
        keep = probs > _SPARSE_EPS
        if not keep.all():
            cells = cells[keep]
            probs = probs[keep]
            probs = probs / probs.sum()
        return cells, probs

    def _fallback(self, t: float, lo: int) -> SparseDistribution:
        """Numerical-underflow fallback.

        When every candidate weight underflows (the object moved far faster
        than its speed model considers plausible — e.g. after heavy
        downsampling of a single long gap), Eq. 4 is 0/0.  We resolve it by
        placing the mass at the time-weighted linear interpolation between
        the two bracketing observations, the least-informative consistent
        answer.
        """
        p_lo, p_hi = self.trajectory[lo], self.trajectory[lo + 1]
        span = p_hi.t - p_lo.t
        w = (t - p_lo.t) / span if span > 0 else 0.5
        x = p_lo.x + w * (p_hi.x - p_lo.x)
        y = p_lo.y + w * (p_hi.y - p_lo.y)
        cell = self.grid.cell_of(x, y)
        return np.array([cell], dtype=int), np.ones(1)

    # Metric handles hold locks, which do not pickle; an estimator
    # crossing a process boundary rebinds to the worker's own registry.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for key in (
            "_registry", "_t_noise", "_t_bridge", "_t_build", "_t_kernel", "_t_norm",
            "_t_coloc_resolve", "_t_coloc_inner",
            "_m_plane_transforms", "_m_canvas_reuse",
        ):
            state.pop(key, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._init_obs()

    def __repr__(self) -> str:
        return f"<TrajectorySTP n={len(self.trajectory)} grid={self.grid.n_cols}x{self.grid.n_rows}>"
