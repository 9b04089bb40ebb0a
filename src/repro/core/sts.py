"""The STS measure (Section V-B, Eq. 10) and its ablation variants.

``STS(Tra, Tra')`` is the average co-location probability over the union of
the two trajectories' timestamps:

    STS = ( Σ_i CP(t_i) + Σ_j CP(t'_j) ) / ( |Tra| + |Tra'| )

Averaging (rather than summing) makes the measure insensitive to trajectory
length, which varies under sporadic sampling.

:class:`STS` is configured once with a grid, a noise model and a transition
policy, then applied to any number of trajectory pairs.  The ablation
variants of Section VI-C are thin configurations of the same machinery:

* :func:`sts_n` — no noise model (deterministic locations);
* :func:`sts_g` — one global speed distribution pooled from a corpus
  instead of a personalized one per trajectory;
* :func:`sts_f` — frequency-based Markov transitions fitted on a corpus.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Iterable, Sequence

import numpy as np

from ..obs import get_registry, trace_span
from .cache import LRUCache
from .colocation import colocation_batch
from .grid import Grid
from .kernel import plan_sub_blocks, resolve_block, score_sides
from .noise import DeterministicNoiseModel, GaussianNoiseModel, NoiseModel
from .speed import GaussianSpeedModel, KDESpeedModel
from .stprob import TrajectorySTP
from .transition import FrequencyTransitionModel, SpeedTransitionModel, TransitionModel
from .trajectory import Trajectory

__all__ = ["STS", "sts_n", "sts_g", "sts_f", "sts_b"]

TransitionFactory = Callable[[Trajectory], TransitionModel]


def _personalized_transition(trajectory: Trajectory) -> TransitionModel:
    """Default policy: Eq. 6–7, a KDE speed model from the trajectory itself."""
    return SpeedTransitionModel(KDESpeedModel.from_trajectory(trajectory))


class _SharedTransition:
    """Factory returning one shared model for every trajectory.

    A named class rather than a lambda so that measures configured with a
    shared transition model (STS-G, STS-F) stay picklable — the process
    backend of :mod:`repro.parallel` ships the measure to each worker.
    """

    def __init__(self, model: TransitionModel):
        self.model = model

    def __call__(self, _trajectory: Trajectory) -> TransitionModel:
        return self.model

    def __repr__(self) -> str:
        return f"_SharedTransition({self.model!r})"


def _brownian_transition(trajectory: Trajectory) -> TransitionModel:
    """Per-trajectory Gaussian speed law (the STS-B ablation policy)."""
    speeds = trajectory.speeds()
    if speeds.size == 0:
        return SpeedTransitionModel(GaussianSpeedModel(mean=0.0, std=1e-3))
    mean = float(speeds.mean())
    std = max(float(speeds.std()), 0.05 * max(mean, 1e-3), 1e-3)
    return SpeedTransitionModel(GaussianSpeedModel(mean=mean, std=std))


class STS:
    """Spatial-Temporal Similarity measure for trajectory pairs.

    Parameters
    ----------
    grid:
        Spatial partition of the area of interest.  The paper recommends a
        cell size close to the localization error (Section VI-E).
    noise_model:
        Location-noise distribution of the sensing system.  Defaults to a
        Gaussian with ``sigma = grid.cell_size`` (the paper's "grid size ≈
        location error" operating point).
    transition:
        One of: ``None`` (default — personalized KDE speed transitions per
        trajectory, Eq. 6–7); a :class:`TransitionModel` instance shared by
        all trajectories (the STS-G / STS-F ablations); or a callable
        ``Trajectory -> TransitionModel`` for custom policies.
    mode:
        ``"auto"`` (default), ``"fft"``, ``"pruned"`` or ``"dense"`` —
        passed to :class:`TrajectorySTP`; see :mod:`repro.core.stprob`.
    cache_size:
        Maximum number of trajectories whose estimator state is kept alive
        at once (LRU eviction beyond that).  ``None`` means unbounded — the
        pre-bounded historical behaviour.  Size it to the working set: a
        pairwise matrix over a gallery wants ``cache_size >= len(gallery)``
        to avoid rebuilding estimators, while a streaming service matching
        one query at a time is happy with a small cache.
    stp_cache_size:
        Per-trajectory query/kernel cache capacity, forwarded to
        :class:`TrajectorySTP` (``0`` disables memoization entirely).
    registry:
        Metrics registry receiving similarity-call counters, latency
        histograms and stage timings, and forwarded to every estimator
        this measure builds.  Defaults to the process-wide registry
        (:func:`repro.obs.get_registry`); a no-op when ``REPRO_OBS=off``.

    Notes
    -----
    Similarities lie in ``[0, 1]`` and the measure is symmetric.  Instances
    cache per-trajectory state (noise distributions, speed models,
    interpolation results) keyed by trajectory identity, so reusing one
    instance across a whole similarity matrix is much cheaper than
    constructing it per pair.  Call :meth:`clear_cache` between unrelated
    datasets to release memory.
    """

    name = "STS"
    #: STS is a similarity (duck-types :class:`repro.similarity.base.Measure`).
    higher_is_better = True

    def __init__(
        self,
        grid: Grid,
        noise_model: NoiseModel | None = None,
        transition: TransitionModel | TransitionFactory | None = None,
        mode: str = "auto",
        cache_size: int | None = 512,
        stp_cache_size: int | None = 4096,
        registry=None,
    ):
        self.grid = grid
        self.noise_model = noise_model if noise_model is not None else GaussianNoiseModel(grid.cell_size)
        if transition is None:
            self._transition_factory: TransitionFactory = _personalized_transition
        elif isinstance(transition, TransitionModel):
            self._transition_factory = _SharedTransition(transition)
        elif callable(transition):
            self._transition_factory = transition
        else:
            raise TypeError(
                "transition must be None, a TransitionModel, or a callable "
                f"Trajectory -> TransitionModel; got {type(transition).__name__}"
            )
        self.mode = mode
        self.stp_cache_size = stp_cache_size
        self._stp_cache = LRUCache(cache_size)  # id -> (Trajectory, TrajectorySTP)
        self._init_obs(registry)

    # ------------------------------------------------------------------
    def _init_obs(self, registry=None) -> None:
        """Bind metric handles once (hot paths pay one dict-add each)."""
        reg = registry if registry is not None else get_registry()
        self._registry = reg
        self._m_calls = reg.counter(
            "repro_sts_similarity_calls_total", "similarity() evaluations (Eq. 10)"
        ).child()
        self._h_similarity = reg.histogram(
            "repro_similarity_seconds", "Wall seconds per similarity() call"
        ).child()
        self._h_pairwise = reg.histogram(
            "repro_pairwise_seconds", "Wall seconds per pairwise() call"
        ).child()
        stage = reg.counter(
            "repro_stage_seconds_total", "Wall seconds spent per pipeline stage"
        )
        self._t_prewarm = stage.child(component="sts", stage="prewarm")
        self._t_pairloop = stage.child(component="sts", stage="pair-loop")
        reg.register_collector(self._collect_cache_samples)

    def _collect_cache_samples(self):
        """Snapshot-time cache samples, aggregated across the estimator pool.

        Estimators built by :meth:`stp_for` skip their own collectors
        (``cache_collector=False``); this single collector walks them and
        sums their cache counters in plain Python, so a registry snapshot
        folds ~30 samples instead of ~25 per live estimator — the
        difference between a 0.1 ms and a 2 ms worker delta on a hot
        gallery shard.  Eviction from ``_stp_cache`` drops an estimator's
        contribution, matching the old weak-collector lifetime.
        """
        stats = self._stp_cache.stats()
        labels = {"cache": "sts-estimators"}
        samples = [
            ("counter", "repro_cache_hits_total", labels, stats["hits"]),
            ("counter", "repro_cache_misses_total", labels, stats["misses"]),
            ("counter", "repro_cache_evictions_total", labels, stats["evictions"]),
            ("gauge", "repro_cache_entries", labels, stats["size"]),
        ]
        if stats["max"] is not None:
            samples.append(("gauge", "repro_cache_capacity", labels, stats["max"]))
        totals: dict[str, list] = {}
        for entry in self._stp_cache.values():
            for name, cache in entry[1]._named_caches():
                agg = totals.get(name)
                if agg is None:
                    totals[name] = agg = [0, 0, 0, 0, 0, False]
                hits, misses, evictions, size = cache.counts()
                agg[0] += hits
                agg[1] += misses
                agg[2] += evictions
                agg[3] += size
                if cache.maxsize is not None:
                    agg[4] += cache.maxsize
                    agg[5] = True
        for name, (hits, misses, evictions, size, cap, has_cap) in totals.items():
            labels = {"cache": name}
            samples.append(("counter", "repro_cache_hits_total", labels, hits))
            samples.append(("counter", "repro_cache_misses_total", labels, misses))
            samples.append(
                ("counter", "repro_cache_evictions_total", labels, evictions)
            )
            samples.append(("gauge", "repro_cache_entries", labels, size))
            if has_cap:
                samples.append(("gauge", "repro_cache_capacity", labels, cap))
        return samples

    def stp_for(self, trajectory: Trajectory) -> TrajectorySTP:
        """The (cached) S-T probability estimator for ``trajectory``."""
        key = id(trajectory)
        hit = self._stp_cache.get(key)
        if hit is not None and hit[0] is trajectory:
            return hit[1]
        stp = TrajectorySTP(
            trajectory,
            self.grid,
            self.noise_model,
            self._transition_factory(trajectory),
            mode=self.mode,
            cache_size=self.stp_cache_size,
            registry=self._registry,
            cache_collector=False,
        )
        self._stp_cache.put(key, (trajectory, stp))
        return stp

    def clear_cache(self) -> None:
        """Release all cached per-trajectory state."""
        self._stp_cache.clear()

    # ------------------------------------------------------------------
    def similarity(self, tra1: Trajectory, tra2: Trajectory, budget=None) -> float:
        """Eq. 10: average co-location probability over both timestamp sets.

        Timestamps at which one trajectory is outside its observed span
        contribute 0 (Eq. 5 case 3) but still count in the denominator,
        exactly as the paper defines the average.  The score is a 1×1
        :meth:`similarity_block`, so it is bitwise the entry any larger
        block (or :meth:`pairwise`) gives the same pair.

        ``budget`` (a :class:`repro.serving.Budget`) routes the call
        through the anytime evaluator: if the budget expires mid-pair the
        returned float is the midpoint of a rigorous ``[lower, upper]``
        interval around the exact score (use
        :func:`repro.serving.anytime_similarity` directly to see the
        bound).  An exhausted-free budget returns the exact score,
        bitwise identical to the unbudgeted path.
        """
        t0 = perf_counter()
        try:
            if budget is not None and budget.bounded:
                from ..serving.anytime import anytime_similarity

                self._m_calls.inc()
                return anytime_similarity(self, tra1, tra2, budget=budget).value
            with trace_span("sts.similarity"):
                return float(self.similarity_block([tra1], [tra2])[0, 0])
        finally:
            self._h_similarity.observe(perf_counter() - t0)

    def similarity_block(
        self,
        rows: Sequence[Trajectory],
        cols: Sequence[Trajectory] | None = None,
    ) -> np.ndarray:
        """Eq. 10 for every pair of a ``rows × cols`` block, through the block kernel.

        ``S[i, j] = STS(rows[i], cols[j])``; ``cols=None`` scores ``rows``
        against themselves (a bitwise-symmetric matrix).  Resolution, the
        two sparse products and the reduction are those of
        :mod:`repro.core.kernel`; every entry equals the 1×1 call on its
        pair bitwise.  Large blocks run as the sub-blocks of
        :func:`repro.core.kernel.plan_sub_blocks`, so the working set
        stays bounded however large the block is.  The similarity-call
        counter grows by the number of distinct pairs scored.
        """
        rows = list(rows)
        cols = None if cols is None else list(cols)
        gallery = rows if cols is None else cols
        out = np.empty((len(rows), len(gallery)))
        plan = plan_sub_blocks(
            [len(t) for t in rows], None if cols is None else [len(t) for t in cols]
        )
        with trace_span("sts.block", rows=len(rows), cols=len(gallery)):
            for sub_rows, sub_cols in plan:
                t0 = perf_counter()
                with trace_span("sts.resolve"):
                    row_side, col_side = resolve_block(
                        self.stp_for,
                        rows[sub_rows],
                        None if sub_cols is None else gallery[sub_cols],
                    )
                t1 = perf_counter()
                with trace_span("sts.multiply"):
                    scores = score_sides(row_side, col_side, self.grid.n_cells)
                self._t_prewarm.inc(t1 - t0)
                self._t_pairloop.inc(perf_counter() - t1)
                out[sub_rows, sub_rows if sub_cols is None else sub_cols] = scores
                if cols is None and sub_cols is not None:
                    out[sub_cols, sub_rows] = scores.T
        n = len(rows)
        self._m_calls.inc(n * (n + 1) // 2 if cols is None else out.size)
        return out

    def __call__(self, tra1: Trajectory, tra2: Trajectory) -> float:
        return self.similarity(tra1, tra2)

    def score(self, tra1: Trajectory, tra2: Trajectory) -> float:
        """Measure-protocol alias: STS already orients higher = more similar."""
        return self.similarity(tra1, tra2)

    def colocation_profile(self, tra1: Trajectory, tra2: Trajectory) -> tuple[np.ndarray, np.ndarray]:
        """Per-timestamp co-location probabilities (for inspection/plots).

        Returns the sorted union of both timestamp sets and the co-location
        probability at each — the terms whose average is Eq. 10.

        .. warning::
           The union **deduplicates** timestamps shared by both
           trajectories, so ``cps.mean()`` is *not* Eq. 10 when the two
           timestamp sets overlap: :meth:`similarity` follows the paper and
           counts a shared timestamp once per trajectory (i.e. twice — once
           in ``Σ_i CP(t_i)`` and once in ``Σ_j CP(t'_j)``, with the
           denominator ``|Tra| + |Tra'|``), while the profile lists it
           once.  The profile is an inspection view of *where in time* the
           co-location mass lives, not a term-for-term expansion of the
           measure.  ``tests/test_sts.py`` pins both behaviours.
        """
        stp1 = self.stp_for(tra1)
        stp2 = self.stp_for(tra2)
        times = np.union1d(tra1.timestamps, tra2.timestamps)
        cps = colocation_batch(stp1, stp2, times)
        return times, cps

    def pairwise(
        self,
        gallery: Sequence[Trajectory],
        queries: Sequence[Trajectory] | None = None,
        n_jobs: int | None = None,
        backend: str = "auto",
        checkpoint: str | None = None,
        deadline: float | None = None,
        shm: bool | str | None = None,
        chunking: str | None = None,
        cluster=None,
    ) -> np.ndarray:
        """Similarity matrix between two trajectory collections.

        Returns ``S[i, j] = STS(queries[i], gallery[j])``.  With
        ``queries=None`` the matrix is ``gallery`` against itself, computed
        symmetrically (each unordered pair once).  In-process, the whole
        matrix is one :meth:`similarity_block`.

        ``n_jobs`` > 1 cuts the matrix into blocks scored by worker
        processes (or threads — see :class:`repro.parallel.ParallelSTS` and
        ``backend``); ``-1`` uses every available core.  The parallel
        matrix matches the serial one bitwise regardless of worker count,
        and the pool is supervised: dead/hung workers are retried and the
        backend degrades rather than failing the run.

        ``shm`` controls the corpus transport for the process backend:
        ``"auto"`` (default) broadcasts the trajectories once through a
        shared-memory arena instead of pickling them per worker;
        ``False`` forces the pickling path.  ``chunking="cost"`` balances
        blocks by total trajectory length instead of index count.

        ``checkpoint`` names a chunk journal file (atomic write-rename);
        an interrupted run pointed at the same file resumes from the last
        completed chunk.  Resume requires the same ``n_jobs`` and
        ``chunking``.

        ``deadline`` caps the whole call at that many wall-clock seconds;
        pairs not scored in time come back NaN (see
        :meth:`repro.parallel.ParallelSTS.pairwise`, which deadlined
        calls always route through).

        ``cluster`` (a :class:`repro.cluster.ClusterService` built from
        this exact ``gallery``) scatter-gathers each row across the
        service's shard workers instead of scoring in-process: replica
        death fails over, and entries owned by a shard the service had to
        skip come back NaN — the same partial-result convention as
        ``deadline``.  Healthy cluster → bitwise identical to the serial
        matrix.
        """
        if cluster is not None:
            if not cluster.matches_gallery(gallery):
                raise ValueError(
                    "cluster service was packed from a different gallery than "
                    "the one passed to pairwise(); rebuild the ClusterService"
                )
            from ..serving.budget import Budget

            rows = list(gallery) if queries is None else list(queries)
            budget = (
                Budget(deadline_ms=deadline * 1000.0) if deadline is not None else None
            )
            t_start = perf_counter()
            out, _reports = cluster.pairwise(rows, budget=budget)
            self._h_pairwise.observe(perf_counter() - t_start)
            return out
        if (n_jobs is not None and n_jobs != 1) or checkpoint is not None or deadline is not None:
            from ..parallel import ParallelSTS

            return ParallelSTS(
                self, n_jobs=n_jobs, backend=backend, shm=shm, chunking=chunking
            ).pairwise(gallery, queries, checkpoint=checkpoint, deadline=deadline)
        t_start = perf_counter()
        with trace_span(
            "sts.pairwise",
            gallery=len(gallery),
            queries=len(queries) if queries is not None else len(gallery),
        ):
            if queries is None:
                out = self.similarity_block(gallery)
            else:
                out = self.similarity_block(queries, gallery)
        self._h_pairwise.observe(perf_counter() - t_start)
        return out

    # Metric handles hold locks, which do not pickle; a measure shipped to
    # a process worker rebinds to that worker's own registry on arrival.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for key in (
            "_registry", "_m_calls", "_h_similarity", "_h_pairwise",
            "_t_prewarm", "_t_pairloop",
        ):
            state.pop(key, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._init_obs()

    def __repr__(self) -> str:
        return f"<{self.name} grid={self.grid!r} noise={self.noise_model!r} mode={self.mode!r}>"


# ----------------------------------------------------------------------
# Ablation variants (Section VI-C, Figure 10)
# ----------------------------------------------------------------------
def sts_n(grid: Grid, mode: str = "auto") -> STS:
    """STS-N: locations are deterministic points (no noise model)."""
    measure = STS(grid, noise_model=DeterministicNoiseModel(), mode=mode)
    measure.name = "STS-N"
    return measure


def sts_g(
    grid: Grid,
    corpus: Iterable[Trajectory],
    noise_model: NoiseModel | None = None,
    mode: str = "auto",
) -> STS:
    """STS-G: one global speed distribution pooled from ``corpus``."""
    global_speed = KDESpeedModel.from_trajectories(corpus)
    measure = STS(
        grid,
        noise_model=noise_model,
        transition=SpeedTransitionModel(global_speed),
        mode=mode,
    )
    measure.name = "STS-G"
    return measure


def sts_f(
    grid: Grid,
    corpus: Iterable[Trajectory],
    noise_model: NoiseModel | None = None,
    mode: str = "auto",
    max_steps: int = 8,
) -> STS:
    """STS-F: frequency-based Markov transitions fitted on ``corpus``."""
    freq = FrequencyTransitionModel(grid, max_steps=max_steps).fit(corpus)
    measure = STS(grid, noise_model=noise_model, transition=freq, mode=mode)
    measure.name = "STS-F"
    return measure


def sts_b(grid: Grid, noise_model: NoiseModel | None = None, mode: str = "auto") -> STS:
    """STS-B: Brownian-bridge-style Gaussian speed law per trajectory.

    Section II of the paper notes the Brownian bridge is the special case
    of STS where the speed distribution is assumed Gaussian.  This variant
    fits a per-trajectory Gaussian to the speed samples (mean/std) instead
    of the non-parametric KDE — an extra ablation isolating what the
    arbitrary-distribution property of Eq. 6 buys (e.g. under the bimodal
    walk/dwell speeds of mall visitors).
    """
    measure = STS(grid, noise_model=noise_model, transition=_brownian_transition, mode=mode)
    measure.name = "STS-B"
    return measure
