"""The Eq. 10 block kernel: one implementation of STS for every path.

Eq. 10 scores a pair as the average of its Eq. 9 co-location terms,

    STS(Tra, Tra') = ( Σ_i CP(t_i) + Σ_j CP(t'_j) ) / ( |Tra| + |Tra'| ),

and each term is the inner product of two sparse STP vectors.  Over a
``rows × cols`` block of pairs, every term of the first sum pairs one row
trajectory at one of its own timestamps with a column trajectory resolved
at that timestamp, and every term of the second sum does the same with
the sides swapped.  Laying the terms and the partners out as sparse
vectors over ``(timestamp, cell)`` keys makes each sum *one*
``scipy.sparse`` product:

``(a) resolve``
    One :meth:`~repro.core.stprob.TrajectorySTP.stp_batch` per
    trajectory.  A row trajectory is resolved at its own timestamps and
    at the column side's timestamps inside its span, a column trajectory
    at its own and the row side's; a self block (rows against
    themselves) resolves every trajectory at the union.
``(b) multiply``
    :func:`colocation_terms` builds one sparse column per (trajectory,
    own timestamp) term and one CSR row per partner holding the partner's
    STPs; their product's entry ``[term, partner]`` is that term's CP.
    Each side is one product: a self block has one side, a rectangular
    block two.
``(c) reduce``
    :func:`term_sums` adds each trajectory's terms one at a time in
    timestamp order, and :func:`eq10` divides the two sums of a pair by
    ``|Tra| + |Tra'|``.

:meth:`repro.core.STS.similarity_block` runs the three steps on each
sub-block :func:`plan_sub_blocks` cuts, so resolution and products never
hold more than :data:`SUB_BLOCK_PRODUCTS` of either at once.

Canonical terms
---------------
``scipy.sparse`` multiplies CSR by CSR row by row, accumulating each
output entry in the stored order of the left operand's row.  The left
rows are the partners, stored slot by slot with each slot's cells
ascending, and a term occupies a single slot: a term's value is the
ascending-cell sequential sum of the products of its two distributions.
It depends on nothing else in the block (and IEEE multiplication
commutes, so not on which side is which either).  The reduction adds
terms sequentially from ``0.0`` in timestamp order.  Every entry is
therefore bitwise the same whether it comes from a 1×1 call, a
sub-block, the full matrix or the transposed orientation, and a self
block is bitwise symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import sparse

from ..errors import DegenerateTrajectoryError
from .stprob import SparseDistribution, TrajectorySTP
from .trajectory import Trajectory

__all__ = [
    "BlockSide",
    "colocation_terms",
    "term_sums",
    "sequential_sum",
    "eq10",
    "resolve_block",
    "score_sides",
    "plan_sub_blocks",
]


#: Index dtype of the sparse operands: scipy copies wider indices down to
#: int32 whenever they fit, and a block's entries stay far below 2³¹.
_INDEX = np.int32

#: Most (term, partner) products one sub-block computes: its dense
#: products take at most 1 MiB, and its resolution holds at most this many
#: partner distributions.  :func:`plan_sub_blocks` cuts larger blocks, so
#: a block's working set stays bounded however large the block is.
SUB_BLOCK_PRODUCTS = 1 << 17

#: Partner entries :func:`_partner_rows` flattens and filters at a time:
#: about 70 bytes of scratch each, so about 1 MiB a group, and few enough
#: groups that their fixed cost stays small beside the product.
_FILTER_ENTRIES = 1 << 14


def _entries(
    dists: Sequence[SparseDistribution], slots: np.ndarray, n_cells: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flattened ``(key, prob)`` entries of ``dists`` and each one's size.

    Distribution ``k`` sits in slot ``slots[k]``; an entry's key is
    ``slot * n_cells + cell``, so keys ascend within a distribution.
    """
    sizes = np.fromiter((c.size for c, _ in dists), dtype=np.int64, count=len(dists))
    if not sizes.any():
        return np.empty(0, dtype=np.int64), np.empty(0), sizes
    keys = np.concatenate([c for c, _ in dists]).astype(np.int64)
    keys += np.repeat(np.asarray(slots, dtype=np.int64) * n_cells, sizes)
    probs = np.concatenate([p for _, p in dists])
    return keys, probs, sizes


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` for a plain 1-D array, without its per-call overhead."""
    values = np.sort(values)
    if values.size > 1:
        keep = np.empty(values.size, dtype=bool)
        keep[0] = True
        np.not_equal(values[1:], values[:-1], out=keep[1:])
        values = values[keep]
    return values


def _indptr(sizes: np.ndarray) -> np.ndarray:
    indptr = np.zeros(sizes.size + 1, dtype=_INDEX)
    np.cumsum(sizes, out=indptr[1:])
    return indptr


def _partner_rows(
    partners: Sequence[tuple[np.ndarray, Sequence[SparseDistribution]]],
    columns: np.ndarray,
    n_cells: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(probs, cols, indptr)``: the partners' CSR rows over the keys ``columns``.

    A partner entry on a key no term holds would meet no term, so it is
    dropped.  Partner ``p``'s row holds its kept entries, contiguous and,
    within a slot, in ascending cell order.  The entries are flattened
    and filtered in groups of whole distributions of about
    :data:`_FILTER_ENTRIES` entries, so the scratch beside the kept
    entries does not grow with the partners' entries.
    """
    dists = [d for _slots, ds in partners for d in ds]
    slots = np.concatenate([np.asarray(s, dtype=np.int64) for s, _ in partners])
    ends = np.cumsum(np.fromiter((c.size for c, _ in dists), dtype=np.int64, count=len(dists)))
    total = int(ends[-1]) if ends.size else 0
    cuts = np.searchsorted(ends, np.arange(_FILTER_ENTRIES, total, _FILTER_ENTRIES)) + 1
    edges = _sorted_unique(np.concatenate([[0], cuts, [len(dists)]])).tolist()
    # through[k]: kept entries of the distributions before distribution k.
    through = np.zeros(len(dists) + 1, dtype=_INDEX)
    probs, cols = [np.empty(0)], [np.empty(0, dtype=_INDEX)]
    for a, b in zip(edges[:-1], edges[1:]):
        keys, group_probs, sizes = _entries(dists[a:b], slots[a:b], n_cells)
        at = np.searchsorted(columns, keys)
        met = columns.take(np.minimum(at, columns.size - 1)) == keys
        kept = np.zeros(keys.size + 1, dtype=_INDEX)
        np.cumsum(met, out=kept[1:])
        through[a + 1 : b + 1] = through[a] + kept[np.cumsum(sizes)]
        probs.append(group_probs[met])
        cols.append(at[met].astype(_INDEX))
    indptr = through[_indptr(np.array([len(ds) for _s, ds in partners]))]
    return np.concatenate(probs), np.concatenate(cols), indptr


def colocation_terms(
    terms: Sequence[SparseDistribution],
    term_slots: np.ndarray,
    partners: Sequence[tuple[np.ndarray, Sequence[SparseDistribution]]],
    n_cells: int,
) -> np.ndarray:
    """Eq. 9 for every (term, partner) pair, as one sparse product.

    ``terms[k]`` is a distribution in slot ``term_slots[k]`` (a timestamp
    index); each partner is ``(slots, dists)``, its distributions at those
    slots.  Entry ``[k, p]`` of the dense ``len(terms) × len(partners)``
    result is the inner product of ``terms[k]`` with partner ``p``'s
    distribution in the same slot, summed in ascending cell order — 0 when
    the partner has nothing there (outside its span, Eq. 5 case 3).

    Entries sit at keys ``slot * n_cells + cell``.  Only keys some term
    holds can contribute, so the columns are the terms' distinct keys,
    ascending, and a partner entry on any other key is dropped before the
    product (:func:`_partner_rows`).  The operands stay ``O(nnz)`` rather
    than ``O(slots · cells)``.
    """
    out_shape = (len(terms), len(partners))
    if not terms or not partners:
        return np.zeros(out_shape)
    term_keys, term_probs, term_sizes = _entries(terms, term_slots, n_cells)
    if term_keys.size == 0:
        return np.zeros(out_shape)
    columns = _sorted_unique(term_keys)
    # scipy accumulates each output entry in the left row's stored order,
    # and a term occupies a single slot, so every term adds its products
    # by ascending cell; dropped entries met no term and change no sum.
    left = sparse.csr_matrix(
        _partner_rows(partners, columns, n_cells), shape=(len(partners), columns.size)
    )
    right = sparse.csc_matrix(
        (term_probs, np.searchsorted(columns, term_keys).astype(_INDEX), _indptr(term_sizes)),
        shape=(columns.size, len(terms)),
    )
    return (left @ right).toarray().T


def term_sums(products: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-trajectory sums of consecutive term rows, added in order.

    ``products`` stacks the term rows of several trajectories, ``counts[i]``
    of them for trajectory ``i``.  Row ``i`` of the result is the
    sequential sum ``((0 + term₀) + term₁) + …`` of trajectory ``i``'s rows
    — the same value :func:`sequential_sum` gives for one trajectory's
    terms, whatever else shares the block.  Trajectories with the same
    term count are accumulated together along the term axis, so the
    scratch never exceeds ``products`` itself.
    """
    counts = np.asarray(counts, dtype=np.int64)
    sums = np.zeros((counts.size, products.shape[1]))
    starts = _indptr(counts)[:-1]
    for count in _sorted_unique(counts[counts > 0]):
        group = np.flatnonzero(counts == count)
        rows = products[starts[group, None] + np.arange(count)]
        np.add.accumulate(rows, axis=1, out=rows)
        sums[group] = rows[:, -1]
    return sums


def sequential_sum(values: np.ndarray) -> float:
    """``((0 + v₀) + v₁) + …`` — :func:`term_sums` for a single trajectory.

    ``np.cumsum`` accumulates strictly left to right (unlike
    ``ndarray.sum``, which sums pairwise, or ``np.add.reduceat``), and
    ``0 + v₀ == v₀``.
    """
    values = np.asarray(values, dtype=float)
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def eq10(row_sums, col_sums, row_lengths, col_lengths):
    """Eq. 10 from the two term sums of each pair (arrays or scalars)."""
    return (row_sums + col_sums) / (row_lengths + col_lengths)


@dataclass
class BlockSide:
    """The terms of one side of a block, and its partners' distributions.

    ``terms`` holds every own-timestamp distribution of the side's
    trajectories, ``counts[i]`` of them for trajectory ``i``, each in slot
    ``slots[k]`` (an index into the side's timestamps).  ``partners``
    holds, for every trajectory of the *other* side, ``(slots, dists)``:
    its distributions at the slots inside its span, ascending.
    """

    terms: list
    slots: np.ndarray
    counts: np.ndarray
    partners: list

    def sums(self, n_cells: int) -> np.ndarray:
        """``[i, p]`` = Σ over trajectory ``i``'s terms of CP with partner ``p``."""
        products = colocation_terms(self.terms, self.slots, self.partners, n_cells)
        return term_sums(products, self.counts)


def _resolve(
    stp: TrajectorySTP, trajectory: Trajectory, times: np.ndarray
) -> tuple[list, tuple[np.ndarray, list]]:
    """One ``stp_batch`` over ``trajectory``'s own timestamps and ``times``.

    Returns the own-timestamp distributions (the trajectory's terms) and,
    as a partner, the slots of ``times`` inside its span with the
    distributions there.
    """
    lo = int(np.searchsorted(times, trajectory.start_time, side="left"))
    hi = int(np.searchsorted(times, trajectory.end_time, side="right"))
    inside = times[lo:hi]
    own = trajectory.timestamps
    query = _sorted_unique(np.concatenate([own, inside]))
    dists = stp.stp_batch(query)
    own_dists = [dists[k] for k in np.searchsorted(query, own)]
    partner = (np.arange(lo, hi), [dists[k] for k in np.searchsorted(query, inside)])
    return own_dists, partner


def _union_times(trajectories: Sequence[Trajectory]) -> np.ndarray:
    if not trajectories:
        return np.empty(0)
    return _sorted_unique(np.concatenate([t.timestamps for t in trajectories]))


def _side(trajectories, resolved, times, partner_resolved) -> BlockSide:
    """The terms of ``trajectories`` (slots in ``times``) and their partners."""
    own_times = (
        np.concatenate([t.timestamps for t in trajectories]) if trajectories else np.empty(0)
    )
    return BlockSide(
        terms=[d for own_dists, _partner in resolved for d in own_dists],
        slots=np.searchsorted(times, own_times),
        counts=np.array([len(t) for t in trajectories], dtype=np.int64),
        partners=[partner for _own, partner in partner_resolved],
    )


def resolve_block(
    stp_for: Callable[[Trajectory], TrajectorySTP],
    rows: Sequence[Trajectory],
    cols: Sequence[Trajectory] | None = None,
) -> tuple[BlockSide, BlockSide | None]:
    """Step (a): the distributions every term of the block reads.

    Returns ``(row_side, col_side)``.  A self block (``cols=None``) has a
    single side whose terms and partners are the same trajectories.
    """
    for traj in list(rows) + list(cols or ()):
        if len(traj) == 0:
            raise DegenerateTrajectoryError("STS is undefined for empty trajectories")
    if cols is None:
        times = _union_times(rows)
        resolved = [_resolve(stp_for(t), t, times) for t in rows]
        return _side(rows, resolved, times, resolved), None
    row_times, col_times = _union_times(rows), _union_times(cols)
    # A row is read at the column side's timestamps and a column at the
    # row side's: nothing else in the union is ever paired.
    row_resolved = [_resolve(stp_for(t), t, col_times) for t in rows]
    col_resolved = [_resolve(stp_for(t), t, row_times) for t in cols]
    return (
        _side(rows, row_resolved, row_times, col_resolved),
        _side(cols, col_resolved, col_times, row_resolved),
    )


def score_sides(row_side: BlockSide, col_side: BlockSide | None, n_cells: int) -> np.ndarray:
    """Steps (b) and (c): the Eq. 10 matrix of a resolved block."""
    if col_side is None:
        sums = row_side.sums(n_cells)
        lengths = row_side.counts.astype(float)
        return eq10(sums, sums.T, lengths[:, None], lengths[None, :])
    return eq10(
        row_side.sums(n_cells),
        col_side.sums(n_cells).T,
        row_side.counts.astype(float)[:, None],
        col_side.counts.astype(float)[None, :],
    )


def _cut(lengths: Sequence[int], fits: Callable[[int, int], bool]) -> list[slice]:
    """Contiguous groups of ``lengths``, each grown while ``fits(terms, count)``.

    Every group holds at least one trajectory.
    """
    groups, start, terms = [], 0, 0
    for i, length in enumerate(lengths):
        if i > start and not fits(terms + length, i + 1 - start):
            groups.append(slice(start, i))
            start, terms = i, 0
        terms += length
    if lengths:
        groups.append(slice(start, len(lengths)))
    return groups


def plan_sub_blocks(
    row_lengths: Sequence[int], col_lengths: Sequence[int] | None = None
) -> list[tuple[slice, slice | None]]:
    """Cut a block into sub-blocks of at most :data:`SUB_BLOCK_PRODUCTS`.

    A sub-block of row trajectories ``R`` and column trajectories ``C``
    computes ``terms(R) · |C| + terms(C) · |R|`` products (a trajectory
    has one term per point) and resolves at most that many partner
    distributions.  Returns ``(rows, cols)`` slices covering the block.
    For a self block (``col_lengths=None``) the diagonal sub-blocks have
    ``cols=None`` and each off-diagonal one appears once, rows before
    columns; its mirror image is its transpose.  Entries do not depend on
    the block they are computed in, so the plan changes no score.
    """
    budget = SUB_BLOCK_PRODUCTS
    if col_lengths is None:
        groups = _cut(row_lengths, lambda terms, count: 2 * terms * count <= budget)
        plan: list[tuple[slice, slice | None]] = [(g, None) for g in groups]
        for a, rows in enumerate(groups):
            for cols in groups[a + 1:]:
                plan += [
                    (slice(rows.start + r.start, rows.start + r.stop),
                     slice(cols.start + c.start, cols.start + c.stop))
                    for r, c in plan_sub_blocks(row_lengths[rows], row_lengths[cols])
                ]
        return plan
    widest = max(col_lengths, default=0)
    plan = []
    for rows in _cut(row_lengths, lambda terms, count: terms + count * widest <= budget):
        row_terms, n_rows = sum(row_lengths[rows]), rows.stop - rows.start
        plan += [
            (rows, cols)
            for cols in _cut(
                col_lengths,
                lambda terms, count: row_terms * count + terms * n_rows <= budget,
            )
        ]
    return plan

