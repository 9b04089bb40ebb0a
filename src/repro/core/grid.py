"""Uniform spatial grid (Section IV-A of the paper).

The area of interest is partitioned into ``n`` disjoint, equal-sized square
cells ``R = {r_1, ..., r_n}``; the paper represents each cell by its center.
:class:`Grid` provides the point→cell and cell→center mappings plus the
range queries the pruned S-T probability evaluation relies on.

Cells are identified by a flat integer index in ``[0, n_cells)``; row-major
over ``(col, row)`` with ``index = row * n_cols + col``.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = ["Grid"]

#: Most candidate-window cells :meth:`Grid.cells_within_many` evaluates in
#: one pass (its distance and mask scratch stay near 1 MiB).
WINDOW_CELLS = 1 << 17


class Grid:
    """A uniform square grid over a rectangular bounding box.

    Parameters
    ----------
    min_x, min_y, max_x, max_y:
        Bounding box of the area of interest, in meters.
    cell_size:
        Side length of each square cell, in meters (e.g. 3 m for the mall
        dataset, 100 m for the taxi dataset in the paper).

    The box is expanded to a whole number of cells; points outside the box
    are clamped to the border cells, so every point maps to some cell.
    """

    __slots__ = ("min_x", "min_y", "cell_size", "n_cols", "n_rows", "_centers")

    def __init__(self, min_x: float, min_y: float, max_x: float, max_y: float, cell_size: float):
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        if max_x <= min_x or max_y <= min_y:
            raise ValueError("bounding box must have positive extent")
        self.min_x = float(min_x)
        self.min_y = float(min_y)
        self.cell_size = float(cell_size)
        self.n_cols = max(1, math.ceil((max_x - min_x) / cell_size))
        self.n_rows = max(1, math.ceil((max_y - min_y) / cell_size))
        self._centers: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def covering(cls, points: np.ndarray, cell_size: float, margin: float = 0.0) -> "Grid":
        """Grid covering an ``(n, 2)`` array of points, with optional margin.

        ``margin`` extends the box on every side; experiments use a margin
        of a few noise standard deviations so distorted points stay inside.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        if len(pts) == 0:
            raise ValueError("cannot build a grid covering zero points")
        mn = pts.min(axis=0) - margin
        mx = pts.max(axis=0) + margin
        # Guarantee positive extent even for degenerate (single-point) input.
        mx = np.maximum(mx, mn + cell_size)
        return cls(mn[0], mn[1], mx[0], mx[1], cell_size)

    # ------------------------------------------------------------------
    @property
    def n_cells(self) -> int:
        """Total number of cells ``|R|``."""
        return self.n_cols * self.n_rows

    @property
    def max_x(self) -> float:
        return self.min_x + self.n_cols * self.cell_size

    @property
    def max_y(self) -> float:
        return self.min_y + self.n_rows * self.cell_size

    def coarsen(self, factor: int) -> "Grid":
        """A grid over the same area with ``factor``× larger cells.

        The origin is preserved, so every coarse cell is the union of (up
        to) ``factor²`` fine cells and any point maps consistently between
        the two resolutions.  Used by the serving degradation ladder:
        quadratically fewer cells make STP evaluation quadratically
        cheaper at the cost of spatial resolution.
        """
        if int(factor) != factor or factor < 1:
            raise ValueError(f"coarsen factor must be an integer >= 1, got {factor}")
        if factor == 1:
            return self
        return Grid(self.min_x, self.min_y, self.max_x, self.max_y, self.cell_size * factor)

    def __repr__(self) -> str:
        return (
            f"<Grid {self.n_cols}x{self.n_rows} cells of {self.cell_size}m "
            f"over [{self.min_x:.0f},{self.min_y:.0f}]-[{self.max_x:.0f},{self.max_y:.0f}]>"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return (
            self.min_x == other.min_x
            and self.min_y == other.min_y
            and self.cell_size == other.cell_size
            and self.n_cols == other.n_cols
            and self.n_rows == other.n_rows
        )

    def __hash__(self) -> int:
        return hash((self.min_x, self.min_y, self.cell_size, self.n_cols, self.n_rows))

    # ------------------------------------------------------------------
    # Point <-> cell mapping
    # ------------------------------------------------------------------
    def cell_of(self, x: float, y: float) -> int:
        """Flat index of the cell containing ``(x, y)`` (clamped to border)."""
        col = min(max(int((x - self.min_x) // self.cell_size), 0), self.n_cols - 1)
        row = min(max(int((y - self.min_y) // self.cell_size), 0), self.n_rows - 1)
        return row * self.n_cols + col

    def cells_of(self, xy: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`cell_of` for an ``(n, 2)`` array."""
        pts = np.asarray(xy, dtype=float).reshape(-1, 2)
        cols = np.clip(((pts[:, 0] - self.min_x) // self.cell_size).astype(int), 0, self.n_cols - 1)
        rows = np.clip(((pts[:, 1] - self.min_y) // self.cell_size).astype(int), 0, self.n_rows - 1)
        return rows * self.n_cols + cols

    def center_of(self, index: int) -> tuple[float, float]:
        """Center coordinates of cell ``index``."""
        self._check_index(index)
        row, col = divmod(index, self.n_cols)
        return (
            self.min_x + (col + 0.5) * self.cell_size,
            self.min_y + (row + 0.5) * self.cell_size,
        )

    def centers(self) -> np.ndarray:
        """``(n_cells, 2)`` array of all cell centers (cached, read-only)."""
        if self._centers is None:
            cols = np.arange(self.n_cols)
            rows = np.arange(self.n_rows)
            cx = self.min_x + (cols + 0.5) * self.cell_size
            cy = self.min_y + (rows + 0.5) * self.cell_size
            xx, yy = np.meshgrid(cx, cy)
            centers = np.column_stack([xx.ravel(), yy.ravel()])
            centers.flags.writeable = False
            self._centers = centers
        return self._centers

    # ------------------------------------------------------------------
    # Range queries (used by the pruned STP evaluation)
    # ------------------------------------------------------------------
    def cells_within(self, x: float, y: float, radius: float) -> np.ndarray:
        """Indices of cells whose *centers* lie within ``radius`` of ``(x, y)``.

        Returns them sorted ascending.  The candidate rectangle is computed
        in grid coordinates first, so the cost is proportional to the number
        of returned cells, not ``n_cells``.
        """
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        lo_col = max(int((x - radius - self.min_x) // self.cell_size), 0)
        hi_col = min(int((x + radius - self.min_x) // self.cell_size), self.n_cols - 1)
        lo_row = max(int((y - radius - self.min_y) // self.cell_size), 0)
        hi_row = min(int((y + radius - self.min_y) // self.cell_size), self.n_rows - 1)
        if hi_col < lo_col or hi_row < lo_row:
            return np.empty(0, dtype=int)
        cols = np.arange(lo_col, hi_col + 1)
        rows = np.arange(lo_row, hi_row + 1)
        cx = self.min_x + (cols + 0.5) * self.cell_size
        cy = self.min_y + (rows + 0.5) * self.cell_size
        xx, yy = np.meshgrid(cx, cy)
        dist2 = (xx - x) ** 2 + (yy - y) ** 2
        mask = dist2 <= radius * radius
        rr, cc = np.nonzero(mask)
        return np.sort((rows[rr] * self.n_cols + cols[cc]).astype(int))

    def cells_within_many(
        self, xs: np.ndarray, ys: np.ndarray, radius: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`cells_within` for every point ``(xs[i], ys[i])`` at once.

        Returns ``(owners, cells)``: ``cells[k]`` lies within ``radius`` of
        point ``owners[k]``.  Owners ascend, and each point's cells are
        exactly :meth:`cells_within`'s, in its order.  The candidate
        windows of all points are evaluated together, at most
        :data:`WINDOW_CELLS` window cells per pass.
        """
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        xs = np.asarray(xs, dtype=float).ravel()
        ys = np.asarray(ys, dtype=float).ravel()
        cs = self.cell_size

        def bound(v, lo, hi):
            return np.minimum(np.maximum(v, lo), hi).astype(np.int64)

        # The per-point bounds of cells_within; clipping to one past either
        # edge keeps an empty window empty.
        lo_c = bound((xs - radius - self.min_x) // cs, 0, self.n_cols)
        hi_c = bound((xs + radius - self.min_x) // cs, -1, self.n_cols - 1)
        lo_r = bound((ys - radius - self.min_y) // cs, 0, self.n_rows)
        hi_r = bound((ys + radius - self.min_y) // cs, -1, self.n_rows - 1)
        width = int((hi_c - lo_c).max(initial=0)) + 1
        height = int((hi_r - lo_r).max(initial=0)) + 1
        step = max(1, WINDOW_CELLS // (width * height))
        owners, cells = [], []
        for start in range(0, xs.size, step):
            part = slice(start, start + step)
            cols = lo_c[part, None] + np.arange(width)
            rows = lo_r[part, None] + np.arange(height)
            dx2 = (self.min_x + (cols + 0.5) * cs - xs[part, None]) ** 2
            dy2 = (self.min_y + (rows + 0.5) * cs - ys[part, None]) ** 2
            mask = dx2[:, None, :] + dy2[:, :, None] <= radius * radius
            mask &= (cols <= hi_c[part, None])[:, None, :]
            mask &= (rows <= hi_r[part, None])[:, :, None]
            pp, rr, cc = np.nonzero(mask)
            owners.append(pp + start)
            cells.append(rows[pp, rr] * self.n_cols + cols[pp, cc])
        if not owners:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return np.concatenate(owners), np.concatenate(cells)

    def distances_from(self, x: float, y: float, cells: Iterable[int] | None = None) -> np.ndarray:
        """Euclidean distances from ``(x, y)`` to cell centers.

        With ``cells=None`` the distances to *all* centers are returned;
        otherwise only to the listed cells.
        """
        centers = self.centers()
        if cells is not None:
            centers = centers[np.asarray(list(cells) if not isinstance(cells, np.ndarray) else cells, dtype=int)]
        return np.hypot(centers[:, 0] - x, centers[:, 1] - y)

    # ------------------------------------------------------------------
    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.n_cells:
            raise IndexError(f"cell index {index} out of range [0, {self.n_cells})")
