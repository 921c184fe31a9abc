"""Uniform rectangular grids and multilinear interpolation.

A `RectGrid` is a tensor product of uniformly spaced axes (1 to 4 of
them).  A `GridFunction` attaches one real value to every node, stored
flat in row-major order with the last axis varying fastest.  Off-grid
queries are clamped to the hull coordinate by coordinate, so evaluation
is total on finite inputs.

The interpolation is multilinear: the value at a query point is the
tensor-product-weighted average of the 2^dim corners of the enclosing
cell.  Cell location is repaired against the actual node coordinates so
that queries sitting exactly on a node reproduce the stored value
bit-for-bit, and the result is clipped to the corner value range so the
convex-hull bound survives floating-point rounding.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "Axis",
    "RectGrid",
    "GridFunction",
    "build_grid",
    "interpolate",
    "interpolation_stencil",
    "axis_locator",
    "stencil_blend",
    "node_coordinates",
    "save_grid_function",
    "load_grid_function",
    "write_atomic",
]

MAX_DIM = 4

GRIDFN_FORMAT = "gridfn-v1"


@dataclass(frozen=True)
class Axis:
    """One uniformly spaced axis: ``n`` nodes spanning ``[lo, hi]``.

    A single-node axis (``n == 1``) is degenerate: its only node sits at
    ``lo`` and interpolation ignores that coordinate.
    """

    lo: float
    hi: float
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ValueError(f"node count must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"axis needs at least one node, got n={self.n}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"axis bounds must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"axis bounds out of order: lo={self.lo} > hi={self.hi}")
        if self.n >= 2 and self.lo == self.hi:
            raise ValueError(f"axis with n={self.n} nodes needs lo < hi, got lo == hi == {self.lo}")

    @property
    def step(self) -> float:
        """Node spacing; 0.0 on a degenerate axis."""
        if self.n == 1:
            return 0.0
        return (self.hi - self.lo) / (self.n - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        if self.n == 1:
            out = np.array([self.lo])
        else:
            out = np.linspace(self.lo, self.hi, self.n)
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class RectGrid:
    """Tensor product of 1 to 4 uniform axes."""

    axes: tuple[Axis, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.axes, tuple):
            object.__setattr__(self, "axes", tuple(self.axes))
        if not 1 <= len(self.axes) <= MAX_DIM:
            raise ValueError(f"grid supports 1 to {MAX_DIM} axes, got {len(self.axes)}")
        for ax in self.axes:
            if not isinstance(ax, Axis):
                raise ValueError(f"grid axes must be Axis instances, got {type(ax).__name__}")

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.n for ax in self.axes)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Flat-index stride per axis (row-major, last axis fastest)."""
        shape = self.shape
        out = []
        acc = 1
        for n in reversed(shape):
            out.append(acc)
            acc *= n
        return tuple(reversed(out))

    @cached_property
    def lower(self) -> np.ndarray:
        out = np.array([ax.lo for ax in self.axes])
        out.flags.writeable = False
        return out

    @cached_property
    def upper(self) -> np.ndarray:
        out = np.array([ax.hi for ax in self.axes])
        out.flags.writeable = False
        return out

    @cached_property
    def all_nodes(self) -> np.ndarray:
        """All node coordinates as an ``(size, dim)`` array in flat-index order."""
        mesh = np.meshgrid(*(ax.nodes for ax in self.axes), indexing="ij")
        out = np.stack([m.ravel() for m in mesh], axis=1)
        out.flags.writeable = False
        return out


def build_grid(axis_specs) -> RectGrid:
    """Build a grid from an iterable of ``(lo, hi, n)`` triples."""
    axes = tuple(Axis(float(lo), float(hi), int(n)) for lo, hi, n in axis_specs)
    return RectGrid(axes)


@dataclass(frozen=True)
class GridFunction:
    """Real values attached to every node of a grid.

    Values are stored flat in row-major node order and frozen after
    construction, so a GridFunction can be shared across threads.
    """

    grid: RectGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(self.values, dtype=np.float64).reshape(-1)
        if vals.size != self.grid.size:
            raise ValueError(
                f"value count {vals.size} does not match grid size {self.grid.size}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("grid function values must all be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def as_array(self) -> np.ndarray:
        """Values reshaped to the grid shape (read-only view)."""
        return self.values.reshape(self.grid.shape)

    def __call__(self, points):
        return interpolate(self, points)


def node_coordinates(grid: RectGrid, flat_index: int) -> tuple[float, ...]:
    """Coordinates of the node with the given flat (row-major) index."""
    if not 0 <= flat_index < grid.size:
        raise IndexError(f"flat index {flat_index} out of range for grid of size {grid.size}")
    multi = np.unravel_index(flat_index, grid.shape)
    return tuple(float(ax.nodes[i]) for ax, i in zip(grid.axes, multi))


def _locate(grid: RectGrid, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamp points to the hull and find enclosing cells.

    Returns the lower-corner node index and the fractional position
    within the cell, each of shape ``(m, dim)``.  Fractions are computed
    against the actual node coordinates so a query equal to a node gets
    a fraction of exactly 0.0 or 1.0.
    """
    m = pts.shape[0]
    idx = np.zeros((m, grid.dim), dtype=np.int64)
    frac = np.zeros((m, grid.dim))
    for d, ax in enumerate(grid.axes):
        if ax.n == 1:
            continue
        q = np.clip(pts[:, d], ax.lo, ax.hi)
        nodes = ax.nodes
        i = np.clip(((q - ax.lo) / ax.step).astype(np.int64), 0, ax.n - 2)
        # repair off-by-one cell location caused by rounding in the division
        i = np.where(q < nodes[i], i - 1, i)
        np.clip(i, 0, ax.n - 2, out=i)
        i = np.where((q >= nodes[i + 1]) & (i < ax.n - 2), i + 1, i)
        f = (q - nodes[i]) / (nodes[i + 1] - nodes[i])
        idx[:, d] = i
        frac[:, d] = np.clip(f, 0.0, 1.0)
    return idx, frac


def axis_locator(ax: Axis):
    """Scalar twin of :func:`_locate` for one axis with ``n >= 2``.

    Returns ``locate(q) -> (i, f)``: the same cell index and fraction as
    the batch version, from the same arithmetic in plain floats, at a
    small fraction of a batch call's cost.
    """
    if ax.n < 2:
        raise ValueError("a locator needs an axis with at least 2 nodes")
    nodes = ax.nodes.tolist()
    lo, hi, step, last = ax.lo, ax.hi, ax.step, ax.n - 2

    def locate(q: float) -> tuple[int, float]:
        q = min(max(q, lo), hi)
        i = min(int((q - lo) / step), last)
        if q < nodes[i]:
            i = max(i - 1, 0)
        if q >= nodes[i + 1] and i < last:
            i += 1
        f = (q - nodes[i]) / (nodes[i + 1] - nodes[i])
        return i, min(max(f, 0.0), 1.0)

    return locate


def interpolation_stencil(grid: RectGrid, points) -> tuple[np.ndarray, np.ndarray]:
    """Corner indices and weights of the multilinear stencil.

    For ``m`` query points returns ``(flat, weights)`` of shape
    ``(m, 2**dim)``: the flat node indices of the enclosing-cell corners
    and the matching convex weights (each row sums to 1).  Out-of-hull
    points are clamped first.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != grid.dim:
        raise ValueError(f"query shape {pts.shape} does not match grid dimension {grid.dim}")
    if not np.isfinite(pts).all():
        raise ValueError("query points must be finite")

    idx, frac = _locate(grid, pts)
    m = pts.shape[0]
    ncorner = 1 << grid.dim
    flat = np.zeros((m, ncorner), dtype=np.int64)
    weights = np.ones((m, ncorner))
    for d in range(grid.dim):
        n = grid.axes[d].n
        stride = grid.strides[d]
        lo_i = idx[:, d]
        hi_i = np.minimum(lo_i + 1, n - 1)
        f = frac[:, d]
        bit = 1 << (grid.dim - 1 - d)
        for c in range(ncorner):
            if c & bit:
                flat[:, c] += hi_i * stride
                weights[:, c] *= f
            else:
                flat[:, c] += lo_i * stride
                weights[:, c] *= 1.0 - f
    return flat, weights


def interpolate(gf: GridFunction, points):
    """Multilinear interpolation of a grid function at query points.

    ``points`` is either a single point of shape ``(dim,)`` (returns a
    float) or a batch of shape ``(m, dim)`` (returns an ``(m,)`` array).
    Queries outside the hull are clamped coordinate by coordinate.  The
    result is clipped to the enclosing-cell corner range, so it can
    never escape the convex hull of the corner values.
    """
    pts = np.asarray(points, dtype=np.float64)
    scalar = pts.ndim == 1
    flat, weights = interpolation_stencil(gf.grid, pts)
    out = stencil_blend(weights, gf.values[flat])
    if scalar:
        return float(out[0])
    return out


def stencil_blend(weights: np.ndarray, corner_vals: np.ndarray) -> np.ndarray:
    """Weighted sum of each row's corner values, clipped to that row's corner range."""
    out = np.einsum("mc,mc->m", weights, corner_vals)
    # halve the 2^k columns pairwise: on long batches a min/max reduction
    # along the short last axis is about five times slower
    lo = hi = corner_vals
    while lo.shape[1] > 1:
        half = lo.shape[1] // 2
        lo = np.minimum(lo[:, :half], lo[:, half:])
        hi = np.maximum(hi[:, :half], hi[:, half:])
    np.maximum(out, lo[:, 0], out=out)
    np.minimum(out, hi[:, 0], out=out)
    return out


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary sibling of ``path``, then move it into place.

    A failure at any point leaves the previous file at ``path`` untouched
    and removes the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_grid_function(gf: GridFunction, path) -> None:
    """Write a grid function as a JSON metadata file plus a sibling raw payload.

    The payload (``<path>.bin``) holds the node values as little-endian
    64-bit floats in row-major order; round-trips are bit-exact.  Each
    file is replaced atomically, payload first: a write cut short leaves
    either the old pair, or a new payload whose size the old metadata
    rejects unless the grid is unchanged.
    """
    path = Path(path)
    payload_name = path.name + ".bin"
    meta = {
        "format": GRIDFN_FORMAT,
        "axes": [{"lo": ax.lo, "hi": ax.hi, "n": ax.n} for ax in gf.grid.axes],
        "value_count": gf.grid.size,
        "payload": payload_name,
        "dtype": "<f8",
        "order": "row-major",
    }
    write_atomic(path.parent / payload_name, gf.values.astype("<f8").tobytes())
    write_atomic(path, (json.dumps(meta, indent=2) + "\n").encode())


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _axis_specs(path: Path, axes) -> list[tuple]:
    """``(lo, hi, n)`` per axis entry of a metadata file; ValueError if malformed."""
    if not isinstance(axes, list) or not all(isinstance(a, dict) for a in axes):
        raise ValueError(f"{path}: axes must be a list of objects, got {axes!r}")
    specs = []
    for i, a in enumerate(axes):
        missing = [key for key in ("lo", "hi", "n") if key not in a]
        if missing:
            raise ValueError(f"{path}: axis {i} lacks the field(s) {', '.join(missing)}")
        if not (_is_number(a["lo"]) and _is_number(a["hi"])):
            raise ValueError(f"{path}: axis {i} bounds {a['lo']!r}, {a['hi']!r} are not numbers")
        if not isinstance(a["n"], int) or isinstance(a["n"], bool):
            raise ValueError(f"{path}: axis {i} node count {a['n']!r} is not an integer")
        specs.append((a["lo"], a["hi"], a["n"]))
    return specs


def load_grid_function(path) -> GridFunction:
    """Read back a grid function written by :func:`save_grid_function`."""
    path = Path(path)
    try:
        meta = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt grid function metadata in {path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: metadata is not a JSON object")
    if meta.get("format") != GRIDFN_FORMAT:
        raise ValueError(f"{path} is not a grid function file (format={meta.get('format')!r})")
    missing = [key for key in ("axes", "payload", "value_count") if key not in meta]
    if missing:
        raise ValueError(f"{path} lacks the field(s) {', '.join(missing)}")
    name = meta["payload"]
    # the payload must sit next to its metadata file: a plain name, no path
    if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
        raise ValueError(f"{path}: payload {name!r} is not a plain file name")
    grid = build_grid(_axis_specs(path, meta["axes"]))
    payload = path.parent / name
    raw = np.frombuffer(payload.read_bytes(), dtype="<f8")
    if raw.size != meta["value_count"] or raw.size != grid.size:
        raise ValueError(
            f"payload {payload} holds {raw.size} values, expected {grid.size}"
        )
    return GridFunction(grid, raw)
