"""Sparse ("off-the-grid") point routing across ranks.

Implements the paper's Figure 3 semantics: each sparse point has physical
coordinates; its interpolation/injection support (the surrounding grid
cell, widened by the interpolation radius) may straddle rank boundaries.
Every rank whose subdomain intersects a point's support participates in
operations on that point: injection touches only locally-owned grid
points (so nothing is double-counted), while interpolation produces
partial sums that are reduced across the sharing ranks.
"""

from __future__ import annotations

import numpy as np

__all__ = ['PointRouting', 'block_intersections', 'support_points',
           'bilinear_coefficients']


def block_intersections(space_ranges, distributor):
    """Route a global block to the ranks of a (possibly new) decomposition.

    ``space_ranges`` is a per-grid-dimension list of global ``(start,
    stop)`` intervals describing a block of grid points — e.g. the
    domain region one rank of an *old* decomposition wrote into a
    checkpoint.  Returns ``[(rank, ranges), ...]`` listing every rank of
    ``distributor`` whose owned subdomain intersects the block, with the
    per-dimension global ranges of the (non-empty) intersection.

    This is the dense-block counterpart of :class:`PointRouting`: the
    repartitioner (:func:`repro.resilience.elastic.repartition`) uses
    it to move blocks rank-to-rank after the decomposition changed.
    """
    out = []
    for rank in range(distributor.nprocs):
        coords = distributor.comm.Get_coords(rank)
        isect = []
        for d, (start, stop) in enumerate(space_ranges):
            lo, hi = distributor.decompositions[d].intersection(
                coords[d], start, stop)
            if lo >= hi:
                break
            isect.append((lo, hi))
        else:
            out.append((rank, tuple(isect)))
    return out


def support_points(coords, origin, spacing, radius=1):
    """Global grid indices of the interpolation support of one point.

    ``radius=1`` yields the 2**ndim cell corners (multi-linear
    interpolation).  Returns (lows, highs) inclusive per dimension.
    """
    lows, highs = [], []
    for c, o, h in zip(coords, origin, spacing):
        pos = (c - o) / h
        lo = int(np.floor(pos)) - (radius - 1)
        hi = int(np.floor(pos)) + radius
        lows.append(lo)
        highs.append(hi)
    return tuple(lows), tuple(highs)


def bilinear_coefficients(coords, origin, spacing):
    """Per-dimension (low_index, low_weight, high_weight) of multilinear
    interpolation for one point."""
    out = []
    for c, o, h in zip(coords, origin, spacing):
        pos = (c - o) / h
        lo = int(np.floor(pos))
        frac = pos - lo
        out.append((lo, 1.0 - frac, frac))
    return out


class PointRouting:
    """Ownership and local index plans for a set of sparse points.

    Parameters
    ----------
    coordinates : (npoints, ndim) array
        Physical coordinates.
    distributor : Distributor
    origin, spacing : tuples
        Grid geometry.
    radius : int
        Interpolation radius (1 = multilinear).

    Attributes
    ----------
    local_points : list of int
        Indices of points whose support intersects this rank.
    owned_points : list of int
        Points whose *primary owner* (owner of the low corner, clamped
        into the domain) is this rank — used when a single responsible
        rank is needed (e.g. writing receiver output).
    """

    def __init__(self, coordinates, distributor, origin, spacing, radius=1):
        self.coordinates = np.asarray(coordinates, dtype=np.float64)
        if self.coordinates.ndim != 2:
            raise ValueError("coordinates must be (npoints, ndim)")
        self.distributor = distributor
        self.origin = tuple(origin)
        self.spacing = tuple(spacing)
        self.radius = int(radius)
        self.shape = distributor.shape
        self._build()

    def _build(self):
        dist = self.distributor
        ranges = dist.local_ranges()
        self.local_points = []
        self.owned_points = []
        #: per local point: list of (local_indices, weight) contributions
        self.plans = {}
        for p, coords in enumerate(self.coordinates):
            per_dim = bilinear_coefficients(coords, self.origin, self.spacing)
            # enumerate support corners with weights; clamp to the domain
            corners = [()]
            weights = [1.0]
            for (lo, wlo, whi), n in zip(per_dim, self.shape):
                new_corners, new_weights = [], []
                for corner, w in zip(corners, weights):
                    for idx, wi in ((lo, wlo), (lo + 1, whi)):
                        idx_clamped = min(max(idx, 0), n - 1)
                        new_corners.append(corner + (idx_clamped,))
                        new_weights.append(w * wi)
                corners, weights = new_corners, new_weights
            # merge duplicate corners produced by clamping
            merged = {}
            for corner, w in zip(corners, weights):
                merged[corner] = merged.get(corner, 0.0) + w
            local_contribs = []
            for corner, w in merged.items():
                if w == 0.0:
                    continue
                loc = dist.glb_to_loc_point(corner)
                if loc is not None:
                    local_contribs.append((loc, w))
            if local_contribs:
                self.local_points.append(p)
                self.plans[p] = local_contribs
            # primary owner: rank owning the clamped low corner
            primary = tuple(min(max(lo, 0), n - 1)
                            for (lo, _, _), n in zip(per_dim, self.shape))
            if dist.owns(primary):
                self.owned_points.append(p)

    # -- vectorized plan assembly (consumed by generated kernels) -------------------

    def gather_plan(self):
        """Flatten plans into arrays for vectorized injection/interpolation.

        Returns (point_ids, index_arrays, weights): parallel 1-D arrays
        where entry k says "point point_ids[k] touches local grid point
        (index_arrays[0][k], ...) with weight weights[k]".
        """
        point_ids, weights = [], []
        index_cols = [[] for _ in range(self.distributor.ndim)]
        for p in self.local_points:
            for loc, w in self.plans[p]:
                point_ids.append(p)
                weights.append(w)
                for d, i in enumerate(loc):
                    index_cols[d].append(i)
        return (np.asarray(point_ids, dtype=np.int64),
                tuple(np.asarray(col, dtype=np.int64) for col in index_cols),
                np.asarray(weights, dtype=np.float64))

    def stats(self):
        """Routing instrumentation for the profiling subsystem.

        ``ncontribs`` is the number of (point, grid-cell) contribution
        pairs this rank evaluates per sparse operation — the work metric
        that load-imbalance in sparse sections is measured against.
        """
        return {'npoints': len(self.coordinates),
                'nlocal': len(self.local_points),
                'nowned': len(self.owned_points),
                'ncontribs': sum(len(p) for p in self.plans.values())}

    def __repr__(self):
        return ('PointRouting(%d points, %d local, %d owned, rank=%d)'
                % (len(self.coordinates), len(self.local_points),
                   len(self.owned_points), self.distributor.myrank))
