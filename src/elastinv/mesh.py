"""Triangulation of the unit disk with a clamped (Dirichlet) and a loaded (Neumann) boundary part.

The mesher places nodes on concentric rings (angular spacing matched to the
ring spacing, alternate rings staggered by half a step) and triangulates them
with a Delaunay pass.  The construction is deterministic: the same target
element size always produces the same mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import Delaunay

_AREA_EPS = 1e-14


class MeshError(ValueError):
    """Invalid mesh input or an operation that would produce an invalid mesh."""


def _signed_areas(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Area of each triangle, positive when its nodes run counter-clockwise."""
    p = nodes[triangles]
    return 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )


@dataclass(frozen=True)
class BoundaryPartitionSpec:
    """Angular half-open arc [theta0, theta1) of the circle that is clamped (Dirichlet).

    The complement of the arc carries the surface loads (Neumann part).
    Angles are in radians; the arc must leave both parts non-empty.
    """

    theta0: float = math.pi
    theta1: float = 2.0 * math.pi

    def __post_init__(self):
        width = self.theta1 - self.theta0
        if not (0.0 < width < 2.0 * math.pi):
            raise MeshError(
                f"dirichlet arc width must lie in (0, 2*pi), got {width!r}"
            )


@dataclass(eq=False)
class Mesh:
    """Conforming triangulation whose boundary edges are each clamped or loaded.

    nodes          : (n, 2) float array of finite coordinates
    triangles      : (m, 3) int array, counter-clockwise node triples
    boundary_edges : (b, 2) int array, consecutive boundary node pairs
    clamped        : (b,) bool array, True on the Dirichlet edges
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    clamped: np.ndarray = field(default_factory=lambda: np.zeros(0, bool))

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(self.nodes, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(self.boundary_edges, dtype=np.int64)
        self.clamped = np.asarray(self.clamped)
        for name, width in (("nodes", 2), ("triangles", 3), ("boundary_edges", 2)):
            shape = getattr(self, name).shape
            if len(shape) != 2 or shape[1] != width:
                raise MeshError(f"{name} must be a (k, {width}) array, got shape {shape}")
        n = self.n_nodes
        if not np.isfinite(self.nodes).all():
            raise MeshError("node coordinates must be finite")
        if self.triangles.size and (
            self.triangles.min() < 0 or self.triangles.max() >= n
        ):
            raise MeshError("triangle node index out of range")
        if self.boundary_edges.size and (
            self.boundary_edges.min() < 0 or self.boundary_edges.max() >= n
        ):
            raise MeshError("boundary edge node index out of range")
        signed = _signed_areas(self.nodes, self.triangles)
        if signed.size and signed.min() <= 0.0:
            raise MeshError("triangle with non-positive signed area (not CCW)")
        if self.clamped.dtype != bool or self.clamped.shape != self.boundary_edges.shape[:1]:
            raise MeshError("clamped must be a bool array with one entry per boundary edge")

    # -- basic queries ----------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def element_areas(self) -> np.ndarray:
        return np.abs(_signed_areas(self.nodes, self.triangles))

    @cached_property
    def element_centroids(self) -> np.ndarray:
        return self.nodes[self.triangles].mean(axis=1)

    @cached_property
    def dirichlet_nodes(self) -> np.ndarray:
        """Sorted indices of nodes touching at least one Dirichlet edge."""
        return np.unique(self.boundary_edges[self.clamped])

    @cached_property
    def neumann_nodes(self) -> np.ndarray:
        """Sorted indices of boundary nodes carrying free (loadable) dofs.

        Nodes shared between the two boundary parts count as Dirichlet.
        """
        return np.setdiff1d(self.neumann_edges, self.dirichlet_nodes)

    @cached_property
    def neumann_edges(self) -> np.ndarray:
        return self.boundary_edges[~self.clamped]


def _ring_points(target_h: float) -> tuple[np.ndarray, int]:
    """Centre and ring nodes, counter-clockwise per ring, outer ring last; and its size."""
    n_rings = max(2, int(round(1.0 / target_h)))
    pts = [(0.0, 0.0)]
    for i in range(1, n_rings + 1):
        r = i / n_rings
        m = max(6, int(round(2.0 * math.pi * r * n_rings)))
        offset = (math.pi / m) * (i % 2)
        theta = offset + 2.0 * math.pi * np.arange(m) / m
        pts.extend(zip(r * np.cos(theta), r * np.sin(theta)))
    return np.array(pts), m


def generate_disk_mesh(target_h: float) -> Mesh:
    """Triangulate the unit disk with edges no longer than 2 * target_h.

    The boundary carries the default partition (lower half clamped); use
    partition_boundary to clamp another arc.  Raises MeshError for target_h outside
    (0, 1).
    """
    if not (0.0 < target_h < 1.0):
        raise MeshError(f"target_h must lie in (0, 1), got {target_h!r}")

    points, n_outer = _ring_points(target_h)
    tri = Delaunay(points)
    simplices = tri.simplices.copy()

    signed = _signed_areas(points, simplices)
    flip = signed < 0.0
    simplices[flip] = simplices[flip][:, [0, 2, 1]]
    keep = np.abs(signed) > _AREA_EPS
    simplices = simplices[keep]
    # stable element order regardless of qhull internals
    simplices = simplices[np.lexsort(simplices.T[::-1])]

    # the outer ring is the boundary; consecutive nodes run counter-clockwise,
    # the orientation of the triangle that owns each edge
    ring = np.arange(len(points) - n_outer, len(points))
    edges = np.column_stack([ring, np.roll(ring, -1)])
    mesh = Mesh(points, simplices, edges, np.zeros(len(edges), bool))
    return partition_boundary(mesh, BoundaryPartitionSpec())


def partition_boundary(mesh: Mesh, spec: BoundaryPartitionSpec) -> Mesh:
    """Clamp the boundary edges whose midpoints lie on the spec's arc.

    Returns a new Mesh; raises MeshError if either boundary part comes out
    empty.
    """
    mids = 0.5 * (mesh.nodes[mesh.boundary_edges[:, 0]] + mesh.nodes[mesh.boundary_edges[:, 1]])
    angles = np.mod(np.arctan2(mids[:, 1], mids[:, 0]), 2.0 * math.pi)
    inside = np.mod(angles - spec.theta0, 2.0 * math.pi) < (spec.theta1 - spec.theta0)
    if inside.all() or not inside.any():
        raise MeshError("boundary partition leaves one part empty")
    order = np.argsort(angles, kind="stable")
    return Mesh(
        mesh.nodes.copy(),
        mesh.triangles.copy(),
        mesh.boundary_edges[order],
        inside[order],
    )
