"""Triangulation of the unit disk with a tagged Dirichlet/Neumann boundary.

The mesher places nodes on concentric rings (angular spacing matched to the
ring spacing, alternate rings staggered by half a step) and triangulates them
with a Delaunay pass.  The construction is deterministic: the same target
element size always produces the same mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.spatial import Delaunay

DIRICHLET = "DIRICHLET"
NEUMANN = "NEUMANN"

# Maximum edge length of a generated mesh is bounded by EDGE_FACTOR * target_h.
EDGE_FACTOR = 2.0

_AREA_EPS = 1e-14


class MeshError(ValueError):
    """Invalid mesh input or an operation that would produce an invalid mesh."""


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

    def contains(self, angle: float | np.ndarray) -> np.ndarray:
        """Membership of angle(s) in the arc, modulo 2*pi."""
        rel = np.mod(np.asarray(angle) - self.theta0, 2.0 * math.pi)
        return rel < (self.theta1 - self.theta0)


@dataclass(eq=False)
class Mesh:
    """Conforming triangulation with a tagged boundary.

    nodes          : (n, 2) float array of coordinates
    triangles      : (m, 3) int array, counter-clockwise node triples
    boundary_edges : (b, 2) int array, consecutive boundary node pairs
    edge_tags      : length-b list of DIRICHLET / NEUMANN
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    edge_tags: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(self.nodes, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(self.boundary_edges, dtype=np.int64)
        self.validate()

    # -- basic queries ----------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def element_areas(self) -> np.ndarray:
        p = self.nodes[self.triangles]
        return 0.5 * np.abs(
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
        )

    @cached_property
    def element_centroids(self) -> np.ndarray:
        return self.nodes[self.triangles].mean(axis=1)

    @cached_property
    def dirichlet_nodes(self) -> np.ndarray:
        """Sorted indices of nodes touching at least one Dirichlet edge."""
        mask = np.array([t == DIRICHLET for t in self.edge_tags], dtype=bool)
        return np.unique(self.boundary_edges[mask])

    @cached_property
    def neumann_nodes(self) -> np.ndarray:
        """Sorted indices of boundary nodes carrying free (loadable) dofs.

        Nodes shared between the two boundary parts count as Dirichlet.
        """
        mask = np.array([t == NEUMANN for t in self.edge_tags], dtype=bool)
        on_neumann = np.unique(self.boundary_edges[mask])
        return np.setdiff1d(on_neumann, self.dirichlet_nodes)

    @cached_property
    def neumann_edges(self) -> np.ndarray:
        mask = np.array([t == NEUMANN for t in self.edge_tags], dtype=bool)
        return self.boundary_edges[mask]

    @cached_property
    def boundary_nodes(self) -> np.ndarray:
        return np.unique(self.boundary_edges)

    # -- validation -------------------------------------------------------

    def validate(self) -> None:
        n = self.n_nodes
        if self.triangles.size and (
            self.triangles.min() < 0 or self.triangles.max() >= n
        ):
            raise MeshError("triangle node index out of range")
        if self.boundary_edges.size and (
            self.boundary_edges.min() < 0 or self.boundary_edges.max() >= n
        ):
            raise MeshError("boundary edge node index out of range")
        p = self.nodes[self.triangles]
        signed = 0.5 * (
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
        )
        if signed.size and signed.min() <= 0.0:
            raise MeshError("triangle with non-positive signed area (not CCW)")
        if self.edge_tags and len(self.edge_tags) != self.boundary_edges.shape[0]:
            raise MeshError("edge tag count does not match boundary edge count")
        for tag in self.edge_tags:
            if tag not in (DIRICHLET, NEUMANN):
                raise MeshError(f"unknown edge tag {tag!r}")

    # -- io ---------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Plain-text export: node table, triangle table, tagged edge table."""
        lines = ["# elastinv mesh v1", f"nodes {self.n_nodes}"]
        for x, y in self.nodes:
            lines.append(f"{float(x)!r} {float(y)!r}")
        lines.append(f"triangles {self.n_elements}")
        for a, b, c in self.triangles:
            lines.append(f"{a} {b} {c}")
        lines.append(f"edges {self.boundary_edges.shape[0]}")
        for (a, b), tag in zip(self.boundary_edges, self.edge_tags):
            lines.append(f"{a} {b} {tag}")
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Mesh":
        tokens = [
            ln.split()
            for ln in Path(path).read_text().splitlines()
            if ln and not ln.startswith("#")
        ]
        it = iter(tokens)

        def block(name, width):
            try:
                head = next(it)
                if head[0] != name:
                    raise MeshError(f"expected {name} block, got {head[0]!r}")
                rows = [next(it) for _ in range(int(head[1]))]
            except (StopIteration, IndexError) as exc:
                # the file ends before the block, or before the rows its header promises
                raise MeshError(f"truncated mesh file {path}: incomplete {name} block") from exc
            if any(len(row) < width for row in rows):
                raise MeshError(f"truncated mesh file {path}: short row in {name} block")
            return rows

        nodes = np.array([[float(v) for v in row] for row in block("nodes", 2)])
        tris = np.array([[int(v) for v in row] for row in block("triangles", 3)])
        rows = block("edges", 3)
        edges = np.array([[int(r[0]), int(r[1])] for r in rows], dtype=np.int64)
        tags = [r[2] for r in rows]
        return cls(nodes, tris, edges.reshape(-1, 2), tags)


def _ring_points(target_h: float) -> np.ndarray:
    n_rings = max(2, int(round(1.0 / target_h)))
    pts = [(0.0, 0.0)]
    for i in range(1, n_rings + 1):
        r = i / n_rings
        m = max(6, int(round(2.0 * math.pi * r * n_rings)))
        offset = (math.pi / m) * (i % 2)
        theta = offset + 2.0 * math.pi * np.arange(m) / m
        pts.extend(zip(r * np.cos(theta), r * np.sin(theta)))
    return np.array(pts)


def generate_disk_mesh(target_h: float) -> Mesh:
    """Triangulate the unit disk with edges no longer than EDGE_FACTOR * target_h.

    The boundary is tagged with the default partition (lower half Dirichlet);
    use partition_boundary to retag.  Raises MeshError for target_h outside
    (0, 1).
    """
    if not (0.0 < target_h < 1.0):
        raise MeshError(f"target_h must lie in (0, 1), got {target_h!r}")

    points = _ring_points(target_h)
    tri = Delaunay(points)
    simplices = tri.simplices.copy()

    p = points[simplices]
    signed = 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )
    flip = signed < 0.0
    simplices[flip] = simplices[flip][:, [0, 2, 1]]
    keep = np.abs(signed) > _AREA_EPS
    simplices = simplices[keep]
    # stable element order regardless of qhull internals
    simplices = simplices[np.lexsort(simplices.T[::-1])]

    edges = _hull_edges(simplices)
    mesh = Mesh(points, simplices, edges, [NEUMANN] * len(edges))
    return partition_boundary(mesh, BoundaryPartitionSpec())


def _hull_edges(simplices: np.ndarray) -> np.ndarray:
    """Edges used by exactly one triangle, ordered CCW by midpoint angle."""
    counts: dict[tuple[int, int], tuple[int, int]] = {}
    seen: dict[tuple[int, int], int] = {}
    for a, b, c in simplices:
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            seen[key] = seen.get(key, 0) + 1
            counts[key] = (u, v)  # keep CCW orientation of the owning triangle
    boundary = [counts[k] for k, cnt in seen.items() if cnt == 1]
    return np.array(boundary, dtype=np.int64)


def partition_boundary(mesh: Mesh, spec: BoundaryPartitionSpec) -> Mesh:
    """Retag boundary edges by the angular position of their midpoints.

    Returns a new Mesh; raises MeshError if either boundary part comes out
    empty.
    """
    mids = 0.5 * (mesh.nodes[mesh.boundary_edges[:, 0]] + mesh.nodes[mesh.boundary_edges[:, 1]])
    angles = np.mod(np.arctan2(mids[:, 1], mids[:, 0]), 2.0 * math.pi)
    inside = spec.contains(angles)
    tags = [DIRICHLET if hit else NEUMANN for hit in inside]
    if all(inside) or not any(inside):
        raise MeshError("boundary partition leaves one part empty")
    order = np.argsort(angles, kind="stable")
    return Mesh(
        mesh.nodes.copy(),
        mesh.triangles.copy(),
        mesh.boundary_edges[order],
        [tags[i] for i in order],
    )
