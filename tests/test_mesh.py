import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastinv import mesh as mesh_module
from elastinv.mesh import (
    MIN_TARGET_H,
    BoundaryPartitionSpec,
    Mesh,
    MeshError,
    generate_disk_mesh,
    partition_boundary,
)

# frozen from one generator run; regression values, not derivations
H02_NODES = 95
H02_ELEMENTS = 157
H02_BOUNDARY_EDGES = 31


class _RingsBuilt(Exception):
    pass


def _no_rings(target_h):
    raise _RingsBuilt(target_h)


@pytest.mark.parametrize("h", [0.0, -0.1, 1.0, 2.0, 1e-9, math.nextafter(MIN_TARGET_H, 0.0)])
def test_target_h_out_of_range_rejected(h, monkeypatch):
    # refused before any ring: below the floor a mesh holds ~pi/h^2 nodes
    monkeypatch.setattr(mesh_module, "_ring_points", _no_rings)
    with pytest.raises(MeshError, match="target_h"):
        generate_disk_mesh(h)


def test_target_h_at_floor_admitted(monkeypatch):
    # admitted means the rings are asked for; they are not built here
    monkeypatch.setattr(mesh_module, "_ring_points", _no_rings)
    with pytest.raises(_RingsBuilt):
        generate_disk_mesh(MIN_TARGET_H)


def test_frozen_counts_h02(medium_mesh):
    assert medium_mesh.n_nodes == H02_NODES
    assert medium_mesh.n_elements == H02_ELEMENTS
    assert len(medium_mesh.boundary_edges) == H02_BOUNDARY_EDGES


def test_determinism(medium_mesh):
    other = generate_disk_mesh(0.2)
    assert np.array_equal(other.nodes, medium_mesh.nodes)
    assert np.array_equal(other.triangles, medium_mesh.triangles)
    assert np.array_equal(other.boundary_edges, medium_mesh.boundary_edges)
    assert np.array_equal(other.clamped, medium_mesh.clamped)


def test_disk_area_within_two_percent(fine_mesh):
    assert abs(fine_mesh.element_areas.sum() - math.pi) / math.pi < 0.02


def test_triangles_positive_area_and_in_range(medium_mesh):
    p = medium_mesh.nodes[medium_mesh.triangles]
    signed = 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )
    assert signed.min() > 0
    assert medium_mesh.triangles.min() >= 0
    assert medium_mesh.triangles.max() < medium_mesh.n_nodes
    assert medium_mesh.boundary_edges.max() < medium_mesh.n_nodes


def test_boundary_nodes_on_unit_circle(medium_mesh):
    r = np.linalg.norm(medium_mesh.nodes[np.unique(medium_mesh.boundary_edges)], axis=1)
    assert np.allclose(r, 1.0, atol=1e-12)


def test_max_edge_length_bound():
    # generate_disk_mesh documents edges no longer than 2 * target_h
    for h in (0.3, 0.15):
        mesh = generate_disk_mesh(h)
        p = mesh.nodes[mesh.triangles]
        edges = np.linalg.norm(np.roll(p, -1, axis=1) - p, axis=2)
        assert edges.max() <= 2.0 * h


def _loop_boundary_edges(triangles):
    """Edges used by exactly one triangle, oriented as in that triangle."""
    owner, seen = {}, {}
    for a, b, c in triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            seen[key] = seen.get(key, 0) + 1
            owner[key] = (u, v)
    return np.array([owner[k] for k, cnt in seen.items() if cnt == 1], dtype=np.int64)


@pytest.mark.parametrize("h", [0.99, 0.5, 0.3, 0.2, 0.11, 0.08, 0.05, 0.02])
@pytest.mark.parametrize("arc", [(math.pi, 2.0 * math.pi), (math.pi / 2.0, math.pi)])
def test_boundary_edges_match_loop_reference(h, arc):
    mesh = partition_boundary(generate_disk_mesh(h), BoundaryPartitionSpec(*arc))
    edges = _loop_boundary_edges(mesh.triangles)
    ref = partition_boundary(
        Mesh(mesh.nodes, mesh.triangles, edges, np.zeros(len(edges), bool)), BoundaryPartitionSpec(*arc)
    )
    assert np.array_equal(mesh.boundary_edges, ref.boundary_edges)
    assert np.array_equal(mesh.clamped, ref.clamped)


def test_boundary_edges_form_closed_loop(medium_mesh):
    # every boundary node appears in exactly two boundary edges
    counts = np.bincount(medium_mesh.boundary_edges.ravel())
    assert np.all(counts[np.unique(medium_mesh.boundary_edges)] == 2)


def test_refinement_doubles_boundary(medium_mesh, fine_mesh):
    assert len(fine_mesh.boundary_edges) >= 2 * len(medium_mesh.boundary_edges)


def test_default_partition_lower_half(medium_mesh):
    mids = 0.5 * (
        medium_mesh.nodes[medium_mesh.boundary_edges[:, 0]]
        + medium_mesh.nodes[medium_mesh.boundary_edges[:, 1]]
    )
    for mid, clamped in zip(mids, medium_mesh.clamped):
        if abs(mid[1]) < 1e-12:
            continue  # midpoint on the split line: tie-breaking is not observable behavior
        assert clamped == (mid[1] < 0)


def test_partition_conserves_edge_count(medium_mesh):
    tagged = partition_boundary(medium_mesh, BoundaryPartitionSpec(0.0, math.pi / 2))
    n_d = np.count_nonzero(tagged.clamped)
    n_n = np.count_nonzero(~tagged.clamped)
    assert n_d > 0 and n_n > 0
    assert n_d + n_n == len(medium_mesh.boundary_edges)


def test_partition_empty_part_rejected(medium_mesh):
    # the second arc leaves one loaded edge at h=0.2, both of whose ends are
    # clamped interface nodes, so no loaded node
    for arc in [(0.0, 2 * math.pi - 1e-9), (0.1, 2 * math.pi)]:
        with pytest.raises(MeshError):
            partition_boundary(medium_mesh, BoundaryPartitionSpec(*arc))


@pytest.mark.parametrize("width", [0.0, -1.0, 2 * math.pi, 7.0])
def test_invalid_arc_width_rejected(width):
    with pytest.raises(MeshError):
        BoundaryPartitionSpec(1.0, 1.0 + width)


@given(
    theta0=st.floats(0.0, 2 * math.pi),
    width=st.floats(0.5, 2 * math.pi - 0.5),
)
@settings(max_examples=25, deadline=None)
def test_partition_tags_match_arc(theta0, width, medium_mesh):
    spec = BoundaryPartitionSpec(theta0, theta0 + width)
    try:
        tagged = partition_boundary(medium_mesh, spec)
    except MeshError:
        return  # arc too small/large to catch an edge midpoint
    mids = 0.5 * (
        tagged.nodes[tagged.boundary_edges[:, 0]] + tagged.nodes[tagged.boundary_edges[:, 1]]
    )
    angles = np.mod(np.arctan2(mids[:, 1], mids[:, 0]), 2 * math.pi)
    for ang, clamped in zip(angles, tagged.clamped):
        assert clamped == ((ang - theta0) % (2 * math.pi) < width)


def test_dirichlet_and_neumann_nodes_disjoint(medium_mesh):
    assert not set(medium_mesh.dirichlet_nodes) & set(medium_mesh.neumann_nodes)


@given(
    theta0=st.floats(0.0, 2 * math.pi),
    width=st.floats(0.5, 2 * math.pi - 0.5),
)
@settings(max_examples=25, deadline=None)
def test_interface_nodes_count_as_clamped(theta0, width, medium_mesh):
    try:
        mesh = partition_boundary(medium_mesh, BoundaryPartitionSpec(theta0, theta0 + width))
    except MeshError:
        return  # arc too small/large to catch an edge midpoint
    dirichlet, neumann = set(mesh.dirichlet_nodes), set(mesh.neumann_nodes)
    assert dirichlet | neumann == set(mesh.boundary_edges.ravel())
    assert not dirichlet & neumann
    on_clamped = set(mesh.boundary_edges[mesh.clamped].ravel())
    on_loaded = set(mesh.boundary_edges[~mesh.clamped].ravel())
    assert on_clamped & on_loaded  # the arc has interface nodes
    assert on_clamped & on_loaded <= dirichlet
    loaded = [edge for edge, clamped in zip(mesh.boundary_edges.tolist(), mesh.clamped) if not clamped]
    assert mesh.neumann_edges.tolist() == loaded


def test_invalid_mesh_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError):
        Mesh(nodes, np.array([[0, 2, 1]]), np.empty((0, 2), dtype=int))  # clockwise
    with pytest.raises(MeshError):
        Mesh(nodes, np.array([[0, 1, 3]]), np.empty((0, 2), dtype=int))  # out of range
    with pytest.raises(MeshError, match="boundary edge"):
        Mesh(nodes, np.array([[0, 1, 2]]), np.array([[0, 1], [1, 3]]), np.zeros(2, bool))  # out of range
    with pytest.raises(MeshError):
        Mesh(nodes, np.array([[0, 1, 2]]), np.array([[0, 1], [1, 2], [2, 0]]))  # untagged boundary
    edges = np.array([[0, 1], [1, 2], [2, 0]])
    string_tags = [tag.upper() for tag in ("dirichlet", "neumann", "neumann")]  # the former edge labels
    with pytest.raises(MeshError):
        Mesh(nodes, np.array([[0, 1, 2]]), edges, string_tags)
    with pytest.raises(MeshError):
        Mesh(nodes, np.array([[0, 1, 2]]), edges, np.array([True, False]))  # one short


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_node_rejected(bad):
    # a NaN or infinite signed area is not <= 0, so the orientation check lets it through
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, bad]])
    with pytest.raises(MeshError, match="finite"):
        Mesh(nodes, np.array([[0, 1, 2]]), np.array([[0, 1], [1, 2], [2, 0]]), np.zeros(3, bool))


@pytest.mark.parametrize(
    "name, shape",
    [("nodes", (3, 3)), ("triangles", (1, 4)), ("boundary_edges", (3, 3)), ("boundary_edges", (6,))],
    ids=["3-d-nodes", "quadrilateral", "edge-triples", "flat-edges"],
)
def test_array_of_the_wrong_shape_rejected(name, shape):
    # the signed areas read only the first two coordinates of the first three nodes of each triangle
    arrays = {"nodes": np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
              "triangles": np.array([[0, 1, 2]]), "boundary_edges": np.array([[0, 1], [1, 2], [2, 0]])}
    arrays[name] = np.resize(arrays[name], shape)
    with pytest.raises(MeshError, match=name):
        Mesh(**arrays, clamped=np.zeros(3, bool))
