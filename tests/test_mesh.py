import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastinv.mesh import (
    DIRICHLET,
    NEUMANN,
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


@pytest.mark.parametrize("h", [0.0, -0.1, 1.0, 2.0])
def test_target_h_out_of_range_rejected(h):
    with pytest.raises(MeshError):
        generate_disk_mesh(h)


def test_frozen_counts_h02(medium_mesh):
    assert medium_mesh.n_nodes == H02_NODES
    assert medium_mesh.n_elements == H02_ELEMENTS
    assert len(medium_mesh.boundary_edges) == H02_BOUNDARY_EDGES


def test_determinism(medium_mesh):
    other = generate_disk_mesh(0.2)
    assert np.array_equal(other.nodes, medium_mesh.nodes)
    assert np.array_equal(other.triangles, medium_mesh.triangles)
    assert np.array_equal(other.boundary_edges, medium_mesh.boundary_edges)
    assert other.edge_tags == medium_mesh.edge_tags


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
    r = np.linalg.norm(medium_mesh.nodes[medium_mesh.boundary_nodes], axis=1)
    assert np.allclose(r, 1.0, atol=1e-12)


def test_max_edge_length_bound():
    from elastinv.mesh import EDGE_FACTOR

    for h in (0.3, 0.15):
        mesh = generate_disk_mesh(h)
        p = mesh.nodes[mesh.triangles]
        edges = np.linalg.norm(np.roll(p, -1, axis=1) - p, axis=2)
        assert edges.max() <= EDGE_FACTOR * h


def test_boundary_edges_form_closed_loop(medium_mesh):
    # every boundary node appears in exactly two boundary edges
    counts = np.bincount(medium_mesh.boundary_edges.ravel())
    assert np.all(counts[medium_mesh.boundary_nodes] == 2)


def test_refinement_doubles_boundary(medium_mesh, fine_mesh):
    assert len(fine_mesh.boundary_edges) >= 2 * len(medium_mesh.boundary_edges)


def test_default_partition_lower_half(medium_mesh):
    mids = 0.5 * (
        medium_mesh.nodes[medium_mesh.boundary_edges[:, 0]]
        + medium_mesh.nodes[medium_mesh.boundary_edges[:, 1]]
    )
    for mid, tag in zip(mids, medium_mesh.edge_tags):
        if abs(mid[1]) < 1e-12:
            continue  # midpoint on the split line: tie-breaking is not observable behavior
        expected = DIRICHLET if mid[1] < 0 else NEUMANN
        assert tag == expected


def test_partition_conserves_edge_count(medium_mesh):
    tagged = partition_boundary(medium_mesh, BoundaryPartitionSpec(0.0, math.pi / 2))
    n_d = tagged.edge_tags.count(DIRICHLET)
    n_n = tagged.edge_tags.count(NEUMANN)
    assert n_d > 0 and n_n > 0
    assert n_d + n_n == len(medium_mesh.boundary_edges)


def test_partition_empty_part_rejected(medium_mesh):
    with pytest.raises(MeshError):
        partition_boundary(medium_mesh, BoundaryPartitionSpec(0.0, 2 * math.pi - 1e-9))


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
    for ang, tag in zip(angles, tagged.edge_tags):
        inside = (ang - theta0) % (2 * math.pi) < width
        assert tag == (DIRICHLET if inside else NEUMANN)


def test_dirichlet_and_neumann_nodes_disjoint(medium_mesh):
    assert not set(medium_mesh.dirichlet_nodes) & set(medium_mesh.neumann_nodes)


def test_save_load_roundtrip(tmp_path, medium_mesh):
    path = tmp_path / "mesh.txt"
    medium_mesh.save(path)
    loaded = Mesh.load(path)
    assert np.array_equal(loaded.nodes, medium_mesh.nodes)
    assert np.array_equal(loaded.triangles, medium_mesh.triangles)
    assert np.array_equal(loaded.boundary_edges, medium_mesh.boundary_edges)
    assert loaded.edge_tags == medium_mesh.edge_tags


def test_truncated_file_rejected(tmp_path, medium_mesh):
    full = tmp_path / "mesh.txt"
    medium_mesh.save(full)
    lines = full.read_text().splitlines()
    half = tmp_path / "half.txt"
    half.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    with pytest.raises(MeshError, match="truncated"):
        Mesh.load(half)
    short_row = tmp_path / "short_row.txt"
    short_row.write_text("\n".join(lines[:-1] + [lines[-1].rsplit(" ", 1)[0]]) + "\n")
    with pytest.raises(MeshError, match="truncated"):
        Mesh.load(short_row)


def test_invalid_mesh_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError):
        Mesh(nodes, np.array([[0, 2, 1]]), np.empty((0, 2), dtype=int))  # clockwise
    with pytest.raises(MeshError):
        Mesh(nodes, np.array([[0, 1, 3]]), np.empty((0, 2), dtype=int))  # out of range
