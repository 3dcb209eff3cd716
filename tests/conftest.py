import numpy as np
import pytest

from elastinv.fem import LameField, RegionParameterization, SurfaceLoad, strain_energy_density
from elastinv.mesh import generate_disk_mesh

DEFAULT_LOADS = [(0.1, 0.1), (0.1, 0.2), (0.2, 0.1), (0.3, 0.5)]


@pytest.fixture(scope="session")
def coarse_mesh():
    return generate_disk_mesh(0.25)


@pytest.fixture(scope="session")
def medium_mesh():
    return generate_disk_mesh(0.2)


@pytest.fixture(scope="session")
def fine_mesh():
    return generate_disk_mesh(0.1)


@pytest.fixture
def field_37(medium_mesh):
    return LameField.constant(3.0, 7.0, medium_mesh.n_elements)


@pytest.fixture
def field_11(medium_mesh):
    return LameField.constant(1.0, 1.0, medium_mesh.n_elements)


@pytest.fixture
def default_loads():
    return [SurfaceLoad(constant=g) for g in DEFAULT_LOADS]


def random_field(mesh, rng, lam_box=(1.0, 4.0), mu_box=(2.0, 8.0)):
    return LameField(
        rng.uniform(*lam_box, mesh.n_elements),
        rng.uniform(*mu_box, mesh.n_elements),
    )


def one_region(mesh):
    """The parameterization of constant fields, one region over the whole mesh."""
    return RegionParameterization(np.zeros(mesh.n_elements, dtype=int))


def random_trace(mesh, rng):
    return rng.standard_normal((len(mesh.neumann_nodes), 2))


def interior_energy(solver, u):
    """Exact volume integral of C(strain):strain for one (2n,) displacement column."""
    strain, div = solver.disc.strains(u[:, None])
    return float(np.dot(solver.disc.area, strain_energy_density(solver.field.lam, solver.field.mu, strain, div)[0]))
