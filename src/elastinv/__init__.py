"""2D isotropic linear elasticity: forward solves, Neumann-to-Dirichlet
operator analysis, and Lame-parameter reconstruction from boundary data."""
