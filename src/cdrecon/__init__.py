"""Conductivity imaging from the magnitude of one interior current density
field on the unit square: forward simulation (Robin and complete electrode
model) and reconstruction by a regularized weighted least-gradient
iteration, with a split Bregman comparator.

No function writes into a field it is given, though a field shares the
array it is built from (``ScalarField``), so a caller that writes into that
array changes the field.  All randomness is seeded, and identical inputs
give byte-identical outputs at one BLAS thread count.  The outputs depend on
that count: the forward solves, ``reconstruct`` and
``split_bregman_minimize`` can round differently under
``OPENBLAS_NUM_THREADS=1`` and ``=2``.  Pin it to compare outputs byte for
byte.
"""

from .boundary import (
    ElectrodeSet,
    RobinCoefficients,
    base_coefficients,
    robin_coefficients,
    smoothed_coefficients,
)
from .bregman import BregmanConfig, split_bregman_minimize
from .elliptic import (
    SolveStats,
    SparseSystem,
    assemble_cem,
    assemble_laplace_dirichlet,
    assemble_robin,
    boundary_net_flux,
    pcg_solve,
)
from .errors import (
    AssemblyError,
    CdreconError,
    DataError,
    DimensionError,
    FormatError,
    GridError,
    NotSPDError,
    SolverError,
    UsageError,
)
from .fields import (
    BoundaryValues,
    Grid,
    ScalarField,
    VectorField,
    boundary_trace,
    divergence,
    gradient,
    make_grid,
    read_field,
    rel_l2_error,
    weighted_tv,
    write_field,
)
from .family import level_calibration, nonuniqueness_transform
from .forward import (
    ForwardResult,
    add_noise,
    cem_scaling,
    interior_data,
    robin_data,
    solve_cem_forward,
    solve_forward,
)
from .phantom import Ellipse, PhantomSpec, generate_phantom, read_pgm, write_pgm
from .recon import (
    ReconConfig,
    ReconReport,
    ScheduleStudy,
    check_schedule,
    convergence_study,
    functional_G,
    functional_Gdelta,
    reconstruct,
    sigma_from_potential,
)

__version__ = "0.1.0"
