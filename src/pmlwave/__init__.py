"""2D acoustic wave solver with a perfectly matched layer.

Continuous Q_p elements for the pressure, discontinuous Q_p for the two
auxiliary PML fields, Gauss-Legendre quadrature with p+1 points per
direction, classical RK4 in time. A Laplace-domain lab verifies the
discrete energy inequality and the a-priori convergence rate on small
meshes.
"""

from .assembly import GaussianPulse, Operators, assemble_all
from .config import (SimulationConfig, config_from_dict, parse_config,
                     serialize_config)
from .errors import ConfigError, NumericalError
from .experiments import (build_problem, run_convergence_study,
                          run_laplace_battery, run_longtime_experiment,
                          run_pml_error_experiment, run_simulation)
from .mesh import (build_cartesian_mesh, dof_map, homogeneous_material,
                   layered_material)
from .pml import (PmlConfig, damping, damping_strength, spectral_identity_check, stretch,
                  tolerance)
from .quadrature import gauss_legendre_rule, gauss_lobatto_nodes, tensor_basis_tables
from .timestepper import WaveStepper, run

__all__ = [
    "ConfigError", "NumericalError",
    "GaussianPulse", "Operators", "assemble_all",
    "SimulationConfig", "config_from_dict", "parse_config", "serialize_config",
    "build_problem", "run_convergence_study", "run_laplace_battery",
    "run_longtime_experiment", "run_pml_error_experiment", "run_simulation",
    "build_cartesian_mesh", "dof_map", "homogeneous_material", "layered_material",
    "PmlConfig", "damping", "damping_strength", "spectral_identity_check", "stretch", "tolerance",
    "gauss_legendre_rule", "gauss_lobatto_nodes", "tensor_basis_tables",
    "WaveStepper", "run",
]
__version__ = "0.1.0"
