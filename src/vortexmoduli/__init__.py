"""Computational tools for moduli spaces of gauged vortices on a closed
surface: the exact cohomology ring of symmetric powers, Grassmannian
embedding numerology, Kahler-class comparisons, a concrete genus-zero
realization of the embedding, partition strata of the local moduli space,
and a numerical solver for the vortex equations on a flat torus.

Only the solver needs numpy.  Its names (``TorusSpec``, ``VortexProblem``,
``TorusVortexState``, ``solve``, ``bradlow_sweep``) resolve on first access,
so importing the package does not load numpy.
"""

from .symring import (
    RingParams,
    CohomologyClass,
    eta,
    xi,
    sigma,
    sigma_j,
    multiply,
    integrate,
    pd_sigma0,
    pairing,
    parse_class,
)
from .tensor_oracle import TensorClass, pullback, oracle_multiply, oracle_integrate
from .moduli_numerics import (
    EmbeddingParams,
    PhysicalParams,
    ParameterError,
    StabilityError,
    NonConvergenceError,
    rr_dim,
    grassmann_params,
    moduli_dim,
    stability_check,
)
from .kahler_class import (
    KahlerClass2,
    CurveDegrees,
    l2_class,
    curve_degrees,
    fs_coefficients,
    quantization,
    representability,
    symplectic_volume,
)
from .genus0 import (
    BinaryForm,
    BinaryFormPair,
    SubspaceBasis,
    embed_pair,
    plucker,
    reconstruct,
    curve_degree,
)
from .strata import Partition, partitions, stratum_dim, stratification_report

__version__ = "0.1.0"

_SOLVER_NAMES = frozenset({"TorusSpec", "VortexProblem", "TorusVortexState", "solve",
                           "bradlow_sweep"})


def __getattr__(name):
    if name in _SOLVER_NAMES:
        from . import taubes_solver
        return getattr(taubes_solver, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | _SOLVER_NAMES)
