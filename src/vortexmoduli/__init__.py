"""Computational tools for moduli spaces of gauged vortices on a closed
surface: the exact cohomology ring of symmetric powers, Grassmannian
embedding numerology, Kahler-class comparisons, a concrete genus-zero
realization of the embedding, partition strata of the local moduli space,
and a numerical solver for the vortex equations on a flat torus.

Importing the package loads none of its modules.  Each public name and
each module resolves on first access, so a program loads only the modules
it uses; only the solver (``taubes_solver``, with ``TorusSpec``,
``VortexProblem``, ``TorusVortexState``, ``solve`` and ``bradlow_sweep``)
loads numpy.  ``from vortexmoduli import *`` gives every name but the
solver's.
"""

from importlib import import_module

__version__ = "0.1.0"

# each module with the names the package exports from it
_EXPORTS = {
    "symring": ("RingParams", "CohomologyClass", "eta", "xi", "sigma", "sigma_j",
                "multiply", "integrate", "pd_sigma0", "pairing", "parse_class"),
    "tensor_oracle": ("TensorClass", "pullback", "oracle_multiply", "oracle_integrate"),
    "moduli_numerics": ("EmbeddingParams", "PhysicalParams", "ParameterError",
                        "StabilityError", "NonConvergenceError", "rr_dim",
                        "grassmann_params", "moduli_dim", "stability_check"),
    "kahler_class": ("KahlerClass2", "CurveDegrees", "l2_class", "curve_degrees",
                     "fs_coefficients", "quantization", "representability",
                     "symplectic_volume"),
    "genus0": ("BinaryForm", "BinaryFormPair", "SubspaceBasis", "embed_pair", "plucker",
               "reconstruct", "curve_degree"),
    "strata": ("Partition", "partitions", "stratum_dim", "stratification_report"),
    "taubes_solver": ("TorusSpec", "VortexProblem", "TorusVortexState", "solve",
                      "bradlow_sweep"),
}

# public name -> the module that defines it; a module maps to itself
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in (module, *names)}

# a star import loads every module it names, so it names none of the solver's
__all__ = [name for name, module in _MODULE_OF.items() if module != "taubes_solver"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = import_module("." + module, __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
