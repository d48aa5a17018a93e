"""framesense: sensor-failure-robust spectral fault detection.

The package splits into a small stack of layers:

* :mod:`framesense.frames` - finite frame theory over complex n-space,
  including multiplicative (coordinatewise-product) frame construction;
* :mod:`framesense.scenario` - the sensing-scenario model: readings that
  factor into sensor sensitivities and scene volumes, health-space maps,
  and the radiative/dominant/harmonious predicates;
* :mod:`framesense.mappings` - the basis-selection and magnitude-sum maps
  into health space and verifiers for their structural guarantees;
* :mod:`framesense.turbine` - a deterministic multi-engine vibration
  simulator with DFT line extraction;
* :mod:`framesense.detector` - the threshold detector and the run/sweep
  statistics comparing both fusion pipelines;
* :mod:`framesense.cli` - the ``framesense`` command.
"""

from .frames import (
    FrameBounds,
    MultiplicativeFactorPair,
    VectorSet,
    analysis,
    canonical_dual,
    frame_bounds,
    frame_operator,
    mf_bound_certificate,
    multiplicative_product,
    reconstruct,
    span_certificate,
    synthesis,
)
from .scenario import (
    Factorization,
    HealthMap,
    IndexAssignment,
    Scenario,
    build_index_sets,
    factor_readings,
    separate,
    validate_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "FrameBounds",
    "MultiplicativeFactorPair",
    "VectorSet",
    "analysis",
    "canonical_dual",
    "frame_bounds",
    "frame_operator",
    "mf_bound_certificate",
    "multiplicative_product",
    "reconstruct",
    "span_certificate",
    "synthesis",
    "Factorization",
    "HealthMap",
    "IndexAssignment",
    "Scenario",
    "build_index_sets",
    "factor_readings",
    "separate",
    "validate_scenario",
    "__version__",
]
