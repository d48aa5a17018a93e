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
  simulator that synthesises the line bins of its spectra in closed form;
* :mod:`framesense.detector` - the threshold detector, with one scorer of
  both fusion pipelines and two writers, for the condition table and the
  SNR sweep;
* :mod:`framesense.cli` - the ``framesense`` command.

Importing the package loads none of them: import names from their layer,
as in ``from framesense.frames import VectorSet``.  Each command loads only
the layers it runs.
"""

__version__ = "0.1.0"
