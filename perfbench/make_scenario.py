"""Write the zero-noise spectral scenario the ``theorems`` workload verifies.

Usage: ``python3 perfbench/make_scenario.py OUT.json --seed N --times K``
with ``src`` on ``PYTHONPATH``.

The scenario is the default 4-engine fleet sensed through the default
mixing matrix, one time index per fleet state, the states cycling through
engine 1 normal / gear fault / failure, at the CLI's default DFT size and
sample rate.  Prints one JSON line with its shape, the file size and the
tone kernel that synthesised it.
"""

from __future__ import annotations

import argparse
import json
import os

from framesense import turbine
from framesense.scenario import scenario_to_json_dict
from workloads import DFT_SIZE, MIXING_OFF_DIAGONAL

SAMPLE_RATE = 32768.0  # the CLI's default; with DFT_SIZE, 4 Hz bins


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("out")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--times", type=int, required=True)
    args = parser.parse_args()
    cycle = [states for _, states in turbine.engine1_conditions()]
    states = [cycle[k % len(cycle)] for k in range(args.times)]
    cfg = turbine.SimConfig(dft_size=DFT_SIZE, sample_rate=SAMPLE_RATE, rng_seed=args.seed)
    scenario = turbine.dataset_scenario(
        turbine.default_fleet(), turbine.mixing_matrix(MIXING_OFF_DIAGONAL), cfg, states
    )
    with open(args.out, "w") as fh:
        json.dump(scenario_to_json_dict(scenario), fh)
    shape = {"N": scenario.N, "M": scenario.M, "K": scenario.K, "n": scenario.n}
    kernel = getattr(turbine, "IMPLEMENTATION", None)
    print(json.dumps(dict(shape, bytes=os.path.getsize(args.out), kernel=kernel)))


if __name__ == "__main__":
    main()
