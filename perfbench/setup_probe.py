"""Cold set-up of one cavsyk process, for timing from launch to exit.

    python3 perfbench/setup_probe.py CONFIG

Imports cavsyk and builds the statics the config's first realization needs:
the Fock sector; for the effective model the grid, trap modes and cavity
modes; and the per-process contraction plan through a first
build_effective_hamiltonian call (on a sampled Gaussian tensor, so no
per-realization work is timed).  Run with PYTHONPATH pointing at the
package sources.
"""

import json
import math
import sys

import cavsyk


def main(path):
    with open(path) as handle:
        config = cavsyk.RunConfig.from_dict(json.load(handle))
    sector = cavsyk.enumerate_sector(config.n_modes, config.n_particles)
    if config.model == "effective":
        grid = cavsyk.make_grid(config.grid_diameter, config.grid_points)
        cavsyk.solve_trap_modes(grid, config.n_modes)
        cavsyk.cavity_mode_set(config.cutoff, config.zeta, grid)
    tensor = cavsyk.normalize_couplings(
        cavsyk.sample_syk_gaussian(config.n_modes, "real", seed=0)
    )
    matrix = cavsyk.build_effective_hamiltonian(tensor, sector)
    if matrix.dimension != math.comb(config.n_modes, config.n_particles):
        raise SystemExit(f"sector dimension {matrix.dimension} is wrong")


if __name__ == "__main__":
    main(sys.argv[1])
