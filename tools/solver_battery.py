"""Print how the obstacle solver fares on a fixed battery of smooth obstacles.

The battery is 288 cases: grids (n, N) in {(1, 64), (1, 256), (2, 16),
(2, 32)}; s in {1.05, 1.1, 1.2, 1.5, 2, 3}; the Riesz and Bessel kernels;
alpha in {0.5, 0.9} * n / s; and three obstacles on the nodes
``np.linspace(-1, 1, N)`` per axis:

- ``sqrt``: sqrt(exp(-|x|^2 / 0.1));
- ``two``: exp(-|x - 0.3 * 1|^2 / 0.05) + 0.5 * exp(-|x + 0.4 * 1|^2 / 0.02);
- ``sq``: exp(-|x|^2 / 0.3)^2.

Each is one cold `obstacle_program` call at tol 1e-6 with max_iter 4,000.
Then the large cases, on 2D N=64 and 3D N=16 at s = 1.05 with the default
budget, the same obstacles, kernels and alphas. The script prints one line
per case and, for each of the two parts, the totals: cases certified,
steps, and wall time. It gates nothing. Run from the repository root::

    python tools/solver_battery.py
"""
import os
import sys
import time

import numpy as np

ROOT = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir))
sys.path.insert(0, os.path.join(ROOT, "src"))

from capax.grid import Grid  # noqa: E402
from capax.kernels import kernel_table  # noqa: E402
from capax.solver import MAX_ITER, obstacle_program  # noqa: E402

TOL = 1e-6
BATTERY_MAX_ITER = 4000
GRIDS = ((1, 64), (1, 256), (2, 16), (2, 32))
LARGE_GRIDS = ((2, 64), (3, 16))
S_VALUES = (1.05, 1.1, 1.2, 1.5, 2.0, 3.0)
KINDS = ("riesz", "bessel")
ALPHA_RATIOS = (0.5, 0.9)


def obstacles(n: int, N: int) -> dict:
    """The battery's three obstacles on the linspace(-1, 1, N) nodes of n axes."""
    x = np.stack(np.meshgrid(*([np.linspace(-1.0, 1.0, N)] * n), indexing="ij"))

    def sq_dist(shift):
        return ((x - shift) ** 2).sum(axis=0)

    return {"sqrt": np.sqrt(np.exp(-sq_dist(0.0) / 0.1)),
            "two": np.exp(-sq_dist(0.3) / 0.05) + 0.5 * np.exp(-sq_dist(-0.4) / 0.02),
            "sq": np.exp(-sq_dist(0.0) / 0.3) ** 2}


def cases(grids, s_values, max_iter):
    for n, N in grids:
        obs = obstacles(n, N)
        for s in s_values:
            for kind in KINDS:
                for ratio in ALPHA_RATIOS:
                    for name, b in obs.items():
                        yield (n, N, s, kind, ratio, name), b, max_iter


def run(label, battery):
    """Solve and print each case of `battery`, then the totals."""
    certified = steps = count = 0
    start = time.perf_counter()
    for (n, N, s, kind, ratio, name), b, max_iter in battery:
        table = kernel_table(Grid(n, 1.0, N), ratio * n / s, kind)
        t0 = time.perf_counter()
        res = obstacle_program(table, b, s, tol=TOL, max_iter=max_iter)
        ms = 1e3 * (time.perf_counter() - t0)
        count += 1
        certified += res.converged
        steps += res.iterations
        print(f"n={n} N={N:<3} s={s:<4} {kind:<6} alpha={ratio}*n/s {name:<4} "
              f"converged={res.converged!s:<5} steps={res.iterations:<5} "
              f"gap={res.gap:.2e} ms={ms:.1f}")
    wall = time.perf_counter() - start
    print(f"{label}: certified {certified} of {count}, steps {steps}, wall {wall:.1f} s")


if __name__ == "__main__":
    run("battery", cases(GRIDS, S_VALUES, BATTERY_MAX_ITER))
    run("large", cases(LARGE_GRIDS, (1.05,), MAX_ITER))
