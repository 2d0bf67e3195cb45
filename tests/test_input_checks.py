"""Every argument check of the library raises ValueError with its message."""

import math

import numpy as np
import pytest

from capax.capacity import lq_cap_norm
from capax.families import field_family, measure_family
from capax.grid import Field, Grid, Params, annulus_mask, ball_mask, cube_mask
from capax.kernels import KernelTable, kernel_table
from capax.potentials import Measure, wolff_at_points, wolff_potential
from capax.solver import obstacle_program
from capax.spaces import a1_weight_witness, f_norm
from capax.verify import check_ibp

G = Grid(1, 1.0, 16)
P = Params(1, 0.4, 2.0)
ONE = Field(G, np.ones(G.shape), nonneg=True)
ATOM = Measure.from_atoms(G, [[0.0]], [1.0])
BALL = ball_mask(G, 0.3).members.astype(float)

CASES = {
    "lq_cap_norm q <= 0": (lambda: lq_cap_norm(ONE, 0.0, P), "q must be positive"),
    "Params n": (lambda: Params(4, 0.4, 2.0), "n must be 1, 2 or 3"),
    "p_conj without p": (lambda: P.p_conj, "p not set"),
    "annulus radii": (lambda: annulus_mask(G, 0.4, 0.2), "r_inner < r_outer"),
    "ball radius nan": (lambda: ball_mask(G, math.nan), "radius must be nonnegative"),
    "ball radius < 0": (lambda: ball_mask(G, -1.0), "radius must be nonnegative"),
    "cube side nan": (lambda: cube_mask(G, math.nan), "side must be nonnegative"),
    "cube side < 0": (lambda: cube_mask(G, -0.5), "side must be nonnegative"),
    "kernel table shape": (lambda: KernelTable(G, np.ones(16), 0.4, "riesz"),
                           "kernel table shape"),
    "atom dimension": (lambda: Measure.from_atoms(G, [[0.0, 0.0]], [1.0]), "wrong dimension"),
    "atom position nan": (lambda: Measure.from_atoms(G, [[math.nan]], [1.0]),
                          r"atom position \(nan,\) is not a finite point of the box"),
    "density grid": (lambda: Measure(G, (), Field(Grid(1, 1.0, 32), np.ones(32))),
                     "density grid does not match"),
    "wolff s <= 1": (lambda: wolff_potential(ATOM, 0.4, 1.0), "s must exceed 1"),
    "wolff R <= 0": (lambda: wolff_at_points(ATOM, 0.4, 2.0, [[0.1]], R=0.0),
                     "R must be positive"),
    "wolff point nan": (lambda: wolff_at_points(ATOM, 0.4, 2.0, [[math.nan]]),
                        "points must be finite"),
    "obstacle s <= 1": (lambda: obstacle_program(kernel_table(G, 0.4, "riesz"), BALL, 1.0),
                        "s must exceed 1"),
    "obstacle max_iter < 1": (lambda: obstacle_program(kernel_table(G, 0.4, "riesz"), BALL, 2.0,
                                                       max_iter=0),
                              "max_iter must be at least 1"),
    "a1 witness without r": (lambda: a1_weight_witness(ONE, P, "riesz"), "params.r must be set"),
    "f_norm without r": (lambda: f_norm(ONE, P), "params.r must be set for f_norm"),
    "unknown measure family": (lambda: measure_family("dust", 1, 2, G),
                               "unknown measure family 'dust'"),
    "field count < 0": (lambda: field_family("mixed", 1, -1, G), "count must be nonnegative"),
    "measure count < 0": (lambda: measure_family("atoms", 1, -1, G),
                          "count must be nonnegative"),
    "ibp t = inf": (lambda: check_ibp(P, [ONE], t=math.inf), "t must be >= 1 and finite"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_argument_raises_value_error(case):
    call, message = CASES[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_wolff_below_half_a_cell_is_zero():
    # the shells start at h/2, so a truncation radius R <= h/2 leaves none
    h = G.spacing
    assert np.array_equal(wolff_potential(ATOM, 0.4, 2.0, R=h / 2).values, np.zeros(G.shape))
    assert np.array_equal(wolff_at_points(ATOM, 0.4, 2.0, [[0.0], [0.5]], R=h / 4), np.zeros(2))
