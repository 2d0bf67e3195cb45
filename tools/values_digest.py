"""Print SHA-256 digests of the benchmark workloads' values.

Runs the first 24 cap2d, 200 csim1d and 70 norms1d ops of
``perfbench/workloads.py`` at the default seed, in this process, and hashes
``repr(wl.check(i, wl.op(i)))`` of each op: one digest per workload, plus one
over the bytes of the result and extremal files that each cap2d op writes.
Files go to a temporary directory only. Then one ``checks`` digest covers
the harness and the evaluators the workloads do not reach: ``report_to_json``
of every registered check through ``run_check`` on 1D N=64 and 2D N=16, both
kernels, count 3, levels 16, and of four checks called directly on 1D
N=128; ``maximal_function`` and ``a1_constant`` on 2D and 3D fields,
truncated and not; ``a1_weight_witness`` at r = 0.5, 1, 1.5; ``n_norm`` in
both variants; and ``otilde_norm`` on a list of fields. A change that
promises bit-identical values shows it by printing the same digests as its
parent.

The digests depend on the floating-point libraries (numpy, its BLAS and FFT)
and the CPU, so compare a parent and a change run on one machine, never
digests from two machines. Run from the repository root::

    python tools/values_digest.py
"""
import hashlib
import os
import sys
import tempfile

ROOT = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from capax.families import DEFAULT_FAMILY_SEED, field_family, measure_family  # noqa: E402
from capax.grid import Grid, Params  # noqa: E402
from capax.maximal import a1_constant, maximal_function  # noqa: E402
from capax.potentials import Measure  # noqa: E402
from capax.spaces import a1_weight_witness, n_norm, otilde_norm  # noqa: E402
from capax.verify import (CHECK_NAMES, check_adams, check_main3, check_upper_tri,  # noqa: E402
                          check_wolff_weak, report_to_json, run_check)

OPS = {"cap2d": 24, "csim1d": 200, "norms1d": 70}
KINDS = ("riesz", "bessel")


def _estimate(est) -> bytes:
    head = repr((est.lower, est.upper, est.flags, est.details)).encode()
    return head + est.witness.values.tobytes()


def checks_digest() -> str:
    """The ``checks`` digest described in the module docstring."""
    digest = hashlib.sha256()
    for n, alpha, N in ((1, 0.4, 64), (2, 0.7, 16)):
        params, grid = Params(n, alpha, 2.0, q=1.5, p=2.0, r=1.0), Grid(n, 1.0, N)
        for name in CHECK_NAMES:
            for kind in KINDS:
                rep = run_check(name, params, grid, kind, count=3, levels=16)
                digest.update(report_to_json(rep).encode())
    # direct calls, outside run_check's scope, one above 64 nodes (warm-started sweeps)
    params, grid = Params(1, 0.4, 2.0, q=1.5, p=2.0, r=1.0), Grid(1, 1.0, 128)
    fields = field_family("mixed", DEFAULT_FAMILY_SEED, 2, grid)
    mu = Measure.from_atoms(grid, [[0.05], [-0.2]], [1.0, 0.5])
    for rep in (check_adams(params, fields + fields[:1], levels=16),
                check_main3(params, list(zip(fields, fields[::-1])), levels=16),
                check_upper_tri(params, measure_family("measures", 1, 3, grid), levels=16),
                check_wolff_weak(mu, 0.5, params)):
        digest.update(report_to_json(rep).encode())
    for n, N in ((2, 16), (3, 8)):
        for w in field_family("mixed", DEFAULT_FAMILY_SEED, 3, Grid(n, 1.0, N)):
            for truncated in (False, True):
                digest.update(maximal_function(w, truncated).values.tobytes())
                digest.update(repr(a1_constant(w, truncated)).encode())
    grid = Grid(1, 1.0, 64)
    fields = field_family("bumps", DEFAULT_FAMILY_SEED, 3, grid)
    for kind in KINDS:
        for r in (0.5, 1.0, 1.5):
            ww = a1_weight_witness(fields[0], Params(1, 0.4, 2.0, r=r), kind, levels=16,
                                   with_a1=True)
            digest.update(repr((ww.a1_value, ww.construction)).encode())
            digest.update(ww.weight.values.tobytes())
        params = Params(1, 0.4, 2.0, q=1.5, p=2.0, r=1.0)
        for variant in ("plain", "a1_quasicontinuous"):
            digest.update(_estimate(n_norm(fields[1], params, kind, variant, levels=16)))
        for est in otilde_norm(fields, params, kind, levels=16):
            digest.update(_estimate(est))
    return digest.hexdigest()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for name, count in OPS.items():
            wl = workloads.WORKLOADS[name](DEFAULT_FAMILY_SEED, tmp)
            values, files = hashlib.sha256(), hashlib.sha256()
            for i in range(count):
                values.update(repr(wl.check(i, wl.op(i))).encode())
                if name == "cap2d":
                    for path in wl._paths("op"):
                        with open(path, "rb") as fh:
                            files.update(fh.read())
            print(f"{name} values {values.hexdigest()}")
            if name == "cap2d":
                print(f"{name} files  {files.hexdigest()}")
    print(f"checks values {checks_digest()}")


if __name__ == "__main__":
    main()
