"""Print SHA-256 digests of the benchmark workloads' values.

Runs the first 24 cap2d, 200 csim1d and 70 norms1d ops of
``perfbench/workloads.py`` at the default seed, in this process, and hashes
``repr(wl.check(i, wl.op(i)))`` of each op: one digest per workload, plus one
over the bytes of the result and extremal files that each cap2d op writes.
Files go to a temporary directory only. A change that promises bit-identical
values shows it by printing the same digests as its parent.

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
from capax.families import DEFAULT_FAMILY_SEED  # noqa: E402

OPS = {"cap2d": 24, "csim1d": 200, "norms1d": 70}


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


if __name__ == "__main__":
    main()
