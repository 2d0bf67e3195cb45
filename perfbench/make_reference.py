"""Write perfbench/reference.json: op values at the default seed.

    python3 perfbench/make_reference.py

Runs the first ops of every workload untimed, re-checks each, and stores its
values. run.py compares a default-seed run against them op by op, within the
tolerances in ``run.REF_TOL``. Regenerate only when a change is meant to
move results, and say so where the change is described.
"""

import json
import sys
import tempfile

import run
import workloads

# More ops than a default-length run completes on the reference machine.
COUNTS = {"cap2d": 384, "csim1d": 256, "norms1d": 140}


def main() -> int:
    run._import_capax()
    from capax.families import DEFAULT_FAMILY_SEED

    run.OUT.mkdir(exist_ok=True)
    reference = {}
    for name, count in COUNTS.items():
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            wl = workloads.WORKLOADS[name](DEFAULT_FAMILY_SEED, tmp)
            loop = run.run_loop(wl, count=count)
        if loop.failures:
            print(f"{name}: {len(loop.failures)} ops failed", file=sys.stderr)
            return 1
        reference[name] = [list(v) for v in loop.values]
        print(f"{name}: {count} ops", flush=True)
    with open(run.HERE / "reference.json", "w") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(v) for v in values) + "\n]"
            for name, values in reference.items()) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
