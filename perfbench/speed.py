"""Machine-speed probe: op timings scaled to the machine's uncontended speed.

The benchmark runs on a few cores of a shared host. Other tenants on the same
physical cores slow every kind of code down together, by up to 2x, in phases
that last from seconds to minutes. Measured on a shared 2-core x86_64 machine,
op by op: the same capacity solve took 110 ms in one phase and 220 ms in the
next, small numpy FFTs slowed 1.9x and a pure-Python loop 1.5x at the same
moments, and the CPU time of the process rose with the wall time (no steal
time is reported). A 35 s run therefore reads the phase it fell in.

The probe is a fixed piece of numpy work that does not touch capax: a few
steps of a projected primal-dual iteration with an FFT convolution operator
on a 64x64 grid, the kind of work that dominates the workloads' obstacle
solves. (The same iteration on 64 nodes tracked the 1-D workloads less well
than the 2-D one did, so it is not used.) It runs between ops, untimed for the ops, about
every ``EVERY`` seconds. An op's speed factor is ``REF_S`` over the probe
time at that moment (a rolling median of ``WINDOW`` probes, interpolated to
the op's midpoint). Scaled time = measured
time x speed factor: what the op would take when the probe takes ``REF_S``,
its time on that machine in an uncontended phase. Because the probe never
runs capax code, a change to capax moves scaled times exactly as it moves
measured ones; only the machine's phase is divided out.

Set-up time is not scaled. It is mostly interpreter start and imports, and
neither this probe nor a fresh interpreter importing numpy tracked its drift
(measured over 200 s of alternating set-ups and probes).
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.0065     # probe seconds at the reference (uncontended) speed
EVERY = 0.25       # seconds between probes
WINDOW = 5         # probes in the rolling median


def _program(shape):
    """A projected primal-dual loop on ``shape`` whose operator is a
    zero-padded FFT convolution with a fixed random kernel."""
    rng = np.random.default_rng(0)
    pad = tuple(2 * n for n in shape)
    axes = tuple(range(len(shape)))
    crop = tuple(slice(0, n) for n in shape)
    kernel = np.fft.rfftn(rng.random(pad) * 1e-3, axes=axes)
    x0, one = rng.random(shape), np.ones(shape)

    def apply(x):
        return np.fft.irfftn(np.fft.rfftn(x, s=pad, axes=axes) * kernel, s=pad, axes=axes)[crop]

    def run(steps):
        x, y = x0.copy(), np.zeros(shape)
        for _ in range(steps):
            u = apply(x)
            y = np.maximum(y + 0.5 * (one - u), 0.0)
            x = np.maximum(x - 0.5 * (x - apply(y)), 0.0)
            float(np.vdot(x, x))
            float(np.abs(u - one).max())

    return run


_RUN = _program((64, 64))


def probe() -> float:
    """Run the fixed probe work once; return its wall time in seconds."""
    t0 = time.perf_counter()
    _RUN(12)
    return time.perf_counter() - t0


class Meter:
    """Probes taken during a run, and the speed factor they give at any time."""

    def __init__(self):
        self.times: list = []       # perf_counter at each probe's midpoint
        self.seconds: list = []     # each probe's duration
        self.last = -float("inf")
        for _ in range(3):          # warm-up: first calls pay for caches and plans
            probe()

    def take(self) -> None:
        t0 = time.perf_counter()
        dt = probe()
        self.times.append(t0 + dt / 2)
        self.seconds.append(dt)
        self.last = t0 + dt

    def maybe(self) -> None:
        """Probe if ``EVERY`` seconds have passed since the last probe."""
        if time.perf_counter() - self.last >= EVERY:
            self.take()

    def factor(self, midpoints) -> np.ndarray:
        """Speed factor (REF_S / probe seconds) at each of ``midpoints``."""
        sec = np.asarray(self.seconds)
        half = WINDOW // 2
        smooth = np.array([np.median(sec[max(0, k - half):k + half + 1])
                           for k in range(len(sec))])
        return REF_S / np.interp(np.asarray(midpoints), self.times, smooth)

    def summary(self) -> dict:
        sec = np.asarray(self.seconds) * 1e3
        return {"probes": len(sec), "ref_ms": REF_S * 1e3,
                "probe_ms_p10_p50_p90": np.percentile(sec, [10, 50, 90]).tolist()}
