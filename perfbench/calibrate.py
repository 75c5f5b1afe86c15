"""The calibration kernel of run.py, in a process of its own.

    python3 perfbench/calibrate.py    # one line in, one time out

For every line read from standard input, runs the kernel once and prints
its time in seconds.  Exits at the end of input.  Half of the kernel is
a pure-Python loop and half numpy FFTs, the two kinds of work the
program does.  Running it apart from the code under test keeps any state
that code leaves behind in its own process (heap, FFT plan caches, BLAS
pools) out of the kernel's time.
"""

from __future__ import annotations

import sys
import time

import numpy as np

LOOPS = 700_000
FFT_SHAPE = (8, 256, 256)
FFTS = 2


def kernel(field: np.ndarray) -> float:
    t = time.perf_counter()
    x = 0
    for i in range(LOOPS):
        x += i * i % 7
    for _ in range(FFTS):
        np.fft.ifft2(np.fft.fft2(field))
    return time.perf_counter() - t


def main() -> int:
    field = np.exp(1j * np.arange(FFT_SHAPE[-1] ** 2)).reshape(FFT_SHAPE[-2:]) * np.ones(FFT_SHAPE)
    while sys.stdin.readline():
        print(repr(kernel(field)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
