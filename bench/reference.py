"""A fixed reference job that measures how fast the host runs right now.

    python3 bench/reference.py

It imports numpy and does a fixed mix of the kinds of work sheetcharge
does: a Python loop formatting floats into text, memory-bound array
passes (cumulative sums, strided copies) and LAPACK/BLAS calls.  It uses
nothing from sheetcharge, so no change to the program changes its time.
``run.py`` runs it in a fresh process before every CLI run and divides
each time by it (see ``REFERENCE_S`` there).
"""

import io

import numpy as np

rng = np.random.default_rng(12345)

# Python loop: float formatting, as in the CSV export and report writers.
values = rng.standard_normal(60_000).tolist()
buf = io.StringIO()
for i, v in enumerate(values):
    buf.write(f"{i},{format(i / 1024, '.17g')},{format(v, '.17g')}\n")

# Memory-bound passes over arrays of 8 MiB: sums, differences, strided copies.
grid = rng.standard_normal((1024, 1024))
for _ in range(6):
    sheet = grid.cumsum(axis=0).cumsum(axis=1)
    incr = sheet[1:, 1:] - sheet[:-1, 1:] - sheet[1:, :-1] + sheet[:-1, :-1]
    blocks = np.ascontiguousarray(sheet.reshape(32, 32, 32, 32).transpose(0, 2, 1, 3))
    grid = grid + 1e-3 * incr.mean() + 1e-3 * blocks.std()

# BLAS/LAPACK: a Cholesky factor and mode products of a 512 x 512 matrix.
a = rng.standard_normal((512, 512))
kernel = a @ a.T + 512.0 * np.eye(512)
for _ in range(4):
    factor = np.linalg.cholesky(kernel)
    kernel = factor @ factor.T + np.eye(512)

print(len(buf.getvalue()), float(grid[0, 0]), float(kernel[0, 0]))
