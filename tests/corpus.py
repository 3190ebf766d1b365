"""Seeded parity corpora: series sets that fitting changes are checked on.

``twocomp960`` is 960 two-component series: trough depths 0/0.1/0.2/0.4
(``simgen.theta_for_depth``) x {iid Gaussian sigma 0.05, AR(1) Gaussian
sigma 0.05 rho 0.3} x n 21/41 points on [0, 20] x 60 seeds, series s of
a cell drawn with ``seed=(7300 + depth index, noise index, n, s)``.

``tests/data/twocomp960.csv`` stores, per series, its free-fit SSE, the
constrained LR test's reject decision at the 5% level, and the least SSE
of a nondecreasing two-component curve (the constrained fit; empty where
the free fit is already monotone and the test fits nothing). Its values
may only tighten: a change that lowers a stored SSE says so. Running this
file prints the current package's values in that file's format:

    PYTHONPATH=src python tests/corpus.py > tests/data/twocomp960.csv
"""

from __future__ import annotations

import csv
import itertools
import sys
from pathlib import Path

import numpy as np

from adoptkit import estimate, fisher, infer, simgen

DEPTHS = (0.0, 0.1, 0.2, 0.4)
NOISE = (fisher.GaussianIid(0.05), fisher.GaussianAr1(0.05, 0.3))
SIZES = (21, 41)
SEEDS = 60
TWOCOMP960 = Path(__file__).parent / "data" / "twocomp960.csv"
FIELDS = ("depth_index", "noise_index", "n", "s", "sse", "lr_reject", "sse_cone")


def twocomp960():
    """The corpus as 16 cells of 60 series: yields ((depth index, noise
    index, n), t, Y), Y of shape (60, n), row s drawn with its seed."""
    for (di, depth), (ni, em), n in itertools.product(enumerate(DEPTHS), enumerate(NOISE), SIZES):
        theta = simgen.theta_for_depth(depth)
        Y = np.array([simgen.gen_series(theta, em, n, 20.0, seed=(7300 + di, ni, n, s)).values
                      for s in range(SEEDS)])
        yield (di, ni, n), np.linspace(0.0, 20.0, n), Y


def fit_twocomp960():
    """Each series' (key, free fit, constrained LR result, constrained SSE
    or None) through the batched paths of ``infer._constrained_lr_many``:
    ``estimate._fit_cold_many`` and ``estimate._monotone_sse_many``, a cell
    per batch."""
    for key, t, Y in twocomp960():
        fits, errors = estimate._fit_cold_many(t, Y)
        assert not errors, (key, errors)
        cone, failed = infer._constrained_sse_many(t, Y, fits)
        assert not failed, (key, failed)
        for s, (fit, sse_c) in enumerate(zip(fits, cone)):
            yield (*key, s), fit, infer._lr_result(len(t), fit.sse, sse_c), sse_c


def load_twocomp960() -> dict[tuple[int, int, int, int], tuple[float, bool, float | None]]:
    """{(depth index, noise index, n, s): (SSE, reject, cone SSE or None)} as stored."""
    with open(TWOCOMP960, newline="") as fh:
        return {
            (int(r["depth_index"]), int(r["noise_index"]), int(r["n"]), int(r["s"])):
                (float(r["sse"]), r["lr_reject"] == "1", float(r["sse_cone"]) if r["sse_cone"] else None)
            for r in csv.DictReader(fh)
        }


if __name__ == "__main__":
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(FIELDS)
    for key, fit, lr, sse_c in fit_twocomp960():
        out.writerow([*key, repr(fit.sse), int(lr.p_value < 0.05), "" if sse_c is None else repr(sse_c)])
