"""Seeded parity corpora: series sets that fitting changes are checked on.

``twocomp960`` is 960 two-component series: trough depths 0/0.1/0.2/0.4
(``simgen.theta_for_depth``) x {iid Gaussian sigma 0.05, AR(1) Gaussian
sigma 0.05 rho 0.3} x n 21/41 points on [0, 20] x 60 seeds, series s of
a cell drawn with ``seed=(7300 + depth index, noise index, n, s)``.

``constrained760`` is 760 series of the constrained LR test, on [0, 20]:
  - n 21, 100 seeds a cell: AR(1) sigma 0.05 rho 0.3 at depths
    0/0.1/0.2, ``seed=(7700 + depth index, s)``, and iid sigma 0.05 at
    depth 0.2, ``seed=(7710, s)``; keyed by depth index into (0, 0.1, 0.2)
    and noise index into (AR(1), iid);
  - depths 0/0.05/0.3/0.6 x {iid sigma 0.15, AR(1) sigma 0.1 rho 0.5, iid
    sigma 0.05} x n 11/31/61 x 10 seeds,
    ``seed=(7800 + depth index, noise index, n, s)``.

``tests/data/<name>.csv`` stores, per series, its free-fit SSE, the
constrained LR test's reject decision at the 5% level, and the least SSE
of a nondecreasing two-component curve (the constrained fit; empty where
the free fit is already monotone and the test fits nothing). Its values
may only tighten: a change that lowers a stored SSE says so. Running this
file prints the current package's values of one corpus in that file's
format:

    PYTHONPATH=src python tests/corpus.py twocomp960 > tests/data/twocomp960.csv
"""

from __future__ import annotations

import csv
import itertools
import sys
from pathlib import Path

import numpy as np

from adoptkit import estimate, fisher, infer, simgen

DATA = Path(__file__).parent / "data"
FIELDS = ("depth_index", "noise_index", "n", "s", "sse", "lr_reject", "sse_cone")


def _cell(depth: float, em, n: int, seeds):
    """The series of one cell, a row per seed, and their times."""
    theta = simgen.theta_for_depth(depth)
    Y = np.array([simgen.gen_series(theta, em, n, 20.0, seed=seed).values for seed in seeds])
    return np.linspace(0.0, 20.0, n), Y


def twocomp960():
    """The corpus as 16 cells of 60 series: yields ((depth index, noise
    index, n), t, Y), Y of shape (60, n), row s drawn with its seed."""
    depths, noise = (0.0, 0.1, 0.2, 0.4), (fisher.GaussianIid(0.05), fisher.GaussianAr1(0.05, 0.3))
    for (di, depth), (ni, em), n in itertools.product(enumerate(depths), enumerate(noise), (21, 41)):
        yield (di, ni, n), *_cell(depth, em, n, [(7300 + di, ni, n, s) for s in range(60)])


def constrained760():
    """The corpus as 4 cells of 100 series at n 21 and 36 cells of 10, in
    the ``twocomp960`` form."""
    ar1 = fisher.GaussianAr1(0.05, 0.3)
    for di, depth in enumerate((0.0, 0.1, 0.2)):
        yield (di, 0, 21), *_cell(depth, ar1, 21, [(7700 + di, s) for s in range(100)])
    yield (2, 1, 21), *_cell(0.2, fisher.GaussianIid(0.05), 21, [(7710, s) for s in range(100)])
    noise = (fisher.GaussianIid(0.15), fisher.GaussianAr1(0.1, 0.5), fisher.GaussianIid(0.05))
    for (di, depth), (ni, em), n in itertools.product(enumerate((0.0, 0.05, 0.3, 0.6)), enumerate(noise),
                                                      (11, 31, 61)):
        yield (di, ni, n), *_cell(depth, em, n, [(7800 + di, ni, n, s) for s in range(10)])


CORPORA = {"twocomp960": twocomp960, "constrained760": constrained760}


def fit(name: str):
    """Each series' (key, free fit, constrained LR result, constrained SSE
    or None) through the batched paths of the Monte-Carlo loop:
    ``estimate._fit_cold_many`` and ``infer._constrained_sse_many``, a cell
    per batch."""
    for key, t, Y in CORPORA[name]():
        fits, errors = estimate._fit_cold_many(t, Y)
        assert not errors, (key, errors)
        cone, failed = infer._constrained_sse_many(t, Y, fits)
        assert not failed, (key, failed)
        for s, (free, sse_c) in enumerate(zip(fits, cone)):
            yield (*key, s), free, infer._lr_result(len(t), free.sse, sse_c), sse_c


def load(name: str) -> dict[tuple[int, int, int, int], tuple[float, bool, float | None]]:
    """{(depth index, noise index, n, s): (SSE, reject, cone SSE or None)} as stored."""
    with open(DATA / f"{name}.csv", newline="") as fh:
        return {
            (int(r["depth_index"]), int(r["noise_index"]), int(r["n"]), int(r["s"])):
                (float(r["sse"]), r["lr_reject"] == "1", float(r["sse_cone"]) if r["sse_cone"] else None)
            for r in csv.DictReader(fh)
        }


if __name__ == "__main__":
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(FIELDS)
    for key, free, lr, sse_c in fit(sys.argv[1]):
        out.writerow([*key, repr(free.sse), int(lr.p_value < 0.05), "" if sse_c is None else repr(sse_c)])
