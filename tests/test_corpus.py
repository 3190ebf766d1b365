"""Fit parity on the seeded corpora of ``corpus.py`` against their stored values."""

import pytest

import corpus
from adoptkit import estimate


def check_corpus(name, count, monkeypatch):
    # the batched paths of the Monte-Carlo loop: no free-fit or constrained
    # SSE worse than stored, every reject decision equal, and no row refit singly
    fallbacks = 0
    fit_nls = estimate.fit_nls

    def counted(*args, **kwargs):
        nonlocal fallbacks
        fallbacks += 1
        return fit_nls(*args, **kwargs)

    monkeypatch.setattr(estimate, "fit_nls", counted)
    stored = corpus.load(name)
    seen, worse, flipped = 0, [], []
    free = {"better": 0, "worse": 0, "equal": 0}
    cone = dict(free)
    for key, fit, lr, sse_c in corpus.fit(name):
        sse, reject, stored_c = stored[key]
        seen += 1
        free["better" if fit.sse < sse else "worse" if fit.sse > sse else "equal"] += 1
        if fit.sse > sse * (1.0 + 1e-9):
            worse.append((key, fit.sse, sse))
        if (lr.p_value < 0.05) != reject:
            flipped.append(key)
        if stored_c is not None:
            # a free fit that is monotone is its own constrained fit
            sse_c = fit.sse if sse_c is None else sse_c
            cone["better" if sse_c < stored_c else "worse" if sse_c > stored_c else "equal"] += 1
            if sse_c > stored_c * (1.0 + 1e-9):
                worse.append((key, "cone", sse_c, stored_c))
    print(f"{name} against stored: free SSEs {free}, constrained SSEs {cone}")
    assert seen == len(stored) == count
    assert sum(cone.values()) == sum(c is not None for _, _, c in stored.values())
    assert not worse
    assert not flipped
    assert fallbacks == 0


def test_twocomp960_free_fits_and_lr_decisions(monkeypatch):
    check_corpus("twocomp960", 960, monkeypatch)


def test_constrained760_free_fits_and_lr_decisions(monkeypatch):
    check_corpus("constrained760", 760, monkeypatch)


def check_scalar_fits(name, count):
    # fit_nls's own polishes (lmder with the exact Jacobian and the merit
    # filter) on every third series of a cell: each SSE within 1e-9 of the
    # stored one, on either side
    stored = corpus.load(name)
    seen = 0
    for (di, ni, n), t, Y in corpus.CORPORA[name]():
        for s in range(0, len(Y), 3):
            sse = stored[(di, ni, n, s)][0]
            assert estimate.fit_nls(estimate.TimeSeries(t, Y[s])).sse == pytest.approx(sse, rel=1e-9)
            seen += 1
    assert seen == count


def test_twocomp960_scalar_fits():
    check_scalar_fits("twocomp960", 320)


def test_constrained760_scalar_fits():
    check_scalar_fits("constrained760", 280)
