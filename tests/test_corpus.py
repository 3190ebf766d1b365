"""Fit parity on the seeded corpora of ``corpus.py`` against their stored values."""

import corpus
from adoptkit import estimate


def test_twocomp960_free_fits_and_lr_decisions(monkeypatch):
    # the batched paths of the Monte-Carlo loop: no free-fit SSE worse than
    # stored, every reject decision equal, and no row refit singly
    fallbacks = 0
    fit_nls = estimate.fit_nls

    def counted(*args, **kwargs):
        nonlocal fallbacks
        fallbacks += 1
        return fit_nls(*args, **kwargs)

    monkeypatch.setattr(estimate, "fit_nls", counted)
    stored = corpus.load_twocomp960()
    seen, worse, flipped = 0, [], []
    for key, fit, lr in corpus.fit_twocomp960():
        sse, reject = stored[key]
        seen += 1
        if fit.sse > sse * (1.0 + 1e-9):
            worse.append((key, fit.sse, sse))
        if (lr.p_value < 0.05) != reject:
            flipped.append(key)
    assert seen == len(stored) == 960
    assert not worse
    assert not flipped
    assert fallbacks == 0
