"""The per-sample verifier loop that the tests compare the verifiers
against, and the comparison of two reports' accepted samples."""

import numpy as np

from twistlab.errors import NonGeneric
from twistlab.report import VerificationReport
from twistlab.transpositions import MAX_REDRAW


def reference_samples(check, subject, samples, seed, tol, trial):
    """Each sample is redrawn up to MAX_REDRAW times while its trial
    raises NonGeneric."""
    rng = np.random.default_rng(seed)
    rep = VerificationReport(check, subject, samples, seed, tol)
    for k in range(samples):
        for _ in range(MAX_REDRAW):
            try:
                residual = trial(rng)
                break
            except NonGeneric:
                rep.redraws += 1
        else:
            raise NonGeneric(f"{subject}: {check}: no generic sample after {MAX_REDRAW} draws")
        rep.record(k, residual)
    return rep


def same_samples(rep, ref):
    """Same samples, failures, redraws and verdict; residuals to rounding."""
    for key in ("check", "subject", "samples", "seed", "tol", "redraws", "passed"):
        assert getattr(rep, key) == getattr(ref, key), key
    assert [i for i, _ in rep.failures] == [i for i, _ in ref.failures]
    assert abs(rep.max_residual - ref.max_residual) <= 1e-14
