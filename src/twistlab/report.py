"""Verification report value object shared by all sampling verifiers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def json_number(x):
    """x, or None (JSON null) where x is NaN or infinite, which strict
    JSON cannot write."""
    return x if math.isfinite(x) else None


@dataclass
class VerificationReport:
    check: str
    subject: str
    samples: int
    seed: int
    tol: float
    max_residual: float = 0.0
    argmax_sample: int = -1
    failures: list = field(default_factory=list)
    breakdown: dict = field(default_factory=dict)
    redraws: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures and self.max_residual <= self.tol

    def record(self, index: int, residual: float, name: str | None = None) -> None:
        residual = float(residual)
        # a NaN or infinite residual is an infinite maximum, and a failure
        size = residual if math.isfinite(residual) else math.inf
        if size > self.max_residual:
            self.max_residual = size
            self.argmax_sample = index
        if name is not None:
            self.breakdown[name] = max(self.breakdown.get(name, 0.0), size)
        if not residual <= self.tol:
            self.failures.append((index, residual))

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "subject": self.subject,
            "samples": self.samples,
            "seed": self.seed,
            "tol": json_number(self.tol),
            "status": "pass" if self.passed else "fail",
            "max_residual": json_number(self.max_residual),
            "argmax_sample": self.argmax_sample,
            "failures": [{"sample": i, "residual": json_number(r)} for i, r in self.failures],
            "breakdown": {k: json_number(v) for k, v in sorted(self.breakdown.items())},
            "redraws": self.redraws,
        }
