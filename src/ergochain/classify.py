"""End-to-end ergodicity classification for staircase families.

classify decides from the exact tail limits of the spec's kind
(spec.tail_limits). If they leave a statistic S1, S2 or S3 unbounded
(subgeo.divergence_flags), the verdict is Subgeometric, basis
divergence:<the first such one>, with the subgeo summary at N. Otherwise
it is Geometric, basis ratio_test, with drift.certify's certificate: it
is found on the spec's head family, whose size the spec fixes, holds for
the untruncated chain and for the truncation at N alike, and decides
nothing. It is missing only where its margin 1 - rho underflows float64
or z* rounds to 1.0, r_hat within five ulps of 1 (drift says which).
The family at N is built only for the subgeo summary, which also
refuses an N the spec cannot be truncated at.
A Geometric verdict builds none: only the geometric and table kinds
reach it, build_family refuses neither at any N >= 2, and certify
refuses an N below 2 as build_family does.

Two outcomes suffice: the ratio test (A < 1, a_over_bprev and b_over_a
finite, A (1 + M) / (1 + m) < 1) is the paper's sufficient condition for
a geometric rate of both scans, and for every kind in spec.KINDS a row
fails it exactly when a flag fires (ratio rows have m = M and A = r and
pass iff r < 1; power_law's r = 1 fires S1, mixed_geometric S2 and
alternating S1). The limits do not depend on N, nor does the verdict.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .drift import DriftCertificate, NoCertificate, certify
from .errors import EmptyReport, UnknownFormat
from .family import build_family
from .spec import SequenceSpec, _dump_json, _encode_extended, tail_limits
from .subgeo import build_subgeo_report, divergence_flags

GEOMETRIC = "Geometric"
SUBGEOMETRIC = "Subgeometric"
# no verdict has it; perfbench/harness.py still counts against it
INCONCLUSIVE = "Inconclusive"

EVIDENCE_LIMITS = "exact-limits"

_EQUIVALENCE_NOTE = ("limits of a_i/a_{i-1} and a_i/b_i exist, so the geometric "
                     "and subgeometric outcomes are exhaustive")


@dataclass(frozen=True)
class ErgodicityVerdict:
    """Classification outcome with the evidence that produced it."""

    verdict: str
    basis: str
    evidence: str
    N: int
    scan_p: float | None
    quantities: dict
    certificate: DriftCertificate | None = None
    subgeo_summary: dict | None = None
    equivalence_note: str | None = None
    label: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "verdict": self.verdict,
            "basis": self.basis,
            "evidence": self.evidence,
            "N": self.N,
            "scan_p": self.scan_p,
            "quantities": {k: _encode_extended(v)
                           for k, v in self.quantities.items()},
            "certificate": None if self.certificate is None
            else self.certificate.to_json_dict(),
            "subgeo": self.subgeo_summary,
            "equivalence_note": self.equivalence_note,
        }


def classify(spec: SequenceSpec, N: int = 200,
             scan_p: float | None = None) -> ErgodicityVerdict:
    """Classify the family truncated at N >= 2; see the module docstring."""
    lim = tail_limits(spec)
    quantities = {k: v for k, v in lim._asdict().items() if k != "exist"}
    note = _EQUIVALENCE_NOTE if lim.exist else None

    def verdict(outcome, basis, **found):
        return ErgodicityVerdict(
            verdict=outcome, basis=basis, evidence=EVIDENCE_LIMITS, N=N,
            scan_p=scan_p, quantities=quantities, equivalence_note=note, **found)

    # 1. a statistic the exact limits leave unbounded
    fired = next((name for name, f in divergence_flags(lim).items() if f), None)
    if fired is not None:
        report = build_subgeo_report(build_family(spec, N), scan_p=scan_p)
        return verdict(SUBGEOMETRIC, f"divergence:{fired}",
                       subgeo_summary=report.to_json_dict())

    # 2. none is, so the limits pass the ratio test
    cert = certify(spec, N, scan_p)
    return verdict(GEOMETRIC, "ratio_test",
                   certificate=None if isinstance(cert, NoCertificate) else cert)


# -- reporting -------------------------------------------------------------


def _min_T_text(summary: dict) -> str:
    """min_T to three significant digits, from log10_min_T where min_T is
    below the normal floats and has lost digits or underflowed to 0."""
    if summary["min_T"] >= sys.float_info.min:
        return f"{summary['min_T']:.3g}"
    from decimal import Context, Decimal    # imported only for such rows
    log10 = Decimal(summary["log10_min_T"])
    return f"{Context(prec=3).power(10, log10).normalize():g}"


def verdict_report(verdicts: list[ErgodicityVerdict], fmt: str = "table") -> str:
    """Render verdicts as an aligned table or a JSON array."""
    if not verdicts:
        raise EmptyReport("no verdicts to report")
    if fmt == "json":
        return _dump_json([v.to_json_dict() for v in verdicts])
    if fmt != "table":
        raise UnknownFormat(f"unknown report format {fmt!r}")
    headers = ("label", "N", "verdict", "basis", "evidence", "rate_info")
    rows = [headers]
    for v in verdicts:
        if v.certificate is not None:
            info = f"rho={v.certificate.rho:.6g}"
            if info == "rho=1":         # 1 - rho is below 5e-7
                info = f"rho=1-{v.certificate.one_minus_rho:.3g}"
        elif v.subgeo_summary is not None:
            info = f"min_T={_min_T_text(v.subgeo_summary)}"
        else:
            info = "-"
        rows.append((v.label or "-", str(v.N), v.verdict, v.basis, v.evidence,
                     info))
    widths = [max(len(r[k]) for r in rows) for k in range(len(headers))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines) + "\n"


__all__ = [
    "GEOMETRIC", "SUBGEOMETRIC", "INCONCLUSIVE", "EVIDENCE_LIMITS",
    "ErgodicityVerdict", "classify", "verdict_report",
]
