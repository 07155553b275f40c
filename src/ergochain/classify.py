"""End-to-end ergodicity classification for staircase families.

The decision procedure reads the exact tail limits of the spec's kind
(spec.tail_limits), in order of evidential strength:

  1. ratio_test     A drift certificate is constructed and verified;
                    one is issued only for limits that pass the ratio
                    test (a_i/b_{i-1} and b_i/a_i bounded and
                    A (1 + M) / (1 + m) < 1), so the chain admits a
                    geometric rate and the verdict carries it.
  2. divergence     If any of the statistics S1, S2, S3 is unbounded by
                    the same limits (subgeo.divergence_statistics), no
                    geometric rate exists; the first such one is named.

Anything else is Inconclusive: the limits satisfy the ratio test but no
certificate clears the verifier's resolution (drift.VERIFY_TOL). The
flags read only the limits, so they do not depend on N; the certificate
is verified on the truncation at N. When both premise limits exist,
geometric and subgeometric outcomes are exhaustive and the verdict
carries a note saying so.

The verdict never carries both a verified certificate and a fired
divergence flag; the pipeline order makes the two mutually exclusive.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .drift import DriftCertificate, NoCertificate, certify
from .errors import EmptyReport, UnknownFormat
from .family import build_family
from .spec import SequenceSpec, _dump_json, _encode_extended, tail_limits
from .subgeo import build_subgeo_report

GEOMETRIC = "Geometric"
SUBGEOMETRIC = "Subgeometric"
INCONCLUSIVE = "Inconclusive"

EVIDENCE_LIMITS = "exact-limits"
EVIDENCE_NUMERIC = "numeric-estimates"

_EQUIVALENCE_NOTE = ("limits of a_i/a_{i-1} and a_i/b_i exist, so the geometric "
                     "and subgeometric outcomes are exhaustive")


@dataclass(frozen=True)
class ErgodicityVerdict:
    """Classification outcome with the evidence that produced it."""

    verdict: str
    basis: str | None
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
    fam = build_family(spec, N)
    lim = tail_limits(spec)
    quantities = {k: v for k, v in lim._asdict().items() if k != "exist"}
    note = _EQUIVALENCE_NOTE if lim.exist else None
    cert = certify(fam, scan_p)

    def verdict(outcome, basis, evidence, **found):
        return ErgodicityVerdict(
            verdict=outcome, basis=basis, evidence=evidence, N=N, scan_p=scan_p,
            quantities=quantities, equivalence_note=note, **found)

    # 1. a verified certificate, issued only where the ratio test passes
    if not isinstance(cert, NoCertificate):
        return verdict(GEOMETRIC, "ratio_test", EVIDENCE_LIMITS, certificate=cert)

    # 2. a statistic the exact limits leave unbounded
    report = build_subgeo_report(fam, scan_p=scan_p)
    fired = report.stats.first_diverging()
    if fired is not None:
        return verdict(SUBGEOMETRIC, f"divergence:{fired}", EVIDENCE_LIMITS,
                       subgeo_summary=report.to_json_dict())

    return verdict(INCONCLUSIVE, None, EVIDENCE_NUMERIC)


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
        elif v.subgeo_summary is not None:
            info = f"min_T={_min_T_text(v.subgeo_summary)}"
        else:
            info = "-"
        rows.append((v.label or "-", str(v.N), v.verdict, v.basis or "-",
                     v.evidence, info))
    widths = [max(len(r[k]) for r in rows) for k in range(len(headers))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines) + "\n"


__all__ = [
    "GEOMETRIC", "SUBGEOMETRIC", "INCONCLUSIVE",
    "EVIDENCE_LIMITS", "EVIDENCE_NUMERIC",
    "ErgodicityVerdict", "classify", "verdict_report",
]
