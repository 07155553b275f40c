"""End-to-end ergodicity classification for staircase families.

The decision procedure, in order of evidential strength:

  1. ratio test     If the limiting ratios (declared on the spec, or
                    window estimates that converged) keep a_i/b_{i-1}
                    and b_i/a_i bounded and A (1 + M) / (1 + m) < 1,
                    the chain admits a geometric rate; a drift
                    certificate is then constructed and verified.
  2. divergence     If any of the statistics S1, S2, S3 is flagged
                    diverging, no geometric rate exists.
  3. declared       If the limits A and lim a_i/b_i exist by declaration
                    and definitively violate the ratio test (A >= 1, or
                    an infinite limsup), the family is subgeometric even
                    when the finite horizon left no flag fired.
  4. drift          A verified drift certificate found directly from the
                    truncated tail is still proof of a geometric rate.

Anything else is Inconclusive. When both premise limits exist, geometric
and subgeometric outcomes are exhaustive and the verdict carries a note
saying so. A window-estimate bound landing in [0.99, 1.01] is treated as
borderline and never used to claim a geometric rate.

The verdict never carries both a verified certificate and a fired
divergence flag; the pipeline order makes the two mutually exclusive.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .drift import (
    DriftCertificate,
    NoCertificate,
    certificate_from_json_dict,
    certify,
)
from .errors import EmptyReport, IndexOutOfRange, UnknownFormat
from .family import build_family, tail_limits
from .spec import SequenceSpec, _decode_extended, _dump_json, _encode_extended
from .subgeo import build_subgeo_report

GEOMETRIC = "Geometric"
SUBGEOMETRIC = "Subgeometric"
INCONCLUSIVE = "Inconclusive"

EVIDENCE_DECLARED = "declared-limits"
EVIDENCE_NUMERIC = "numeric-estimates"

_BORDERLINE = (0.99, 1.01)
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

    @staticmethod
    def from_json_dict(d: dict) -> "ErgodicityVerdict":
        cert = d.get("certificate")
        return ErgodicityVerdict(
            verdict=d["verdict"],
            basis=d.get("basis"),
            evidence=d.get("evidence", EVIDENCE_NUMERIC),
            N=int(d["N"]),
            scan_p=d.get("scan_p"),
            quantities={k: _decode_extended(v)
                        for k, v in d.get("quantities", {}).items()},
            certificate=None if cert is None else certificate_from_json_dict(cert),
            subgeo_summary=d.get("subgeo"),
            equivalence_note=d.get("equivalence_note"),
            label=d.get("label"),
        )


def _ratio_bound(A: float, m: float, M: float) -> float:
    """A (1 + M) / (1 + m) with the exhaustive-limit conventions at infinity."""
    if math.isinf(M) and math.isinf(m):
        factor = 1.0
    elif math.isinf(M):
        factor = math.inf
    else:
        factor = (1.0 + M) / (1.0 + m)
    return A * factor


def classify(spec: SequenceSpec, N: int = 200,
             scan_p: float | None = None) -> ErgodicityVerdict:
    """Classify the family truncated at N; see the module docstring."""
    if N < 10:
        raise IndexOutOfRange("classification needs N >= 10")
    fam = build_family(spec, N)
    est = tail_limits(spec, N)

    dl = spec.declared_limits
    premise = dl is not None and dl.A is not None and dl.lim_ab is not None
    note = _EQUIVALENCE_NOTE if premise else None

    # one verified certificate; steps 1 and 4 both read it
    cert = certify(fam, scan_p)
    quantities = {"A": est.A, "m": est.m, "M": est.M,
                  "a_over_bprev": est.a_over_bprev, "b_over_a": est.b_over_a,
                  "r_hat": cert.r_hat, "q_hat": cert.q_hat}
    certified = None if isinstance(cert, NoCertificate) else cert

    def verdict(outcome, basis, evidence, **found):
        return ErgodicityVerdict(
            verdict=outcome, basis=basis, evidence=evidence, N=N, scan_p=scan_p,
            quantities=quantities, equivalence_note=note, **found)

    # 1. ratio test on trusted limits
    trusted = all(est.converged.values())
    if trusted and math.isfinite(est.a_over_bprev) and math.isfinite(est.b_over_a):
        bound = _ratio_bound(est.A, est.m, est.M)
        all_declared = all(est.declared.values())
        borderline = _BORDERLINE[0] <= bound <= _BORDERLINE[1] and not all_declared
        if bound < 1.0 and not borderline and certified is not None:
            return verdict(GEOMETRIC, "ratio_test",
                           EVIDENCE_DECLARED if all_declared else EVIDENCE_NUMERIC,
                           certificate=certified)

    # 2. diverging statistics
    report = build_subgeo_report(fam, scan_p=scan_p)
    fired = report.stats.first_diverging()
    if fired is not None:
        return verdict(SUBGEOMETRIC, f"divergence:{fired}", EVIDENCE_NUMERIC,
                       subgeo_summary=report.to_json_dict())

    # 3. declared limits that rule a geometric rate out
    if premise and (
            dl.A >= 1.0
            or (dl.lim_a_over_bprev is not None and math.isinf(dl.lim_a_over_bprev))
            or (dl.lim_b_over_a is not None and math.isinf(dl.lim_b_over_a))):
        return verdict(SUBGEOMETRIC, "declared", EVIDENCE_DECLARED,
                       subgeo_summary=report.to_json_dict())

    # 4. drift certificate straight from the truncated tail
    if certified is not None:
        return verdict(GEOMETRIC, "drift", EVIDENCE_NUMERIC, certificate=certified)

    return verdict(INCONCLUSIVE, None, EVIDENCE_NUMERIC)


# -- reporting -------------------------------------------------------------


def _min_T_text(summary: dict) -> str:
    """min_T to three significant digits, from log10_min_T where min_T is
    below the normal floats and has lost digits or underflowed to 0
    (summaries read from older JSON lack the key)."""
    log10 = summary.get("log10_min_T")
    if summary["min_T"] >= sys.float_info.min or log10 is None:
        return f"{summary['min_T']:.3g}"
    from decimal import Context, Decimal    # imported only for such rows
    return f"{Context(prec=3).power(10, Decimal(log10)).normalize():g}"


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
    "EVIDENCE_DECLARED", "EVIDENCE_NUMERIC",
    "ErgodicityVerdict", "classify", "verdict_report",
]
