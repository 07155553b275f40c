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

import json
import math
from dataclasses import dataclass

from .drift import (
    DriftCertificate,
    NoCertificate,
    RgsDriftCertificate,
    find_drift_certificate,
    lift_to_rgs,
    verify_drift,
)
from .errors import EmptyReport, IndexOutOfRange, UnknownFormat
from .family import (
    SequenceSpec,
    _decode_extended,
    _encode_extended,
    build_family,
    tail_limits,
)
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
    certificate: DriftCertificate | RgsDriftCertificate | None = None
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
            else _cert_json(self.certificate),
            "subgeo": self.subgeo_summary,
            "equivalence_note": self.equivalence_note,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(d: dict) -> "ErgodicityVerdict":
        return ErgodicityVerdict(
            verdict=d["verdict"],
            basis=d.get("basis"),
            evidence=d.get("evidence", EVIDENCE_NUMERIC),
            N=int(d["N"]),
            scan_p=d.get("scan_p"),
            quantities={k: _decode_extended(v)
                        for k, v in d.get("quantities", {}).items()},
            certificate=_cert_from_json(d.get("certificate")),
            subgeo_summary=d.get("subgeo"),
            equivalence_note=d.get("equivalence_note"),
            label=d.get("label"),
        )

    @staticmethod
    def from_json(text: str) -> "ErgodicityVerdict":
        return ErgodicityVerdict.from_json_dict(json.loads(text))


def _cert_json(cert) -> dict:
    out = cert.to_json_dict()
    base = cert.base if isinstance(cert, RgsDriftCertificate) else cert
    out["log_L"] = base.log_L
    out["N"] = base.N
    return out


def _cert_from_json(d: dict | None):
    if d is None:
        return None
    log_L = d["log_L"] if "log_L" in d else math.log(_decode_extended(d["L"]))
    base = DriftCertificate(z=d["z"], rho=d["rho"], log_L=log_L, x0=int(d["x0"]),
                            r_hat=d["r_hat"], q_hat=d["q_hat"], N=int(d["N"]))
    if "rgs" in d and d["rgs"] is not None:
        r = d["rgs"]
        return RgsDriftCertificate(base=base, scan_p=r["scan_p"], c=r["c"],
                                   gamma=r["gamma"])
    return base


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
    window = max(10, min(50, N))
    horizon = max(4 * N, 2 * window)
    est = tail_limits(spec, window=window, horizon=horizon)

    dl = spec.declared_limits
    premise = dl is not None and dl.A is not None and dl.lim_ab is not None
    note = _EQUIVALENCE_NOTE if premise else None

    # one certificate search; steps 1 and 4 both read its verified form
    cert = find_drift_certificate(fam)
    quantities = {"A": est.A, "m": est.m, "M": est.M,
                  "a_over_bprev": est.a_over_bprev, "b_over_a": est.b_over_a,
                  "r_hat": cert.r_hat, "q_hat": cert.q_hat}
    certified = _verified(cert, fam, scan_p)

    def geometric(basis, evidence):
        return ErgodicityVerdict(
            verdict=GEOMETRIC, basis=basis, evidence=evidence, N=N,
            scan_p=scan_p, quantities=quantities, certificate=certified,
            equivalence_note=note)

    # 1. ratio test on trusted limits
    trusted = all(est.converged[k] for k in
                  ("A", "m", "M", "a_over_bprev", "b_over_a"))
    if trusted and math.isfinite(est.a_over_bprev) and math.isfinite(est.b_over_a):
        bound = _ratio_bound(est.A, est.m, est.M)
        all_declared = all(est.declared[k] for k in
                           ("A", "m", "M", "a_over_bprev", "b_over_a"))
        borderline = _BORDERLINE[0] <= bound <= _BORDERLINE[1] and not all_declared
        if bound < 1.0 and not borderline and certified is not None:
            return geometric("ratio_test",
                             EVIDENCE_DECLARED if all_declared else EVIDENCE_NUMERIC)

    # 2. diverging statistics
    report = build_subgeo_report(fam, horizon=horizon, scan_p=scan_p)
    fired = report.stats.first_diverging()
    if fired is not None:
        return ErgodicityVerdict(
            verdict=SUBGEOMETRIC, basis=f"divergence:{fired}",
            evidence=EVIDENCE_NUMERIC, N=N, scan_p=scan_p,
            quantities=quantities, subgeo_summary=report.to_json_dict(),
            equivalence_note=note)

    # 3. declared limits that rule a geometric rate out
    if dl is not None:
        declared_violation = (
            (dl.A is not None and dl.A >= 1.0)
            or (dl.lim_a_over_bprev is not None and math.isinf(dl.lim_a_over_bprev))
            or (dl.lim_b_over_a is not None and math.isinf(dl.lim_b_over_a)))
        if premise and declared_violation:
            return ErgodicityVerdict(
                verdict=SUBGEOMETRIC, basis="declared",
                evidence=EVIDENCE_DECLARED, N=N, scan_p=scan_p,
                quantities=quantities, subgeo_summary=report.to_json_dict(),
                equivalence_note=note)

    # 4. drift certificate straight from the truncated tail
    if certified is not None:
        return geometric("drift", EVIDENCE_NUMERIC)

    return ErgodicityVerdict(verdict=INCONCLUSIVE, basis=None,
                             evidence=EVIDENCE_NUMERIC, N=N, scan_p=scan_p,
                             quantities=quantities, equivalence_note=note)


def _verified(cert, fam, scan_p):
    """The certificate, lifted to the random scan when scan_p is set, if
    it verifies on the truncated support; otherwise None."""
    if isinstance(cert, NoCertificate) or not verify_drift(cert, fam).holds:
        return None
    if scan_p is None:
        return cert
    lifted = lift_to_rgs(cert, scan_p)
    return lifted if verify_drift(lifted, fam).holds else None


# -- reporting -------------------------------------------------------------


def verdict_report(verdicts: list[ErgodicityVerdict], fmt: str = "table") -> str:
    """Render verdicts as an aligned table or a JSON array."""
    if not verdicts:
        raise EmptyReport("no verdicts to report")
    if fmt == "json":
        return json.dumps([v.to_json_dict() for v in verdicts],
                          indent=2, sort_keys=True) + "\n"
    if fmt != "table":
        raise UnknownFormat(f"unknown report format {fmt!r}")
    headers = ("label", "N", "verdict", "basis", "evidence", "rate_info")
    rows = [headers]
    for v in verdicts:
        if v.certificate is not None:
            base = (v.certificate.base if isinstance(v.certificate, RgsDriftCertificate)
                    else v.certificate)
            info = f"rho={base.rho:.6g}"
        elif v.subgeo_summary is not None:
            info = f"norm_lb={v.subgeo_summary['norm_lower_bound']:.6g}"
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
