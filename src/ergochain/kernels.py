"""Transition kernels of the three chains and their spectral summaries.

For a truncated family on {1..N} the package builds three Markov kernels:

  marginal_x  the x-marginal birth-death chain, tridiagonal on {1..N}
  dgs         the deterministic-scan Gibbs chain (x then y), supported on
              the 2N-1 staircase states, pentadiagonal, not pi-symmetric
  rgs         the random-scan Gibbs chain that updates x with probability
              scan_p and y otherwise; pi-symmetric with positive self-loops

Product-space states are ordered (1,1), (2,1), (2,2), (3,2), ..., (N,N).
On this order a random-scan step moves to a neighbouring state, so rgs is
a birth-death chain on 2N-1 states, and a deterministic-scan step moves at
most two states away. Every kernel is therefore stored as its diagonals:
bands[k][m] = P[i, i+k] with m = min(i, i+k), the layout of
scipy.sparse.diags, and rows (y, y) and (y+1, y) fill the even and odd
entries of each band. Total variation curves transport the difference
from pi by one shifted add per band; the n-step matrix is never formed.
One-step expectations log (P f) come from log f the same way, with one
logaddexp per band (log_expect), so drift checks never form f itself.
Spectral summaries use the similarity transform D^{1/2} P D^{-1/2} with
D = diag(pi), which is symmetric exactly when P is pi-symmetric.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import (
    BadScanProbability,
    ErgochainError,
    IndexOutOfRange,
    NotSymmetricKernel,
    StartNotInSupport,
)
from .family import BivariateFamily

MARGINAL_X = "marginal_x"
DGS = "dgs"
RGS = "rgs"

# TV values below this are fitting noise and are excluded from rate fits.
_TV_FLOOR = 1e-13


def check_state(kind: str, N: int, state):
    """state as x or (x, y) of ints when it lies in the chain's support.

    Only integers are accepted, so 2.7 is refused rather than truncated;
    anything else raises StartNotInSupport.
    """
    try:
        if kind == MARGINAL_X:
            x = operator.index(state)
            if 1 <= x <= N:
                return x
        else:
            x, y = map(operator.index, state)
            if 1 <= y <= N and (x == y or (x == y + 1 and y < N)):
                return x, y
    except (TypeError, ValueError):
        pass
    raise StartNotInSupport(f"state {state!r} not in chain support")


def check_scan_p(scan_p) -> float:
    """scan_p as a float when it lies strictly inside (0, 1); anything
    else raises BadScanProbability."""
    if not (isinstance(scan_p, (int, float)) and 0.0 < scan_p < 1.0):
        raise BadScanProbability(f"scan probability {scan_p!r} not in (0, 1)")
    return float(scan_p)


@dataclass(frozen=True)
class TransitionMatrix:
    """A kernel stored as its diagonals, its states, and its stationary
    distribution; bands[k][min(i, i+k)] = P[i, i+k]."""

    kind: str
    states: list
    bands: dict = field(repr=False)
    stationary: np.ndarray = field(repr=False)
    N: int
    scan_p: float | None = None

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def P(self):
        """The kernel as a scipy.sparse CSR matrix, built on each access."""
        import scipy.sparse as sp

        offsets = sorted(self.bands)
        return sp.diags([self.bands[k] for k in offsets], offsets,
                        shape=(self.n_states, self.n_states), format="csr")

    def index_of(self, state) -> int:
        """Position of a state; StartNotInSupport when absent."""
        if self.kind == MARGINAL_X:
            return check_state(self.kind, self.N, state) - 1
        x, y = check_state(self.kind, self.N, state)
        return 2 * y - 2 + (x - y)


def _stay_probs(fam: BivariateFamily):
    """P(X = y | Y = y) and P(Y = x | X = x), the conditional stays."""
    return (np.exp(fam.log_a - fam.log_piy), np.exp(fam.log_a - fam.log_pix))


def build_Px(fam: BivariateFamily) -> TransitionMatrix:
    """Tridiagonal kernel of the x-marginal birth-death chain."""
    N = fam.N
    p, q = fam.p, fam.q
    bands = {-1: q[1:], 0: np.maximum(0.0, 1.0 - p - q), 1: p[:-1]}
    return TransitionMatrix(kind=MARGINAL_X, states=list(range(1, N + 1)),
                            bands=bands, stationary=fam.pi_x, N=N)


def build_Pdgs(fam: BivariateFamily) -> TransitionMatrix:
    """Deterministic-scan kernel: draw x' given y, then y' given x'.

    Both rows (y, y) and (y+1, y) move to (y, y-1), (y, y), (y+1, y) and
    (y+1, y+1) with the same four probabilities, which puts the kernel on
    offsets -2..2.
    """
    N, n = fam.N, 2 * fam.N - 1
    beta, delta = fam.beta, fam.delta
    ob, od = _stay_probs(fam)
    to_yy = ob * od                       # (y, y) -> (y, y)
    to_down = ob[1:] * delta[1:]          # (y, y-1) for y >= 2
    to_up = beta[:-1] * delta[1:]         # (y+1, y) for y < N
    to_upup = beta[:-1] * od[1:]          # (y+1, y+1) for y < N
    bands = {k: np.zeros(n - abs(k)) for k in range(-2, 3)}
    bands[0][0::2], bands[0][1::2] = to_yy, to_up
    bands[1][0::2], bands[1][1::2] = to_up, to_upup
    bands[2][0::2] = to_upup
    bands[-1][0::2], bands[-1][1::2] = to_yy[:-1], to_down
    bands[-2][1::2] = to_down[:-1]
    return TransitionMatrix(kind=DGS, states=fam.support_states(), bands=bands,
                            stationary=fam.support_probs(), N=N)


def build_Prgs(fam: BivariateFamily, scan_p: float) -> TransitionMatrix:
    """Random-scan kernel: refresh x with probability scan_p, else y.

    From (y, y) the x-update reaches (y+1, y) and the y-update (y, y-1);
    from (y+1, y) they reach (y, y) and (y+1, y+1). Every move is to a
    neighbour in the staircase order, so the kernel is tridiagonal.
    """
    s = check_scan_p(scan_p)
    t = 1 - s
    N, n = fam.N, 2 * fam.N - 1
    beta, delta = fam.beta, fam.delta
    ob, od = _stay_probs(fam)
    bands = {k: np.empty(n - abs(k)) for k in (-1, 0, 1)}
    bands[0][0::2] = s * ob + t * od
    bands[0][1::2] = s * beta[:-1] + t * delta[1:]
    bands[1][0::2], bands[1][1::2] = s * beta[:-1], t * od[1:]
    bands[-1][0::2], bands[-1][1::2] = s * ob[:-1], t * delta[1:]
    return TransitionMatrix(kind=RGS, states=fam.support_states(), bands=bands,
                            stationary=fam.support_probs(), N=N, scan_p=s)


def log_expect(tm: TransitionMatrix, log_f: np.ndarray) -> np.ndarray:
    """log (P f)[i] = log sum_k P[i, i+k] f[i+k] for every state i, from
    log f; zero entries of a band contribute nothing."""
    n = tm.n_states
    out = np.full(n, -np.inf)
    with np.errstate(divide="ignore"):
        for k, band in tm.bands.items():
            if k >= 0:
                rows, terms = slice(0, n - k), np.log(band) + log_f[k:]
            else:
                rows, terms = slice(-k, n), np.log(band) + log_f[:n + k]
            out[rows] = np.logaddexp(out[rows], terms)
    return out


# -- total variation curves ------------------------------------------------


@dataclass(frozen=True)
class TVCurve:
    """Total variation distances to stationarity along the chain.

    values[n] is TV after n steps from the point mass at start, for
    n = 0..n_max, with the 1/2 L1 convention. fitted_rate and
    fitted_constant come from a least-squares line through log TV over
    fit_window, the trailing half of the steps with TV above 1e-13;
    they are None when fewer than five such steps exist.
    """

    kind: str
    start: object
    n_max: int
    values: np.ndarray = field(repr=False)
    fitted_rate: float | None
    fitted_constant: float | None
    fit_window: tuple[int, int] | None

    def to_csv(self) -> str:
        lines = ["n,tv"]
        lines += [f"{n},{float(v)!r}" for n, v in enumerate(self.values)]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "rate": self.fitted_rate,
            "constant": self.fitted_constant,
            "gap": None if self.fitted_rate is None else 1.0 - self.fitted_rate,
            "N": int(len(self.values) - 1),
        }


def tv_curve(tm: TransitionMatrix, start, n_max: int) -> TVCurve:
    """TV to stationarity for n = 0..n_max by iterated vector transport.

    Since pi P = pi, the difference v = delta_start - pi is transported
    itself, so rounding stays relative to the distance rather than to pi
    and the tail of the curve is resolved down to the fit floor.
    """
    if n_max < 0:
        raise IndexOutOfRange("n_max must be nonnegative")
    i0 = tm.index_of(start)
    n_states = tm.n_states
    v = -tm.stationary
    v[i0] += 1.0
    values = np.empty(n_max + 1)
    values[0] = 0.5 * np.abs(v).sum()
    for n in range(1, n_max + 1):
        # (vP)[i+k] gains v[i] * P[i, i+k] along each band k
        w = v * tm.bands[0]
        for k, band in tm.bands.items():
            if k > 0:
                w[k:] += v[:n_states - k] * band
            elif k < 0:
                w[:n_states + k] += v[-k:] * band
        v = w
        values[n] = 0.5 * np.abs(v).sum()
    rate, const, window = _fit_rate(values)
    return TVCurve(kind=tm.kind, start=start, n_max=n_max, values=values,
                   fitted_rate=rate, fitted_constant=const, fit_window=window)


def _fit_rate(values: np.ndarray):
    usable = np.where(values > _TV_FLOOR)[0]
    usable = usable[usable >= 1]
    half = usable[len(usable) // 2:]
    if len(half) < 5:
        return None, None, None
    slope, intercept = np.polyfit(half, np.log(values[half]), 1)
    rate = min(float(np.exp(slope)), 1.0)
    return rate, float(np.exp(intercept)), (int(half[0]), int(half[-1]))


# -- spectral summaries ------------------------------------------------------


@dataclass(frozen=True)
class SpectralGap:
    """Second-largest eigenvalue modulus of a pi-symmetric kernel."""

    kind: str
    N: int
    norm_estimate: float
    gap: float
    method: str

    def to_json_dict(self) -> dict:
        return {"rate": self.norm_estimate, "constant": None,
                "gap": self.gap, "N": self.N}


def spectral_gap(tm: TransitionMatrix) -> SpectralGap:
    """Second-largest eigenvalue modulus via D^{1/2} P D^{-1/2}.

    The marginal and random-scan chains are pi-symmetric birth-death
    chains, so the symmetrization is tridiagonal with diagonal bands[0]
    and off-diagonal sqrt(P[i, i+1] P[i+1, i]); no 1/sqrt(pi) is formed.
    An index-selected eigensolve returns only the two largest eigenvalues
    and the smallest, in O(N), and the norm is the larger of the second
    eigenvalue and minus the smallest. The deterministic-scan chain is not
    pi-symmetric and is rejected.
    """
    if tm.kind not in (MARGINAL_X, RGS):
        raise NotSymmetricKernel(f"spectral gap undefined for kind {tm.kind!r}")
    d = tm.bands[0]
    off = np.sqrt(tm.bands[1]) * np.sqrt(tm.bands[-1])
    n = len(d)
    second, top = eigh_tridiagonal(d, off, eigvals_only=True,
                                   select="i", select_range=(n - 2, n - 1))
    (smallest,) = eigh_tridiagonal(d, off, eigvals_only=True,
                                   select="i", select_range=(0, 0))
    if abs(top - 1.0) > 1e-8:
        raise ErgochainError(f"top eigenvalue {top!r} is not 1")
    norm = min(max(second, -smallest, 0.0), 1.0)
    return SpectralGap(kind=tm.kind, N=tm.N, norm_estimate=norm,
                       gap=1.0 - norm, method="tridiagonal")


__all__ = [
    "MARGINAL_X", "DGS", "RGS",
    "TransitionMatrix", "TVCurve", "SpectralGap",
    "build_Px", "build_Pdgs", "build_Prgs", "check_scan_p", "log_expect",
    "tv_curve", "spectral_gap",
]
