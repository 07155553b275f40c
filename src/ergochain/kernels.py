"""Transition kernels of the three chains and their spectral summaries.

For a truncated family on {1..N} the package builds three Markov kernels
from two conditional updates, Pi_x (draw x given y) and Pi_y (y given x):

  marginal_x  the x-marginal birth-death chain, tridiagonal on {1..N}
  dgs         the deterministic-scan Gibbs chain Pi_x Pi_y on the 2N-1
              staircase states, not pi-symmetric; it stores pi and family
  rgs         the random-scan Gibbs chain s Pi_x + (1 - s) Pi_y with
              s = scan_p; pi-symmetric with positive self-loops

Product-space states are ordered (1,1), (2,1), (2,2), (3,2), ..., (N,N),
the staircase order family defines: family.staircase_xy maps position m
to its state and family.check_state is the support, and index_of maps a
state back, so a kernel stores no state list and TransitionMatrix.states
is derived on access.
On this order either update moves to a neighbouring state, so rgs is a
birth-death chain on 2N-1 states. The marginal and random-scan kernels
are stored as their diagonals down[m] = P[m+1, m], stay[m] = P[m, m] and
up[m] = P[m, m+1]; rows (y, y) and (y+1, y) fill the even and odd entries
of each, products of the family's conditional laws stay_x, stay_y, beta
and delta. _scan_diagonals fills s Pi_x + (1 - s) Pi_y, and a dgs
kernel's P is Pi_x Pi_y, each entry one product of the two. Total
variation curves transport only tridiagonal chains: after one sweep of
the deterministic scan y is drawn from pi(.|x), so a dgs curve is the
x-marginal chain's from the law of the first x, read from the dgs
kernel's family. They transport the
difference from pi by one three-band step, three products and two sums
from one buffer into the other; the n-step matrix is never formed.
After n steps the start's mass lies within n states of the start,
so outside that window the difference is exactly -pi: it is
transported, a block of steps at a time, only inside the window the
block's last step reaches, and pi's mass outside comes from cumulative
sums over the range the chain can reach. Each step of a block writes |v|
into a row of a ring that one row sum reduces to the block's L1 norms,
and every working array is sized by the reachable range, not by the
number of states. No kernel forms a one-step expectation: the drift
constant L is read from p and q (drift, in excess form).
Spectral gaps come from the edge matrix E: D (I - P) = B^T diag(e) B with
D = diag(pi), B the first-difference matrix and e_k = pi_k P[k, k+1] the
edge conductances, so I - P on mean-zero functions has the spectrum of E.
An eigenvalue of E is bracketed by tests of whether a shift of E is
positive definite, decided by odd-even reduction; the shifts tried are
geometric means of the bracket's ends while they differ by more than a
factor of 4, midpoints after that, and then regula falsi on the
reduction's last pivot.

TransitionMatrix.P is a BandMatrix, the kernel's diagonals stored
row-aligned, three for the marginal and random-scan kernels and five for
dgs, formed from the family's conditional laws. It offers row sums,
products with a vector, the transpose and toarray, and nothing here
imports scipy: importing this module, building kernels, reading P,
transporting TV curves and solving spectral gaps load numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IndexOutOfRange, NotSymmetricKernel
from .family import BivariateFamily, check_state, staircase_xy
from .spec import DGS, MARGINAL_X, RGS, check_gap_kind, check_scan_p

# TV values below this are fitting noise and are excluded from rate fits.
_TV_FLOOR = 1e-13
# tv_curve sums |v| over blocks of this many steps, or of fewer, down to
# 16, where their ring would pass _RING_BYTES and fall out of a core's cache
_RING = 64
_RING_BYTES = 2 ** 19
# _fit_rate reads the curve this many steps at a time
_FIT_BLOCK = 4096


def _staircase_pi(fam: BivariateFamily) -> np.ndarray:
    """pi on the staircase order: a_y at (y, y), b_y at (y+1, y)."""
    logs = np.empty(2 * fam.N - 1)
    logs[0::2], logs[1::2] = fam.log_a, fam.log_b[:-1]
    return np.exp(logs, out=logs)


@dataclass(frozen=True, eq=False)
class BandMatrix:
    """A square matrix stored as its diagonals, row-aligned: bands[k, i]
    is M[i, i + offsets[k]], 0 where that column is outside the matrix,
    with offsets increasing. It offers toarray, row sums, T, nnz and @
    with a vector on either side."""

    offsets: tuple
    bands: np.ndarray = field(repr=False)

    # ndarray @ BandMatrix returns NotImplemented and so reaches __rmatmul__
    __array_ufunc__ = None

    def _diagonals(self):
        """(offset, band, lo, hi) per band: rows lo..hi - 1 are in the matrix."""
        n = self.bands.shape[1]
        for k, band in zip(self.offsets, self.bands):
            yield k, band, max(0, -k), min(n, n - k)

    @property
    def nnz(self) -> int:
        """The number of nonzero entries."""
        return int(np.count_nonzero(self.bands))

    @property
    def T(self) -> BandMatrix:
        """The transpose: M.T[i, i - k] = M[i - k, i], band k moved k rows."""
        bands = np.zeros_like(self.bands)
        for row, (k, band, lo, hi) in zip(bands[::-1], self._diagonals()):
            row[lo + k:hi + k] = band[lo:hi]
        return BandMatrix(tuple(-k for k in reversed(self.offsets)), bands)

    def toarray(self) -> np.ndarray:
        n = self.bands.shape[1]
        out = np.zeros((n, n))
        rows = np.arange(n)
        for k, band, lo, hi in self._diagonals():
            out[rows[lo:hi], rows[lo:hi] + k] = band[lo:hi]
        return out

    def sum(self, axis: int) -> np.ndarray:
        """Row sums, as a vector; axis must be 1."""
        if axis != 1:
            raise ValueError(f"axis must be 1, not {axis!r}")
        return self.bands.sum(axis=0)

    def __matmul__(self, x) -> np.ndarray:
        """M x for a vector x: (M x)[i] = sum over k of bands[k, i] x[i + k]."""
        x = np.asarray(x)
        if x.shape != self.bands.shape[1:]:
            raise ValueError(f"cannot multiply a {self.bands.shape[1]}-state "
                             f"matrix by an array of shape {x.shape}")
        out = np.zeros(x.shape)
        for k, band, lo, hi in self._diagonals():
            out[lo:hi] += band[lo:hi] * x[lo + k:hi + k]
        return out

    def __rmatmul__(self, x) -> np.ndarray:
        """x M, as M.T x."""
        return self.T @ x


def _tridiagonal(down: np.ndarray, stay: np.ndarray, up: np.ndarray) -> BandMatrix:
    """The BandMatrix with diagonals down[m] = M[m+1, m], stay and up[m] = M[m, m+1]."""
    bands = np.zeros((3, len(stay)))
    bands[0, 1:], bands[1], bands[2, :-1] = down, stay, up
    return BandMatrix((-1, 0, 1), bands)


@dataclass(frozen=True)
class TransitionMatrix:
    """A kernel and its stationary distribution: a marginal or random-scan
    kernel as its diagonals down, stay and up; a dgs kernel as None for
    each and family, the family it was built from, kept by reference."""

    kind: str
    down: np.ndarray | None = field(repr=False)
    stay: np.ndarray | None = field(repr=False)
    up: np.ndarray | None = field(repr=False)
    stationary: np.ndarray = field(repr=False)
    N: int
    family: BivariateFamily | None = field(default=None, repr=False, compare=False)

    @property
    def n_states(self) -> int:
        return len(self.stationary)

    @property
    def states(self) -> list:
        """x = 1..N or the staircase (x, y) pairs, built on each access."""
        if self.kind == MARGINAL_X:
            return list(range(1, self.N + 1))
        x, y = staircase_xy(self.N)
        return list(zip(x.tolist(), y.tolist()))

    @property
    def P(self) -> BandMatrix:
        """The kernel as a BandMatrix, built on each access: the three
        diagonals down, stay and up, or for dgs the five-band product
        Pi_x Pi_y of the two conditional updates."""
        if self.kind == DGS:
            return _dgs_bands(_family_of(self))
        return _tridiagonal(self.down, self.stay, self.up)

    def index_of(self, state) -> int:
        """Position of a state; StartNotInSupport when absent."""
        if self.kind == MARGINAL_X:
            return check_state(self.kind, self.N, state) - 1
        x, y = check_state(self.kind, self.N, state)
        return 2 * y - 2 + (x - y)


def _family_of(tm: TransitionMatrix) -> BivariateFamily:
    """The family a dgs kernel was built from; IndexOutOfRange without one."""
    if tm.family is None:
        raise IndexOutOfRange("dgs kernel has no family; build it with build_Pdgs")
    return tm.family


def _dgs_bands(fam: BivariateFamily) -> BandMatrix:
    """Pi_x Pi_y as five bands, each entry one product of the two updates'
    entries: from (y, y) the x-update keeps x = y (stay_y) or moves it to
    y + 1 (beta), and the y-update then sets y' from x'."""
    sy, beta, delta, sx = fam.stay_y, fam.beta, fam.delta, fam.stay_x
    bands = np.zeros((5, 2 * fam.N - 1))
    even, odd = bands[:, 0::2], bands[:, 1::2]     # rows (y, y) and (y + 1, y)
    np.multiply(sy[1:], delta[1:], out=even[1, 1:])        # to (y, y - 1)
    np.multiply(sy, sx, out=even[2])                       # to (y, y)
    np.multiply(beta[:-1], delta[1:], out=even[3, :-1])    # to (y + 1, y)
    np.multiply(beta[:-1], sx[1:], out=even[4, :-1])       # to (y + 1, y + 1)
    for k in range(4):      # (y + 1, y) reaches the same states a band lower;
        odd[k] = even[k + 1, :-1]   # one band at a time, so numpy stages no copy
    return BandMatrix((-2, -1, 0, 1, 2), bands)


def build_Px(fam: BivariateFamily) -> TransitionMatrix:
    """Tridiagonal kernel of the x-marginal birth-death chain."""
    return TransitionMatrix(MARGINAL_X, *_px_diagonals(fam.p, fam.q), fam.pi_x, fam.N)


def _px_diagonals(p: np.ndarray, q: np.ndarray) -> tuple:
    """down, stay and up of the birth-death chain moving up w.p. p, down q."""
    return q[1:], np.maximum(0.0, 1.0 - p - q), p[:-1]


def build_Pdgs(fam: BivariateFamily) -> TransitionMatrix:
    """Deterministic-scan kernel Pi_x Pi_y: draw x' given y, then y' given
    x'. It holds the staircase pi and the family the updates come from."""
    return TransitionMatrix(DGS, None, None, None, _staircase_pi(fam), fam.N, fam)


def build_Prgs(fam: BivariateFamily, scan_p: float) -> TransitionMatrix:
    """Random-scan kernel: refresh x with probability scan_p, else y."""
    return TransitionMatrix(RGS, *_scan_diagonals(fam, check_scan_p(scan_p)),
                            _staircase_pi(fam), fam.N)


def _scan_diagonals(fam: BivariateFamily, s: float) -> tuple:
    """down, stay and up of s Pi_x + (1 - s) Pi_y on the staircase order.

    From (y, y) the x-update reaches (y+1, y) and the y-update (y, y-1);
    from (y+1, y) they reach (y, y) and (y+1, y+1). Every move is to a
    neighbour in the staircase order, so the kernel is tridiagonal.
    """
    t = 1 - s
    n = 2 * fam.N - 1
    beta, delta, ob, od = fam.beta, fam.delta, fam.stay_y, fam.stay_x
    down, stay, up = np.empty(n - 1), np.empty(n), np.empty(n - 1)
    # no temporaries: t od passes through up before up is filled
    even = np.multiply(s, ob, out=stay[0::2])
    even += np.multiply(t, od, out=up[:fam.N])
    np.multiply(s, beta[:-1], out=up[0::2])
    np.multiply(t, od[1:], out=up[1::2])
    np.multiply(s, ob[:-1], out=down[0::2])
    np.multiply(t, delta[1:], out=down[1::2])
    np.add(up[0::2], down[1::2], out=stay[1::2])
    return down, stay, up


# -- total variation curves ------------------------------------------------


@dataclass(frozen=True)
class TVCurve:
    """Total variation distances to stationarity along the chain.

    values[n] is TV after n steps from the point mass at start, for
    n = 0..n_max, with the 1/2 L1 convention. fitted_rate and
    fitted_constant come from a least-squares line through log TV over
    fit_window, the trailing half of the steps with TV above 1e-13;
    they are None when fewer than five such steps exist. N is the
    kernel's truncation level.
    """

    kind: str
    N: int
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
            "N": self.N,
        }


def tv_curve(tm: TransitionMatrix, start, n_max: int) -> TVCurve:
    """TV to stationarity for n = 0..n_max by iterated vector transport.

    Every chain transported is tridiagonal. A dgs curve is values[0] =
    1 - pi(start) and then the x-marginal chain's curve from the law mu_1
    after one sweep: the sweep draws x' = y0 with probability
    1 - beta_{y0} and y0 + 1 with beta_{y0} (beta_N = 0), then y' given
    x', so after n >= 1 sweeps the joint law is mu_n(x) pi(y|x) with
    mu_n = mu_1 Px^(n-1), and its TV to pi is TV(mu_n, pi_x). The
    marginal chain's p, q and log pi_x come from the kernel's family on
    the reachable range; pi_x's mass beyond it is a sum of the staircase
    pi over the states whose x lies beyond.

    Since pi P = pi, the difference v = mu - pi is transported itself, so
    rounding stays relative to the distance rather than to pi and the
    tail of the curve is resolved down to the fit floor.

    After k steps v is exactly -pi outside the window of states within k of
    the start's support, and since pi P = pi a step keeps it -pi there to
    rounding. The steps run in blocks of up to _RING. Every step of a block
    updates v only on the window the block's last step reaches, reading the
    previous v on that window widened by one state, where entries never
    updated still hold -pi; TV is half the sum of |v| on the window plus
    pi's mass outside it. That mass comes from cumulative sums of pi over
    the range reachable in the run plus one sum of each remainder beyond it.
    Two buffers hold that range widened by one state, 0 beyond the chain's
    ends, v after step k in buffer k mod 2, and each of the three diagonals
    is copied once into column order over the range. So one step body serves
    every step: it reads one buffer and writes the other, three unclipped
    products summed, stay, then down, then up, on views of both buffers made
    once per block, and one abs of the window into the step's row of a ring
    over the range. Each row is zero outside the windows it has held;
    windows only grow, so a reused row is overwritten wherever it held a
    value. After each block, one row sum over the ring gives the window sums
    of its steps. Every array but values is sized by the reachable range,
    not by the number of states or of steps. Once the window covers every
    state, a step is the plain transport.
    """
    if n_max < 0:
        raise IndexOutOfRange("n_max must be nonnegative")
    i0 = tm.index_of(start)
    values = np.empty(n_max + 1)
    if tm.kind == DGS:
        pi = tm.stationary
        values[0] = 0.5 * (abs(1.0 - pi[i0]) + pi[:i0].sum() + pi[i0 + 1:].sum())
        fam = _family_of(tm)
        i0 //= 2                                   # x' is y0 or y0 + 1
        beta = float(fam.beta[i0])
        if n_max:
            _transport(tm, fam.N, i0, [1.0 - beta, beta][:fam.N - i0], values[1:])
    else:
        _transport(tm, tm.n_states, i0, [1.0], values)
    rate, const, window = _fit_rate(values)
    return TVCurve(kind=tm.kind, N=tm.N, start=start, n_max=n_max,
                   values=values, fitted_rate=rate, fitted_constant=const,
                   fit_window=window)


def _chain_on(tm: TransitionMatrix, r_lo: int, r_hi: int, s_lo: int, s_hi: int):
    """The chain tv_curve transports for tm, on the states it reaches:
    its down, stay and up, the state entry 0 of each belongs to, pi on states
    s_lo..s_hi - 1, and pi's mass below r_lo and from r_hi on.

    For dgs it is the x-marginal chain, built from the family on s_lo..
    s_hi - 1 alone. Its state j is x = j + 1, which holds the staircase
    positions 2j - 1 and 2j, so the states below r_lo hold the positions
    below 2 r_lo - 1 and those from r_hi on the positions from 2 r_hi - 1.
    """
    pi = tm.stationary
    if tm.kind != DGS:
        diagonals = tm.down, tm.stay, tm.up
        return diagonals, 0, pi[s_lo:s_hi], pi[:r_lo].sum(), pi[r_hi:].sum()
    fam = tm.family
    return (_px_diagonals(fam.p[s_lo:s_hi], fam.q[s_lo:s_hi]), s_lo,
            np.exp(fam.log_pix[s_lo:s_hi]),
            pi[:max(0, 2 * r_lo - 1)].sum(), pi[2 * r_hi - 1:].sum())


def _transport(tm: TransitionMatrix, n: int, i0: int, mass: list,
               out: np.ndarray) -> None:
    """out[k] = TV after k steps, k = 0..len(out) - 1, of the tridiagonal
    chain _chain_on gives on n states, from mass[j] at state i0 + j."""
    steps = len(out) - 1
    i1 = i0 + len(mass)
    r_lo, r_hi = max(0, i0 - steps), min(n, i1 + steps)
    s_lo, s_hi = max(0, r_lo - 1), min(n, r_hi + 1)
    diagonals, base, pi, below, above = _chain_on(tm, r_lo, r_hi, s_lo, s_hi)
    # mass_left[lo - r_lo] is pi's mass below state lo, and
    # mass_right[r_hi - hi] its mass at hi and above; no subtraction, so a
    # tiny tail mass keeps its relative accuracy
    mass_left = np.concatenate(([below], pi[r_lo - s_lo:i0 - s_lo])).cumsum()
    mass_right = np.concatenate(([above], pi[i1 - s_lo:r_hi - s_lo][::-1])).cumsum()
    # buf[k % 2] holds v after step k on states r_lo - 1 .. r_hi: -pi on the
    # chain's states and 0 beyond them, so no diagonal's slice needs clipping
    off = r_lo - 1
    buf = np.zeros((2, r_hi - r_lo + 2))
    np.negative(pi, out=buf[:, s_lo - off:s_hi - off])
    buf[0, i0 - off:i1 - off] += mass
    # the columns P[j+1, j], P[j, j] and P[j-1, j] for j in r_lo .. r_hi - 1,
    # 0 where the state is absent: the chance of arriving from above, of
    # staying at j and of arriving from below
    from_above, stay, from_below = (_column(diag, base + k, r_lo, r_hi)
                                    for diag, k in zip(diagonals, (0, 0, 1)))
    width = r_hi - r_lo
    out[0] = 0.5 * (np.abs(buf[0, i0 - off:i1 - off]).sum() + mass_left[-1] + mass_right[-1])
    rows = min(_RING, max(16, _RING_BYTES // (8 * width)))
    ring = np.zeros((min(rows, steps), width))
    scratch = np.empty(width)
    mul, add, absolute = np.multiply, np.add, np.absolute
    for first in range(1, steps + 1, rows):
        last = min(first + rows, steps + 1)
        # every step of the block moves v on the window its last step reaches
        lo = max(0, i0 - r_lo - (last - 1))
        hi = min(width, i1 - r_lo + (last - 1))
        d, a, b, t = stay[lo:hi], from_above[lo:hi], from_below[lo:hi], scratch[lo:hi]
        # (vP)[j] = v[j] P[j, j] + v[j+1] P[j+1, j] + v[j-1] P[j-1, j], added
        # in that order; a step reads one buffer and writes the other
        reads, writes = ((u[lo + 1:hi + 1], u[lo + 2:hi + 2], u[lo:hi])
                         for u in (buf[(first - 1) % 2], buf[first % 2]))
        block = ring[:last - first, lo:hi]
        for row in block:
            v0, va, vb = reads
            w0 = writes[0]
            mul(v0, d, w0)
            mul(va, a, t)
            add(w0, t, w0)
            mul(vb, b, t)
            add(w0, t, w0)
            absolute(w0, row)
            reads, writes = writes, reads
        out[first:last] = 0.5 * (block.sum(axis=1)
                                  + (mass_left[lo] + mass_right[width - hi]))


def _column(diag: np.ndarray, j0: int, r_lo: int, r_hi: int) -> np.ndarray:
    """diag, whose entry m lies in column j0 + m, as its columns r_lo ..
    r_hi - 1 with 0 where it has none."""
    col = np.zeros(r_hi - r_lo)
    a = max(r_lo, j0)
    b = max(a, min(r_hi, j0 + len(diag)))        # b < a only when steps = 0
    col[a - r_lo:b - r_lo] = diag[a - j0:b - j0]
    return col


def _above_floor(values: np.ndarray, first: int):
    """(steps, TV) of the steps from first on with TV above the floor,
    _FIT_BLOCK steps at a time, so that no array as long as the curve
    is made."""
    for i in range(first, len(values), _FIT_BLOCK):
        v = values[i:i + _FIT_BLOCK]
        idx = np.flatnonzero(v > _TV_FLOOR)
        yield idx + i, v[idx]


def _fit_rate(values: np.ndarray):
    """The least-squares line through log TV over the trailing half of
    the steps n >= 1 with TV above the floor, as np.polyfit(n, log TV, 1)
    gives it, from sums over the window a block at a time: a first pass
    for the means, a second for the centred sums."""
    counts = [idx.size for idx, _ in _above_floor(values, 1)]
    skip = sum(counts) // 2
    n = sum(counts) - skip
    if n < 5:
        return None, None, None
    # the first step of the window is the skip-th above the floor
    b = 0
    while skip >= counts[b]:
        skip -= counts[b]
        b += 1
    first = int(next(_above_floor(values, 1 + b * _FIT_BLOCK))[0][skip])

    sum_n = sum_y = 0.0
    for idx, v in _above_floor(values, first):
        sum_n += float(idx.sum())
        sum_y += float(np.log(v).sum())
        if idx.size:
            last = int(idx[-1])
    mean_n, mean_y = sum_n / n, sum_y / n
    snn = sny = 0.0
    for idx, v in _above_floor(values, first):
        d = idx - mean_n
        snn += float(d @ d)
        sny += float(d @ (np.log(v) - mean_y))
    slope = sny / snn
    rate = min(float(np.exp(slope)), 1.0)
    return rate, float(np.exp(mean_y - slope * mean_n)), (first, last)


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


def _final_pivot(d: np.ndarray, c: np.ndarray, sigma: float) -> float:
    """The last pivot of E - sigma I for the symmetric tridiagonal E with
    diagonal d and squared off-diagonals c, or NaN when an earlier pivot
    is <= 0 or the last overflows. E - sigma I is positive definite
    exactly when the result is > 0.

    Odd-even reduction: the even positions are the pivots, and eliminating
    them leaves their Schur complement, tridiagonal on the odd positions,
    so about log2(n) whole-array steps reach the one position k left. When
    every earlier pivot is positive, the last is 1 / ((E - sigma I)^-1)[k, k].
    A positive definite matrix keeps every value bounded, since
    c_k < a_k a_{k+1} at every level.
    """
    a = d - sigma
    # overflow, and the inf * 0 after it, happen only when the matrix is not
    # positive definite; they leave a later pivot at -inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        while a.size > 1:
            p = a[0::2]
            if not p.min() > 0.0:        # also refuses a NaN pivot
                return math.nan
            m = a.size // 2
            left, right = c[0::2] / p[:m], c[1::2] / p[1:]
            a = a[1::2] - left
            a[:right.size] -= right
            c = right[:m - 1] * left[1:]
    last = float(a[0])
    return last if math.isfinite(last) else math.nan


def _lowest_eigenvalue(d: np.ndarray, c: np.ndarray, lo: float, f_lo: float,
                       hi: float, f_hi: float, tol: float) -> tuple[float, float]:
    """A bracket [lo, hi] no wider than tol around the lowest eigenvalue of
    the tridiagonal E (d, c as in _final_pivot), given E - lo I positive
    definite and E - hi I not; f_lo and f_hi are their last pivots from
    _final_pivot, NaN where unknown.

    Let k be the position odd-even reduction leaves last, and mu the lowest
    eigenvalue of E without row and column k. Below mu the last pivot
    1 / ((E - sigma I)^-1)[k, k] is continuous in sigma, with a simple root
    at the lowest eigenvalue. So until a trial has only its last pivot
    <= 0, which puts it in [lowest, mu), trial shifts are the geometric
    mean of lo and hi, at least hi / 64, while hi > 4 lo, and midpoints
    after that: an eigenvalue far below E's Gershgorin bound, such as a
    gap of 1e-8, is reached in a few tests instead of one halving per
    factor of 2. From then on they are regula falsi on the last pivot with
    the Illinois halving, kept at least tol / 2 inside the bracket. Every
    trial is tested as the bisection tested it, so the bracket is
    certified alike.
    """
    moved = 0        # 1 or -1 when the last regula falsi trial moved lo or hi
    while hi - lo > tol:
        falsi = f_lo > 0.0 and f_hi <= 0.0
        if falsi:
            x = hi - f_hi * ((hi - lo) / (f_hi - f_lo))
            x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        elif hi > 4.0 * lo:
            x = max(math.sqrt(lo * hi), hi / 64.0)
        else:
            x = 0.5 * (lo + hi)
        f = _final_pivot(d, c, x)
        if f > 0.0:
            if moved > 0:
                f_hi *= 0.5
            lo, f_lo, moved = x, f, int(falsi)
        else:
            if moved < 0:
                f_lo *= 0.5
            hi, f_hi, moved = x, f, -int(falsi)
    return lo, hi


def spectral_gap(tm: TransitionMatrix) -> SpectralGap:
    """1 - (second-largest eigenvalue modulus) from the edge matrix E.

    E is tridiagonal with diagonal up[k] + down[k] and off-diagonal
    -sqrt(down[k] up[k+1]), from the kernel's up and down; its eigenvalues
    are 1 - lambda over the spectrum of P less one 1. The marginal and
    random-scan kernels are positive semidefinite (Px = Pxy Pyx and
    Prgs = s Pi_x + (1 - s) Pi_y average conditional-expectation
    projections), so those eigenvalues lie in [0, 1] and the gap is
    lambda_min(E), clipped to [0, 1] against rounding. It is bracketed by
    one test, whether a shift of E is positive definite, to within tol =
    eps times E's Gershgorin bound, and taken as the bracket's midpoint;
    the trial shifts are log-scale, then midpoints, then regula falsi on
    the last pivot of the test (_lowest_eigenvalue). A gap of 0.0 means
    that E - tol I is not positive definite: lambda_min(E) is at or below
    the solver's resolution, not that the chain fails to mix. dgs kernels,
    and hand-made kernels with an eigenvalue below -(1 - gap), raise
    NotSymmetricKernel.
    """
    check_gap_kind(tm.kind)
    up, down = tm.up, tm.down
    off = np.sqrt(down[:-1]) * np.sqrt(up[1:])
    bound = np.max(up + down + np.r_[0.0, off] + np.r_[off, 0.0])
    # solve on E / 2^k with 2^k >= bound: exact, and c cannot underflow
    # where every entry of E is tiny; lo, hi and the result are in E / 2^k
    scale = np.ldexp(1.0, np.frexp(bound)[1])
    d, c = (up + down) / scale, (down[:-1] / scale) * (up[1:] / scale)
    top, tol = float(bound / scale), float(np.finfo(float).eps * bound / scale)
    lowest = 0.0
    f = _final_pivot(d, c, tol)
    if f > 0.0:
        lo, hi = _lowest_eigenvalue(d, c, tol, f, top, math.nan, tol)
        lowest = 0.5 * (lo + hi)
    # lambda_min(E) is the gap only while lambda_max(E) <= 2 - lambda_min(E)
    ceiling = 2.0 / scale - lowest + 4.0 * tol
    if top > ceiling and not _final_pivot(-d, c, -ceiling) > 0.0:
        raise NotSymmetricKernel(f"{tm.kind} kernel has an eigenvalue below -(1 - gap)")
    gap = float(np.clip(lowest * scale, 0.0, 1.0))
    return SpectralGap(kind=tm.kind, N=tm.N, norm_estimate=1.0 - gap,
                       gap=gap, method="tridiagonal")


__all__ = [
    "TransitionMatrix", "TVCurve", "SpectralGap",
    "build_Px", "build_Pdgs", "build_Prgs", "tv_curve", "spectral_gap",
]
