"""Transition kernels of the three chains and their spectral summaries.

For a truncated family on {1..N} the package builds three Markov kernels:

  marginal_x  the x-marginal birth-death chain, tridiagonal on {1..N}
  dgs         the deterministic-scan Gibbs chain (x then y), supported on
              the 2N-1 staircase states, pentadiagonal, not pi-symmetric;
              it keeps a reference to its family
  rgs         the random-scan Gibbs chain that updates x with probability
              scan_p and y otherwise; pi-symmetric with positive self-loops

Product-space states are ordered (1,1), (2,1), (2,2), (3,2), ..., (N,N).
This module owns that order: staircase_xy maps position m to its state,
index_of maps a state back and check_state is their domain, so a kernel
stores no state list and TransitionMatrix.states is derived on access.
On this order a random-scan step moves to a neighbouring state, so rgs is
a birth-death chain on 2N-1 states, and a deterministic-scan step moves at
most two states away. Every kernel is therefore stored as its diagonals:
bands[k][m] = P[i, i+k] with m = min(i, i+k), the layout of
scipy.sparse.diags, and rows (y, y) and (y+1, y) fill the even and odd
entries of each band, products of the family's conditional laws stay_x,
stay_y, beta and delta. Total variation curves transport only
tridiagonal chains: after one sweep of the deterministic scan y is drawn
from pi(.|x), so a dgs curve is the x-marginal chain's from the law of
the first x, read from the dgs kernel's family. They transport the
difference from pi by a fixed three-band step, three products and two
sums in place on shifted views; the n-step matrix is never formed, and a
hand-made kernel with other bands is refused, not transported without
them. After n steps the start's mass lies within n states of the start,
so outside that window the difference is exactly -pi: it is
transported, a block of steps at a time, only inside the window the
block's last step reaches, and pi's mass outside comes from cumulative
sums over the range the chain can reach. Each step of a block writes |v|
into a row of a ring that one row sum reduces to the block's L1 norms,
and every working array is sized by the reachable range, not by the
number of states.
One-step expectations log (P f) come from log f the same way, with one
logaddexp per band (log_expect), so drift checks never form f itself.
Spectral gaps come from the edge matrix E: D (I - P) = B^T diag(e) B with
D = diag(pi), B the first-difference matrix and e_k = pi_k P[k, k+1] the
edge conductances, so I - P on mean-zero functions has the spectrum of E.
An eigenvalue of E is bracketed by tests of whether a shift of E is
positive definite, decided by odd-even reduction; the shifts tried are
geometric means of the bracket's ends while they differ by more than a
factor of 4, midpoints after that, and then regula falsi on the
reduction's last pivot.

The only scipy import is scipy.sparse, inside TransitionMatrix.P, so
importing this module, building kernels, transporting TV curves and
solving spectral gaps load numpy alone.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import IndexOutOfRange, NotSymmetricKernel, StartNotInSupport
from .family import BivariateFamily
from .spec import DGS, MARGINAL_X, RGS, check_gap_kind, check_scan_p

# TV values below this are fitting noise and are excluded from rate fits.
_TV_FLOOR = 1e-13
# tv_curve sums |v| over this many steps at once
_RING = 16
# _fit_rate reads the curve this many steps at a time
_FIT_BLOCK = 4096


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


def staircase_xy(N: int) -> tuple[np.ndarray, np.ndarray]:
    """x and y of the 2N-1 staircase states: m -> ((m+1)//2 + 1, m//2 + 1)."""
    m = np.arange(2 * N - 1)
    return (m + 1) // 2 + 1, m // 2 + 1


def _staircase_pi(fam: BivariateFamily) -> np.ndarray:
    """pi on the staircase order: a_y at (y, y), b_y at (y+1, y)."""
    logs = np.empty(2 * fam.N - 1)
    logs[0::2], logs[1::2] = fam.log_a, fam.log_b[:-1]
    return np.exp(logs, out=logs)


@dataclass(frozen=True)
class TransitionMatrix:
    """A kernel stored as its diagonals and its stationary distribution;
    bands[k][min(i, i+k)] = P[i, i+k]. family is the family a dgs kernel
    was built from (None otherwise), kept by reference: tv_curve reads the
    x-marginal chain from it."""

    kind: str
    bands: dict = field(repr=False)
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
    def P(self):
        """The kernel as a scipy.sparse CSR matrix, built on each access.

        Needs scipy, which is not a runtime dependency: install the
        package's test extra or scipy itself."""
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


def build_Px(fam: BivariateFamily) -> TransitionMatrix:
    """Tridiagonal kernel of the x-marginal birth-death chain."""
    return TransitionMatrix(MARGINAL_X, _px_bands(fam.p, fam.q), fam.pi_x, fam.N)


def _px_bands(p: np.ndarray, q: np.ndarray) -> dict:
    """Bands of the birth-death chain with up and down probabilities p, q."""
    return {-1: q[1:], 0: np.maximum(0.0, 1.0 - p - q), 1: p[:-1]}


def build_Pdgs(fam: BivariateFamily) -> TransitionMatrix:
    """Deterministic-scan kernel: draw x' given y, then y' given x'.

    Both rows (y, y) and (y+1, y) move to (y, y-1), (y, y), (y+1, y) and
    (y+1, y+1) with the same four probabilities, which puts the kernel on
    offsets -2..2.
    """
    n = 2 * fam.N - 1
    beta, delta, ob, od = fam.beta, fam.delta, fam.stay_y, fam.stay_x
    bands = {k: np.zeros(n - abs(k)) for k in range(-2, 3)}
    # each probability is computed once into a band, then copied
    to_yy = np.multiply(ob, od, out=bands[0][0::2])                # (y, y)
    to_down = np.multiply(ob[1:], delta[1:], out=bands[-1][1::2])  # (y, y-1)
    to_up = np.multiply(beta[:-1], delta[1:], out=bands[0][1::2])  # (y+1, y)
    to_upup = np.multiply(beta[:-1], od[1:], out=bands[1][1::2])   # (y+1, y+1)
    bands[1][0::2], bands[2][0::2] = to_up, to_upup
    bands[-1][0::2], bands[-2][1::2] = to_yy[:-1], to_down[:-1]
    return TransitionMatrix(DGS, bands, _staircase_pi(fam), fam.N, fam)


def build_Prgs(fam: BivariateFamily, scan_p: float) -> TransitionMatrix:
    """Random-scan kernel: refresh x with probability scan_p, else y.

    From (y, y) the x-update reaches (y+1, y) and the y-update (y, y-1);
    from (y+1, y) they reach (y, y) and (y+1, y+1). Every move is to a
    neighbour in the staircase order, so the kernel is tridiagonal.
    """
    s = check_scan_p(scan_p)
    t = 1 - s
    n = 2 * fam.N - 1
    beta, delta, ob, od = fam.beta, fam.delta, fam.stay_y, fam.stay_x
    bands = {k: np.empty(n - abs(k)) for k in (-1, 0, 1)}
    # no temporaries: t od passes through band 1 before band 1 is filled
    stay = np.multiply(s, ob, out=bands[0][0::2])
    stay += np.multiply(t, od, out=bands[1][:fam.N])
    np.multiply(s, beta[:-1], out=bands[1][0::2])
    np.multiply(t, od[1:], out=bands[1][1::2])
    np.multiply(s, ob[:-1], out=bands[-1][0::2])
    np.multiply(t, delta[1:], out=bands[-1][1::2])
    np.add(bands[1][0::2], bands[-1][1::2], out=bands[0][1::2])
    return TransitionMatrix(RGS, bands, _staircase_pi(fam), fam.N)


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

    After k steps v is exactly -pi outside the window of states within k
    of the start's support, and since pi P = pi a step keeps it -pi there
    to rounding. The steps run in blocks of _RING. Every step of a block
    updates v only on the window the block's last step reaches, reading
    the previous v on that window widened by one state, where entries
    never updated still hold -pi; TV is half the sum of |v| on the window
    plus pi's mass outside it. That mass comes from cumulative sums of pi
    over the range reachable in the run plus one sum of each remainder
    beyond it. v and the buffer it swaps with hold that range widened by
    one state, 0 beyond the chain's ends, and each of the three bands is
    copied once into column order over the range, so a step is three
    unclipped products summed in place, band 0, then -1, then +1, on views
    made once per block, and one abs of the window into row (k - 1) mod
    _RING of a ring of _RING rows over the range. Each row is zero outside
    the windows it has held; windows only grow, so a reused row is
    overwritten wherever it held a value. After each block, one row sum
    over the ring gives the window sums of its steps. Every array but
    values is sized by the reachable range, not by the number of states
    or of steps. Once the window covers every state, a step is the plain
    transport.
    """
    if n_max < 0:
        raise IndexOutOfRange("n_max must be nonnegative")
    i0 = tm.index_of(start)
    values = np.empty(n_max + 1)
    if tm.kind == DGS:
        pi = tm.stationary
        values[0] = 0.5 * (abs(1.0 - pi[i0]) + pi[:i0].sum() + pi[i0 + 1:].sum())
        fam = tm.family
        i0 //= 2                                   # x' is y0 or y0 + 1
        beta = float(fam.beta[i0])
        if n_max:
            _transport(tm, fam.N, i0, [1.0 - beta, beta][:fam.N - i0], values[1:])
    else:
        _check_tridiagonal(tm)
        _transport(tm, tm.n_states, i0, [1.0], values)
    rate, const, window = _fit_rate(values)
    return TVCurve(kind=tm.kind, N=tm.N, start=start, n_max=n_max,
                   values=values, fitted_rate=rate, fitted_constant=const,
                   fit_window=window)


def _check_tridiagonal(tm: TransitionMatrix) -> None:
    """IndexOutOfRange unless tm's bands are exactly those on offsets -1,
    0 and 1, the only ones a marginal or random-scan kernel has."""
    if sorted(tm.bands) != [-1, 0, 1]:
        raise IndexOutOfRange(f"{tm.kind} kernel has bands {sorted(tm.bands)}, "
                              "not exactly -1, 0 and 1")


def _chain_on(tm: TransitionMatrix, r_lo: int, r_hi: int, s_lo: int, s_hi: int):
    """The chain tv_curve transports for tm, on the states it reaches:
    its bands, the state entry 0 of the bands belongs to, pi on states
    s_lo..s_hi - 1, and pi's mass below r_lo and from r_hi on.

    For dgs it is the x-marginal chain, built from the family on s_lo..
    s_hi - 1 alone. Its state j is x = j + 1, which holds the staircase
    positions 2j - 1 and 2j, so the states below r_lo hold the positions
    below 2 r_lo - 1 and those from r_hi on the positions from 2 r_hi - 1.
    """
    pi = tm.stationary
    if tm.kind != DGS:
        return tm.bands, 0, pi[s_lo:s_hi], pi[:r_lo].sum(), pi[r_hi:].sum()
    fam = tm.family
    bands = _px_bands(fam.p[s_lo:s_hi], fam.q[s_lo:s_hi])
    return (bands, s_lo, np.exp(fam.log_pix[s_lo:s_hi]),
            pi[:max(0, 2 * r_lo - 1)].sum(), pi[2 * r_hi - 1:].sum())


def _transport(tm: TransitionMatrix, n: int, i0: int, mass: list,
               out: np.ndarray) -> None:
    """out[k] = TV after k steps, k = 0..len(out) - 1, of the tridiagonal
    chain _chain_on gives on n states, from mass[j] at state i0 + j."""
    steps = len(out) - 1
    i1 = i0 + len(mass)
    r_lo, r_hi = max(0, i0 - steps), min(n, i1 + steps)
    s_lo, s_hi = max(0, r_lo - 1), min(n, r_hi + 1)
    bands, base, pi, below, above = _chain_on(tm, r_lo, r_hi, s_lo, s_hi)
    # mass_left[lo - r_lo] is pi's mass below state lo, and
    # mass_right[r_hi - hi] its mass at hi and above; no subtraction, so a
    # tiny tail mass keeps its relative accuracy
    mass_left = np.concatenate(([below], pi[r_lo - s_lo:i0 - s_lo])).cumsum()
    mass_right = np.concatenate(([above], pi[i1 - s_lo:r_hi - s_lo][::-1])).cumsum()
    # v and w hold states r_lo - 1 .. r_hi: -pi on the chain's states and
    # 0 beyond them, so no band slice needs clipping
    off = r_lo - 1
    v = np.zeros(r_hi - r_lo + 2)
    np.negative(pi, out=v[s_lo - off:s_hi - off])
    w = v.copy()
    v[i0 - off:i1 - off] += mass
    # column k holds P[j-k, j] for j in r_lo .. r_hi - 1, 0 where state
    # j - k is absent: the chance of staying at j, arriving from above and
    # arriving from below
    stay, from_above, from_below = (_column(bands[k], base + max(k, 0), r_lo, r_hi)
                                    for k in (0, -1, 1))
    width = r_hi - r_lo
    out[0] = 0.5 * (np.abs(v[i0 - off:i1 - off]).sum() + mass_left[-1] + mass_right[-1])
    ring = np.zeros((min(_RING, steps), width))
    scratch = np.empty(width)
    mul, add, absolute = np.multiply, np.add, np.absolute
    for first in range(1, steps + 1, _RING):
        last = min(first + _RING, steps + 1)
        # every step of the block moves v on the window its last step reaches
        lo = max(0, i0 - r_lo - (last - 1))
        hi = min(width, i1 - r_lo + (last - 1))
        d, a, b, t = stay[lo:hi], from_above[lo:hi], from_below[lo:hi], scratch[lo:hi]
        v0, va, vb = v[lo + 1:hi + 1], v[lo + 2:hi + 2], v[lo:hi]
        w0, wa, wb = w[lo + 1:hi + 1], w[lo + 2:hi + 2], w[lo:hi]
        block = ring[:last - first, lo:hi]
        # (vP)[j] = v[j] P[j, j] + v[j+1] P[j+1, j] + v[j-1] P[j-1, j], added
        # in that order; the steps alternate between reading v and reading w
        for k in range(0, last - first, 2):
            mul(v0, d, w0)
            mul(va, a, t)
            add(w0, t, w0)
            mul(vb, b, t)
            add(w0, t, w0)
            absolute(w0, block[k])
            if k + 1 == last - first:
                break
            mul(w0, d, v0)
            mul(wa, a, t)
            add(v0, t, v0)
            mul(wb, b, t)
            add(v0, t, v0)
            absolute(v0, block[k + 1])
        if (last - first) % 2:
            v, w = w, v
        out[first:last] = 0.5 * (block.sum(axis=1)
                                  + (mass_left[lo] + mass_right[width - hi]))


def _column(band: np.ndarray, j0: int, r_lo: int, r_hi: int) -> np.ndarray:
    """band, whose entry m lies in column j0 + m, as its columns r_lo ..
    r_hi - 1 with 0 where it has none."""
    col = np.zeros(r_hi - r_lo)
    a = max(r_lo, j0)
    b = max(a, min(r_hi, j0 + len(band)))        # b < a only when steps = 0
    col[a - r_lo:b - r_lo] = band[a - j0:b - j0]
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
    -sqrt(down[k] up[k+1]), up = bands[1], down = bands[-1]; its eigenvalues
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
    the solver's resolution, not that the chain fails to mix. dgs kernels, and hand-made
    kernels with an eigenvalue below -(1 - gap), raise NotSymmetricKernel;
    hand-made kernels with bands other than -1, 0 and 1 raise
    IndexOutOfRange.
    """
    check_gap_kind(tm.kind)
    _check_tridiagonal(tm)
    up, down = tm.bands[1], tm.bands[-1]
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
    "build_Px", "build_Pdgs", "build_Prgs", "log_expect",
    "staircase_xy", "tv_curve", "spectral_gap",
]
