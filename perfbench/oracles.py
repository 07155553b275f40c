"""Reference computations the benchmark checks the program's answers against.

Everything here is written from the model's definitions with numpy alone.
Kernels are rebuilt densely from a family's log weights, spectral gaps come
from a dense symmetric eigensolve, total-variation curves from dense matrix
powers, drift certificates are rechecked state by state, and simulated
traces are replayed by a scalar stepper that draws uniforms in the order the
README documents. Tolerances are fixed here, before any answer is seen.
"""

from __future__ import annotations

import json
import math

import numpy as np

EPS = float(np.finfo(np.float64).eps)

# Verdicts of the four built-in families at N = 200 (acceptance criterion 1).
BUILTIN_VERDICTS = {
    "power-law": "Subgeometric",
    "geometric": "Geometric",
    "mixed-geometric": "Subgeometric",
    "alternating": "Subgeometric",
}
VERDICTS = ("Geometric", "Subgeometric", "Inconclusive")

# A gap answer agrees with the dense reference when it is within
# GAP_RTOL of it plus the reference's own float64 resolution, n * eps for a
# symmetric eigensolve of an n-state operator of norm one. Below that
# resolution the reference reads as zero, so any larger answer is unsupported.
GAP_RTOL = 1e-3

# Rate fits below this TV level are excluded (the fit rule tvcurve documents).
TV_FLOOR = 1e-13
RATE_TOL = 1e-5


class OracleError(Exception):
    """An answer that disagrees with its reference."""


def strict_json(text: str):
    """Parse JSON, rejecting NaN and Infinity, which are not JSON."""
    def reject(const):
        raise ValueError(f"non-standard JSON constant {const}")
    return json.loads(text, parse_constant=reject)


def gap_resolved(gap) -> bool:
    """A gap answer is resolved when it is a finite number above zero."""
    return isinstance(gap, (int, float)) and math.isfinite(gap) and gap > 0.0


# -- dense kernels from log weights ------------------------------------------


class DenseModel:
    """Conditionals and dense kernels of a truncated family, from log a, log b.

    Levels are 1..N; arrays are 0-based. log_b[N-1] is -inf (b_N = 0).
    Product states are ordered (1,1), (2,1), (2,2), (3,2), ..., (N,N).
    """

    def __init__(self, log_a: np.ndarray, log_b: np.ndarray):
        la = np.asarray(log_a, dtype=float)
        lb = np.asarray(log_b, dtype=float)
        self.N = N = la.size
        lb_prev = np.concatenate(([-np.inf], lb[:-1]))
        log_pix = np.logaddexp(la, lb_prev)
        log_piy = np.logaddexp(la, lb)
        self.stay_y = np.exp(la - log_piy)      # P(X = y   | Y = y)
        self.up_y = np.exp(lb - log_piy)        # P(X = y+1 | Y = y)
        self.stay_x = np.exp(la - log_pix)      # P(Y = x   | X = x)
        self.down_x = np.exp(lb_prev - log_pix)  # P(Y = x-1 | X = x)
        self.pi_x = np.exp(log_pix)
        pi = np.empty(2 * N - 1)
        pi[0::2] = np.exp(la)
        pi[1::2] = np.exp(lb[:-1])
        self.pi_xy = pi
        self.states = [(1, 1)]
        for y in range(1, N):
            self.states += [(y + 1, y), (y + 1, y + 1)]

    @staticmethod
    def index(x: int, y: int) -> int:
        return 2 * y - 2 if x == y else 2 * y - 1

    def px(self) -> np.ndarray:
        """x-marginal kernel: x -> y ~ X=x, then x' ~ Y=y."""
        N = self.N
        P = np.zeros((N, N))
        for x in range(1, N + 1):
            i = x - 1
            # through y = x
            P[i, i] += self.stay_x[i] * self.stay_y[i]
            if x < N:
                P[i, i + 1] += self.stay_x[i] * self.up_y[i]
            # through y = x - 1
            if x > 1:
                P[i, i - 1] += self.down_x[i] * self.stay_y[i - 1]
                P[i, i] += self.down_x[i] * self.up_y[i - 1]
        return P

    def rgs(self, scan_p: float) -> np.ndarray:
        """Random scan: refresh x with probability scan_p, else y."""
        N, s = self.N, scan_p
        P = np.zeros((2 * N - 1, 2 * N - 1))
        for i, (x, y) in enumerate(self.states):
            P[i, self.index(y, y)] += s * self.stay_y[y - 1]
            if y < N:
                P[i, self.index(y + 1, y)] += s * self.up_y[y - 1]
            P[i, self.index(x, x)] += (1 - s) * self.stay_x[x - 1]
            if x > 1:
                P[i, self.index(x, x - 1)] += (1 - s) * self.down_x[x - 1]
        return P

    def dgs(self) -> np.ndarray:
        """Deterministic scan: x' ~ Y=y, then y' ~ X=x'."""
        N = self.N
        P = np.zeros((2 * N - 1, 2 * N - 1))
        for i, (_, y) in enumerate(self.states):
            moves = [(y, self.stay_y[y - 1])]
            if y < N:
                moves.append((y + 1, self.up_y[y - 1]))
            for x2, w in moves:
                P[i, self.index(x2, x2)] += w * self.stay_x[x2 - 1]
                if x2 > 1:
                    P[i, self.index(x2, x2 - 1)] += w * self.down_x[x2 - 1]
        return P

    def kernel(self, kind: str, scan_p: float = 0.5):
        """(P, pi) of a chain kind."""
        if kind == "marginal_x":
            return self.px(), self.pi_x
        if kind == "dgs":
            return self.dgs(), self.pi_xy
        return self.rgs(scan_p), self.pi_xy


def dense_gap(P: np.ndarray, pi: np.ndarray) -> tuple[float, float]:
    """(gap, resolution): 1 - second largest |eigenvalue| of D^1/2 P D^-1/2."""
    r = np.sqrt(pi)
    S = (r[:, None] * P) / r[None, :]
    S = 0.5 * (S + S.T)
    w = np.sort(np.abs(np.linalg.eigvalsh(S)))
    return float(1.0 - w[-2]), P.shape[0] * EPS


def check_gap(gap, P: np.ndarray, pi: np.ndarray) -> None:
    """Raise OracleError when a reported gap disagrees with the dense one."""
    if not (isinstance(gap, (int, float)) and math.isfinite(gap)):
        raise OracleError(f"gap {gap!r} is not a finite number")
    ref, res = dense_gap(P, pi)
    if abs(gap - ref) > GAP_RTOL * abs(ref) + res:
        raise OracleError(f"gap {gap!r} differs from dense eigvalsh {ref!r}")


# -- total variation -----------------------------------------------------------


def dense_tv(P: np.ndarray, pi: np.ndarray, start: int, n_max: int) -> np.ndarray:
    """TV to stationarity for n = 0..n_max by dense matrix powers."""
    v = np.zeros(P.shape[0])
    v[start] = 1.0
    out = np.empty(n_max + 1)
    out[0] = 0.5 * np.abs(v - pi).sum()
    for n in range(1, n_max + 1):
        v = v @ P
        out[n] = 0.5 * np.abs(v - pi).sum()
    return out


def fit_rate(values: np.ndarray):
    """Least-squares rate through log TV over the trailing half of the
    steps n >= 1 with TV above TV_FLOOR; None below five such steps."""
    usable = np.where(values > TV_FLOOR)[0]
    usable = usable[usable >= 1]
    half = usable[len(usable) // 2:]
    if len(half) < 5:
        return None
    slope, _ = np.polyfit(half, np.log(values[half]), 1)
    return min(float(np.exp(slope)), 1.0)


def check_tv_values(values: np.ndarray, n_states: int) -> None:
    """A TV curve lies in [0, 1] and never increases (up to rounding)."""
    tol = 8 * n_states * EPS
    v = np.asarray(values, dtype=float)
    if not np.isfinite(v).all():
        raise OracleError("TV curve has a non-finite value")
    if v.min() < -tol or v.max() > 1.0 + tol:
        raise OracleError(f"TV curve leaves [0, 1]: [{v.min()!r}, {v.max()!r}]")
    rise = float(np.max(np.diff(v), initial=0.0))
    if rise > tol:
        raise OracleError(f"TV curve increases by {rise!r}")


def check_tv_rate(reported: dict, P: np.ndarray, pi: np.ndarray, start: int,
                  n_max: int) -> None:
    """Compare a tvcurve JSON answer with the fit of the dense-power curve.

    The curves agree to rounding, a few n_states * eps, but the fit window
    reaches down to TV = 1e-13, where that rounding is a few per cent of the
    value; fitted rates then differ by up to about 1e-6, so RATE_TOL is 1e-5.
    """
    ref_values = dense_tv(P, pi, start, n_max)
    check_tv_values(ref_values, P.shape[0])
    ref = fit_rate(ref_values)
    rate = reported.get("rate")
    if ref is None or rate is None:
        if ref is not rate:
            raise OracleError(f"fitted rate {rate!r}, dense curve gives {ref!r}")
        return
    if abs(rate - ref) > RATE_TOL:
        raise OracleError(f"fitted rate {rate!r} differs from dense {ref!r}")
    if abs(reported["gap"] - (1.0 - rate)) > 4 * EPS:
        raise OracleError("tvcurve gap is not 1 - rate")


# -- drift certificates ------------------------------------------------------


def check_drift(cert: dict, model: DenseModel) -> None:
    """Recheck a drift certificate (JSON) at every state of the truncation.

    Marginal chain, V(x) = z^x:  E V(X_1) <= rho V(x) + L.
    Random scan with lift (s, c, gamma), W = V(x) + c G(y) where
    G(y) = E[z^X | Y = y]:  E W <= gamma W + (1 - s) c L.
    Both sides are compared in log space.
    """
    z, rho, L = float(cert["z"]), float(cert["rho"]), float(cert["L"])  # "inf" arrives as a string
    if not (z > 1.0 and 0.0 < rho < 1.0 and L > 0.0 and math.isfinite(L)):
        raise OracleError(f"certificate out of range: z={z}, rho={rho}, L={L}")
    N = model.N
    lz = math.log(z)
    x = np.arange(1, N + 1, dtype=float)
    P = model.px()
    up = np.append(np.diag(P, 1), 0.0)
    down = np.insert(np.diag(P, -1), 0, 0.0)
    stay = np.diag(P)
    # log E[z^X1 | x] = x log z + log(up z + stay + down / z)
    lhs = x * lz + np.log(up * z + stay + down / z)
    rhs = np.logaddexp(math.log(rho) + x * lz, math.log(L))
    _check_log_le(lhs, rhs, "marginal drift")

    lift = cert.get("rgs")
    if lift is None:
        return
    s, c, gamma = float(lift["scan_p"]), float(lift["c"]), float(lift["gamma"])
    if not (s / (1 - s) < c < s / (rho * (1 - s)) and rho < gamma < 1.0):
        raise OracleError(f"lift out of range: s={s}, c={c}, gamma={gamma}")
    const = (1.0 - s) * c * L
    if not math.isclose(float(lift["bound_constant"]), const, rel_tol=1e-12):
        raise OracleError("bound_constant is not (1 - s) c L")
    # log G(y) = y log z + log(stay_y + up_y z)
    lG = x * lz + np.log(model.stay_y + model.up_y * z)
    lhs, rhs = [], []
    for (xs, ys) in model.states:
        i, j = xs - 1, ys - 1
        lV = xs * lz
        lW = np.logaddexp(lV, math.log(c) + lG[j])
        # x-update: X' ~ Y = y, so E z^X' = G(y); y unchanged
        x_upd = np.logaddexp(lG[j], math.log(c) + lG[j])
        # y-update: Y' in {x-1, x}, x unchanged
        terms = [math.log(model.stay_x[i]) + lG[i]]
        if xs > 1 and model.down_x[i] > 0.0:
            terms.append(math.log(model.down_x[i]) + lG[i - 1])
        y_upd = np.logaddexp(lV, math.log(c) + np.logaddexp.reduce(terms))
        lhs.append(np.logaddexp(math.log(s) + x_upd, math.log(1 - s) + y_upd))
        rhs.append(np.logaddexp(math.log(gamma) + lW, math.log(const)))
    _check_log_le(np.array(lhs), np.array(rhs), "random-scan drift")


def _check_log_le(lhs: np.ndarray, rhs: np.ndarray, what: str) -> None:
    tol = 64 * EPS * np.maximum(1.0, np.abs(rhs))
    excess = lhs - rhs - tol
    k = int(np.argmax(excess))
    if excess[k] > 0.0:
        raise OracleError(f"{what} fails at state {k + 1}: "
                          f"log excess {float(lhs[k] - rhs[k])!r}")


# -- simulation ----------------------------------------------------------------


def reference_chain(fam, kind: str, chain_id: int, seed: int, init, n_steps: int,
                    scan_p: float | None = None) -> list:
    """States after steps 1..n_steps, drawing one scalar uniform at a time.

    Streams: Philox(SeedSequence((seed, chain_id))). Per step, marginal_x
    draws u and moves up when u < p_x, down when u < p_x + q_x; dgs draws
    u1 (x' = y + 1 when u1 < beta_y) then u2 (y' = x' - 1 when u2 <
    delta_x'); rgs draws u1 (x-update when u1 < scan_p) then u2 for the
    coordinate that moves.
    """
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence((int(seed), chain_id))))
    p, q = fam.p.tolist(), fam.q.tolist()
    beta, delta = fam.beta.tolist(), fam.delta.tolist()
    out = []
    if kind == "marginal_x":
        x = int(init)
        for _ in range(n_steps):
            u = rng.random()
            if u < p[x - 1]:
                x += 1
            elif u < p[x - 1] + q[x - 1]:
                x -= 1
            out.append(x)
        return out
    x, y = init
    for _ in range(n_steps):
        u1, u2 = rng.random(), rng.random()
        if kind == "dgs":
            x = y + 1 if u1 < beta[y - 1] else y
            y = x - 1 if u2 < delta[x - 1] else x
        elif u1 < scan_p:
            x = y + 1 if u2 < beta[y - 1] else y
        else:
            y = x - 1 if u2 < delta[x - 1] else x
        out.append((x, y))
    return out


def reference_ensemble(fam, chain_id: int, seed: int, n_chains: int, init: int,
                       n_steps: int, threshold: int):
    """(final states, per-chain mean of 1(x >= threshold)) of marginal chains
    run in lockstep; step j hands uniforms j*n_chains .. to chains 0, 1, ..."""
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence((int(seed), chain_id))))
    p, q = fam.p.tolist(), fam.q.tolist()
    xs = [int(init)] * n_chains
    hits = [0] * n_chains
    for _ in range(n_steps):
        for k in range(n_chains):
            u = rng.random()
            x = xs[k]
            if u < p[x - 1]:
                x += 1
            elif u < p[x - 1] + q[x - 1]:
                x -= 1
            xs[k] = x
            hits[k] += x >= threshold
    return xs, [h / n_steps for h in hits]


def batch_means_ref(values) -> dict:
    """g_bar, mcse and batch size by non-overlapping batches of floor(sqrt n)."""
    v = np.asarray(values, dtype=float)
    n = v.size
    b = max(1, int(math.isqrt(n)))
    m = n // b
    means = v[: m * b].reshape(m, b).mean(axis=1)
    sigma2 = b * float(np.var(means, ddof=1))
    return {"g_bar": float(v.mean()), "mcse": math.sqrt(sigma2 / n),
            "batch_size": b, "n": n}


def check_batch_means(reported: dict, values) -> None:
    ref = batch_means_ref(values)
    if reported["batch_size"] != ref["batch_size"] or reported["n"] != ref["n"]:
        raise OracleError(f"batch layout {reported} differs from {ref}")
    for key in ("g_bar", "mcse"):
        if not math.isclose(reported[key], ref[key], rel_tol=1e-9, abs_tol=1e-15):
            raise OracleError(f"{key} {reported[key]!r} differs from {ref[key]!r}")
