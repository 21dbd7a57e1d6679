"""Monte Carlo resolution and effective sample size, used by the gates.

The benchmark keeps these apart from covbvm so that its checks do not rely on
the code they check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats


def dkw(m: float, alpha: float) -> float:
    """Half-width of the DKW band: sqrt(log(2/alpha) / (2m)).

    A one-sample Kolmogorov distance over m i.i.d. draws exceeds it with
    probability at most alpha (Massart 1990).
    """
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * m))


def dkw2(m1: float, m2: float, alpha: float) -> float:
    """The two-sample analogue: sqrt(log(2/alpha) / 2 * (1/m1 + 1/m2))."""
    return math.sqrt(math.log(2.0 / alpha) / 2.0 * (1.0 / m1 + 1.0 / m2))


def _autocovariance(chains: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row, through a zero-padded FFT."""
    n = chains.shape[1]
    centered = chains - chains.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centered, size, axis=1)
    return np.fft.irfft(spec * np.conj(spec), size, axis=1)[:, :n] / n


def _ess(chains: np.ndarray) -> float:
    """ESS of an (m, n) array of chains, Geyer's initial monotone sequence."""
    m, n = chains.shape
    acov = _autocovariance(chains)
    mean_var = float(np.mean(acov[:, 0])) * n / (n - 1)
    var_plus = mean_var * (n - 1) / n
    if m > 1:
        var_plus += float(np.var(chains.mean(axis=1), ddof=1))
    if var_plus <= 0:
        return float(m * n)
    rho = np.zeros(n)
    rho[0] = 1.0
    rho_even = 1.0
    rho_odd = 1.0 - (mean_var - float(np.mean(acov[:, 1]))) / var_plus
    rho[1] = rho_odd
    t = 1
    while t < n - 3 and rho_even + rho_odd > 0:
        rho_even = 1.0 - (mean_var - float(np.mean(acov[:, t + 1]))) / var_plus
        rho_odd = 1.0 - (mean_var - float(np.mean(acov[:, t + 2]))) / var_plus
        if rho_even + rho_odd >= 0:
            rho[t + 1] = rho_even
            rho[t + 2] = rho_odd
        t += 2
    max_t = t - 2
    if rho[max_t + 1] > 0:
        max_t += 1
    # make the sums of adjacent pairs non-increasing
    t = 1
    while t <= max_t - 2:
        pair = rho[t + 1] + rho[t + 2]
        if pair > rho[t - 1] + rho[t]:
            rho[t + 1] = rho[t + 2] = (rho[t - 1] + rho[t]) / 2.0
        t += 2
    tau = -1.0 + 2.0 * float(np.sum(rho[: max_t + 1])) + float(np.sum(rho[max_t + 1 : max_t + 2]))
    tau = max(tau, 1.0 / math.log10(m * n))
    return m * n / tau


def bulk_ess(values) -> float:
    """Bulk effective sample size of one chain (Vehtari et al. 2021).

    The chain is split in halves, the draws are rank-normalized, and the ESS
    of the normal scores is estimated with Geyer's initial monotone sequence.
    """
    x = np.asarray(values, dtype=np.float64)
    half = len(x) // 2
    chains = np.stack([x[:half], x[half : 2 * half]])
    ranks = stats.rankdata(chains, method="average").reshape(chains.shape)
    z = stats.norm.ppf((ranks - 0.375) / (chains.size + 0.25))
    return _ess(z)
