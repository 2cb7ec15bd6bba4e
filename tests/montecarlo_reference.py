"""The chi-square test of the sampler's Z counts, a test oracle for montecarlo.

Only the tests grade the Z counts of montecarlo.run_experiment against
the exact pmf, so the test and its scipy import live here, and the
sampler itself needs no scipy.
"""

import numpy as np
from scipy.special import gammaincc

from itermap.mapping import CeilingError

GOF_MIN_EXPECTED = 5.0  # least expected count of a pooled chi-square bin


def z_gof(z_counts: np.ndarray, pmf) -> tuple[float, float]:
    """Pearson chi-square of observed Z counts against the pmf of m = 1..n.

    Consecutive m are pooled (ascending, remainder merged into the last
    bin) until every retained bin expects at least GOF_MIN_EXPECTED counts.
    Returns (chi2, p-value from the regularized upper incomplete gamma).
    """
    counts = np.asarray(z_counts[1:], dtype=np.float64)  # m = 1..n
    n = counts.size
    samples = counts.sum()
    expected = np.array([float(p) for p in pmf]) * samples

    obs_bins: list[float] = []
    exp_bins: list[float] = []
    co = ce = 0.0
    for m in range(n):
        co += counts[m]
        ce += expected[m]
        if ce >= GOF_MIN_EXPECTED:
            obs_bins.append(co)
            exp_bins.append(ce)
            co = ce = 0.0
    if ce > 0 or co > 0:
        if exp_bins:
            obs_bins[-1] += co
            exp_bins[-1] += ce
        else:
            obs_bins.append(co)
            exp_bins.append(ce)
    if len(exp_bins) < 2:
        raise CeilingError("insufficient data")
    obs = np.array(obs_bins)
    exp = np.array(exp_bins)
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    df = len(exp) - 1
    pvalue = float(gammaincc(df / 2.0, chi2 / 2.0))
    return chi2, pvalue
