"""Plain bisection for the saddle point, the test oracle for series.saddle_point.

Evaluates g'(s) + n at every bracket and bisection point, with no root
located first, and g0..g3 by one g_eval call each.
"""

from itermap.series import SaddleReport, g_eval


def saddle_point(n: int, rel_tol: float = 1e-10) -> SaddleReport:
    """Minimize n s + g(s) by bisection on g'(s) + n = 0."""
    s0 = 0.5 * n ** (-2.0 / 3.0)
    lo, hi = s0 / 4, min(4 * s0, 1.0)
    for _ in range(8):
        if g_eval(lo, 1) + n < 0:
            break
        lo /= 4
    else:
        raise RuntimeError("saddle bracket failure")
    for _ in range(8):
        if g_eval(hi, 1) + n > 0:
            break
        hi = min(4 * hi, 1.0)
        if hi >= 1.0 and g_eval(hi, 1) + n <= 0:
            raise RuntimeError("saddle bracket failure")
    else:
        raise RuntimeError("saddle bracket failure")
    while hi - lo > rel_tol * s0:
        mid = 0.5 * (lo + hi)
        if g_eval(mid, 1) + n < 0:
            lo = mid
        else:
            hi = mid
    s_star = 0.5 * (lo + hi)
    g0 = g_eval(s_star, 0)
    g1 = g_eval(s_star, 1)
    g2 = g_eval(s_star, 2)
    g3 = g_eval(s_star, 3)
    return SaddleReport(
        n=n,
        s_star=s_star,
        g0=g0,
        g1=g1,
        g2=g2,
        g3=g3,
        A_n=g2,
        rankin_log_value=n * s_star + g0,
        s_ratio=s_star * 2 * n ** (2.0 / 3.0),
        A_ratio=g2 / (3 * n ** (5.0 / 3.0)),
        g3_ratio=abs(g3) / (15 * n ** (7.0 / 3.0)),
        odlyzko_ok=abs(g3) <= g2**1.5,
    )
