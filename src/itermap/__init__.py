"""Exact and asymptotic statistics of iterated functions on a finite set.

T(f) is the eventual period of the iterate sequence f, f^2, f^3, ...
(the lcm of the cycle lengths of the functional graph), B(f) the product
of the cycle lengths, and O(f) the number of distinct iterates.  The
package computes these per function, their exact expectations under the
uniform measure at desk scale, and the asymptotic estimates of both,
cross-validated by brute-force enumeration and Monte-Carlo sampling.
"""

from .mapping import Mapping, PeriodStats, parse_mapping, analyze

__all__ = [
    "Mapping",
    "PeriodStats",
    "parse_mapping",
    "analyze",
]
