"""Modified Bessel function of the second kind, order 1/4.

The sum-frequency density of two order-4 flat-top filters has a closed form
proportional to |x| 2^(7x^4) K_{1/4}(9 ln2 x^4), so this one fractional order
is needed over a wide argument range. It is evaluated exponentially scaled,
by scipy's ``kve`` (Amos, ACM TOMS 12:265, 1986), accurate to about 1e-14
relative over [1e-6, 700]; the scaled value never under- or overflows where
K_{1/4} itself underflows past x ~ 745. ``kve`` is imported on the first
call, so only the order-4 closed form loads scipy.special; importing this
module does not.
"""

from __future__ import annotations

import numpy as np

NU = 0.25

__all__ = ["bessel_k_quarter_scaled"]


def bessel_k_quarter_scaled(x):
    """e^x K_{1/4}(x) for x > 0; scalar or array. Never under- or overflows."""
    arr = np.asarray(x, dtype=float)
    bad = arr[~(arr > 0.0)]
    if bad.size:
        raise ValueError(f"K_{{1/4}} needs a positive argument, got {bad[0]}")
    from scipy.special import kve
    out = kve(NU, arr)
    return float(out) if arr.ndim == 0 else out

