"""Decay orders read off Taylor coefficients, where the order is the claim."""

import numpy as np

# a Taylor coefficient at or below this counts as zero
_ORDER_FLOOR = 1e-6


def decay_order(coeffs):
    """Index of the first coefficient whose largest entry exceeds the floor,
    or len(coeffs) when none does: f = O(ε^k) with coefficients c_0, c_1, ...
    reads k.  Pass only the rows the claim names; higher contour rows carry
    roundoff amplified by r^-k."""
    for k, c in enumerate(coeffs):
        if np.max(np.abs(c)) > _ORDER_FLOOR:
            return k
    return len(coeffs)
