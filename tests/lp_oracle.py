"""Exact linear-programming oracle for tiny transport instances."""

import numpy as np
from scipy.optimize import linprog

from otcd.solver import _validate_cost

_LP_MAX_CELLS = 400


def lp_exact_small(C: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact un-regularized optimum ``min <P, C>`` over the transport
    polytope with uniform marginals, for test-oracle use on instances with
    at most 400 cells. Solved as an explicit LP (HiGHS).
    """
    C = _validate_cost(C)
    n0, n1 = C.shape
    if n0 * n1 > _LP_MAX_CELLS:
        raise ValueError(
            f"instance {n0}x{n1} exceeds the {_LP_MAX_CELLS}-cell oracle limit"
        )

    A_eq = np.zeros((n0 + n1, n0 * n1))
    for i in range(n0):
        A_eq[i, i * n1 : (i + 1) * n1] = 1.0
    for j in range(n1):
        A_eq[n0 + j, j::n1] = 1.0
    b_eq = np.concatenate([np.full(n0, 1.0 / n0), np.full(n1, 1.0 / n1)])
    res = linprog(C.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return float(res.fun), res.x.reshape(n0, n1)
