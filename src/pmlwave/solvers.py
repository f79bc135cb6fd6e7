"""Iterative solve for the SPD mass systems.

Hand-rolled preconditioned CG: the callers supply a preconditioner that is
exact or nearly exact (the tensor-product mass inverse), so a solve takes
one iteration, while CG keeps a fixed relative-residual contract and the
achieved residual in failure reports for any positive weight.
"""

import numpy as np

from .errors import NumericalError


def pcg(A, b, precond, rtol: float = 1e-12, maxiter: int = 2000):
    """Solve A x = b for SPD A by conjugate gradients preconditioned with z = precond(r).

    precond must return a new array and approximate A^{-1} by an SPD map.
    Starts from x = 0, so the first iterate is alpha * p, and stops when the
    recursive residual satisfies ||r|| <= rtol * ||b||. Returns (x, achieved
    relative residual); NumericalError as soon as r.z or ||r|| is not finite.
    """
    b = np.asarray(b, dtype=float)
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return np.zeros_like(b), 0.0
    # An overflowing norm would make rtol*nb infinite and declare any
    # iterate converged; refuse data outside the representable range.
    if not np.isfinite(nb):
        raise NumericalError("CG right-hand side norm is not finite")
    x = None
    r = b.copy()
    z = precond(r)
    p = z
    rz = float(r @ z)
    tol = rtol * nb
    res = nb
    for it in range(1, maxiter + 1):
        Ap = A @ p
        alpha = rz / float(p @ Ap)
        if x is None:
            x = alpha * p
        else:
            x += alpha * p
        r -= alpha * Ap
        res = np.linalg.norm(r)
        if res <= tol:
            return x, res / nb
        z = precond(r)
        rz_new = float(r @ z)
        if not (np.isfinite(res) and np.isfinite(rz_new)):
            raise NumericalError(f"CG residual became non-finite at iteration {it}")
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NumericalError(
        f"CG failed to reach rtol={rtol:g} within {maxiter} iterations; "
        f"achieved relative residual {res / nb:.3e}"
    )
