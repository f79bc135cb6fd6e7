"""Conjugate gradients for the SPD mass systems, kept as a slow reference.

The stepper applies the tensor-product mass inverse P directly, so nothing
in the package calls pcg. The tests use it as the independent oracle for P:
preconditioned with an exact P it takes one iteration, and it reaches the
same relative residual with a merely spectrally equivalent one. The
benchmark's traced run hooks pcg here by name.
"""

import numpy as np

from .errors import NumericalError

RTOL = 1e-12  # the relative residual every solve reaches


def pcg(A, b, precond, maxiter: int = 2000):
    """Solve A x = b for SPD A by conjugate gradients preconditioned with z = precond(r).

    precond must return a new array and approximate A^{-1} by an SPD map.
    Starts from x = 0, so the first iterate is alpha * p, and stops when the
    recursive residual satisfies ||r|| <= RTOL * ||b||. Returns (x, achieved
    relative residual); NumericalError as soon as r.z or ||r|| is not finite.
    """
    b = np.asarray(b, dtype=float)
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return np.zeros_like(b), 0.0
    # An overflowing norm would make RTOL*nb infinite and declare any
    # iterate converged; refuse data outside the representable range.
    if not np.isfinite(nb):
        raise NumericalError("CG right-hand side norm is not finite")
    x = None
    r = b.copy()
    z = precond(r)
    p = z
    rz = float(r @ z)
    tol = RTOL * nb
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
        f"CG failed to reach rtol={RTOL:g} within {maxiter} iterations; "
        f"achieved relative residual {res / nb:.3e}"
    )
