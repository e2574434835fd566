"""Change of basis for bicubic patches.

For two bases with matrices M_f and M_t, equality of the evaluated curve
c_f^T M_f t = c_t^T M_t t for all t forces c_t^T = c_f^T (M_f M_t^-1).  The
change-of-basis matrices are therefore derived, exactly, from the basis
matrices themselves, and validated by evaluation invariance.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import algebra
from .patch import BASIS_EXACT, Basis, GeometricPatch


@lru_cache(maxsize=None)
def conversion_matrix_exact(src: Basis, dst: Basis) -> np.ndarray:
    """Exact rational change-of-basis matrix M_src @ M_dst^-1, read-only (cached)."""
    return algebra.fraction_matrix(BASIS_EXACT[src] @ algebra.mat_inverse_exact(BASIS_EXACT[dst]))


def conversion_matrix(src: Basis, dst: Basis) -> np.ndarray:
    """Float change-of-basis matrix; controls map as c_dst^T = c_src^T @ C."""
    return conversion_matrix_exact(src, dst).astype(float)


def convert_controls(controls: np.ndarray, src: Basis, dst: Basis) -> np.ndarray:
    """Control matrices (..., 4, 4) in basis src, re-expressed in basis dst.

    Each matrix maps as X_dst = C^T @ X_src @ C with C = conversion_matrix(src,
    dst); evaluation is unchanged.  The same basis gives a copy, because the
    identity product would turn -0.0 into 0.0.
    """
    if src is dst:
        return np.array(controls, dtype=float)
    c = conversion_matrix(src, dst)
    with np.errstate(over="ignore", invalid="ignore"):  # callers reject inf and nan
        return c.T @ controls @ c


def convert_patch(patch: GeometricPatch, dst: Basis) -> GeometricPatch:
    """Re-express a patch in another basis (see convert_controls)."""
    return GeometricPatch(*convert_controls(np.stack(patch.coords()), patch.basis, dst), dst)
