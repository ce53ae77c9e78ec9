"""Central finite differences and the relative error the gradient tests compare with.

The analytic gradients of the energy nets, the segmenter, the CD
surrogate and the GLM score are checked against these.
"""
import numpy as np

from langaug.errors import ConfigError, NumericError


def finite_diff_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function at x."""
    x = np.asarray(x, dtype=np.float64)
    return finite_diff_grad_subset(f, x, range(x.size), h).reshape(x.shape)


def finite_diff_grad_subset(f, x: np.ndarray, coords, h: float = 1e-5) -> np.ndarray:
    """Central differences at selected flat coordinates only (spot checks)."""
    if h <= 0:
        raise ConfigError(f"finite difference step must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(len(coords))
    for k, d in enumerate(coords):
        xp = x.copy().ravel()
        xm = x.copy().ravel()
        xp[d] += h
        xm[d] -= h
        fp = float(f(xp.reshape(x.shape)))
        fm = float(f(xm.reshape(x.shape)))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"non-finite function value while probing coordinate {d}")
        out[k] = (fp - fm) / (2.0 * h)
    return out


def relative_error(analytic: np.ndarray, reference: np.ndarray, floor: float = 1e-6) -> float:
    """Max relative error over components whose reference magnitude exceeds floor."""
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    reference = np.asarray(reference, dtype=np.float64).ravel()
    mask = np.abs(reference) > floor
    if not mask.any():
        return float(np.max(np.abs(analytic - reference), initial=0.0))
    return float(np.max(np.abs(analytic[mask] - reference[mask]) / np.abs(reference[mask])))
