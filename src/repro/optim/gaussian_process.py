"""Minimal Gaussian-process regression used by the BO and MACE baselines.

scipy (the package's ``bo`` extra) supplies the Cholesky solves and the
normal distribution.  It is imported inside the functions that use it, so
the rest of the package, GCN-RL and the other baselines included, runs with
numpy alone.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class GaussianProcess:
    """GP regression with an RBF (squared-exponential) kernel.

    The hyper-parameters (length scale, signal variance, noise) are fit with
    a small grid search over the marginal likelihood, which is robust and
    cheap for the few-hundred-sample datasets these baselines see.
    """

    def __init__(
        self,
        length_scale: float = 0.5,
        signal_variance: float = 1.0,
        noise: float = 1e-3,
    ):
        self.length_scale = length_scale
        self.signal_variance = signal_variance
        self.noise = noise
        self._x: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._cho = None
        self._alpha: Optional[np.ndarray] = None

    @staticmethod
    def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (
            np.sum(a**2, axis=1)[:, None]
            + np.sum(b**2, axis=1)[None, :]
            - 2.0 * a @ b.T
        )

    def _kernel_from_sq_dist(self, sq_dist: np.ndarray) -> np.ndarray:
        return self.signal_variance * np.exp(
            -0.5 * np.maximum(sq_dist, 0.0) / self.length_scale**2
        )

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._kernel_from_sq_dist(self._sq_dist(a, b))

    def _log_marginal(self, sq_dist: np.ndarray, y: np.ndarray) -> float:
        from scipy.linalg import cho_factor, cho_solve

        k = self._kernel_from_sq_dist(sq_dist) + self.noise * np.eye(len(y))
        try:
            cho = cho_factor(k, lower=True)
        except np.linalg.LinAlgError:
            return -np.inf
        alpha = cho_solve(cho, y)
        log_det = 2.0 * np.sum(np.log(np.diag(cho[0])))
        return float(-0.5 * y @ alpha - 0.5 * log_det - 0.5 * len(y) * np.log(2 * np.pi))

    def fit(self, x: np.ndarray, y: np.ndarray, tune: bool = True) -> "GaussianProcess":
        """Fit the GP to data, optionally tuning hyper-parameters by grid search.

        The pairwise squared-distance matrix only depends on the data, not on
        the hyper-parameters, so it is computed once and shared by all grid
        combinations and the final fit.
        """
        from scipy.linalg import cho_factor, cho_solve

        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        self._y_mean = float(np.mean(y))
        self._y_std = float(np.std(y)) or 1.0
        y_norm = (y - self._y_mean) / self._y_std
        sq_dist = self._sq_dist(x, x)

        if tune and len(x) >= 5:
            best = (-np.inf, self.length_scale, self.noise)
            for length_scale in (0.2, 0.4, 0.8, 1.5, 3.0):
                for noise in (1e-4, 1e-3, 1e-2):
                    self.length_scale, self.noise = length_scale, noise
                    score = self._log_marginal(sq_dist, y_norm)
                    if score > best[0]:
                        best = (score, length_scale, noise)
            _, self.length_scale, self.noise = best

        k = self._kernel_from_sq_dist(sq_dist) + self.noise * np.eye(len(x))
        self._cho = cho_factor(k + 1e-10 * np.eye(len(x)), lower=True)
        self._alpha = cho_solve(self._cho, y_norm)
        self._x, self._y = x, y_norm
        return self

    def predict(self, x_new: np.ndarray):
        """Posterior mean and standard deviation at the query points."""
        from scipy.linalg import cho_solve

        if self._x is None:
            raise RuntimeError("predict called before fit")
        x_new = np.asarray(x_new, dtype=float)
        k_star = self._kernel(x_new, self._x)
        mean = k_star @ self._alpha
        v = cho_solve(self._cho, k_star.T)
        var = self.signal_variance + self.noise - np.sum(k_star * v.T, axis=1)
        std = np.sqrt(np.maximum(var, 1e-12))
        return mean * self._y_std + self._y_mean, std * self._y_std


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.01
) -> np.ndarray:
    """Expected improvement acquisition (maximisation convention)."""
    from scipy.stats import norm

    std = np.maximum(std, 1e-12)
    z = (mean - best - xi) / std
    return (mean - best - xi) * norm.cdf(z) + std * norm.pdf(z)


def probability_of_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.01
) -> np.ndarray:
    """Probability-of-improvement acquisition (maximisation convention)."""
    from scipy.stats import norm

    std = np.maximum(std, 1e-12)
    return norm.cdf((mean - best - xi) / std)


def upper_confidence_bound(
    mean: np.ndarray, std: np.ndarray, kappa: float = 2.0
) -> np.ndarray:
    """Upper confidence bound acquisition (maximisation convention)."""
    return mean + kappa * std
