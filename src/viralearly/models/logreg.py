"""L2-regularized weighted logistic regression, fit by damped Newton steps.

The objective is the weighted *mean* log-loss plus an L2 penalty on the
coefficients (never the intercept):

    J(w, b) = (1/n) sum_i s_i * logloss_i + (1/(2C)) * ||w||^2

Using the mean makes the fit invariant to duplicating every row, and with
"balanced" class weights s_i = n / (2 * n_class) the two classes contribute
equal total mass.
"""

from __future__ import annotations

import numpy as np

from ..ingest import read_int, read_list, read_number
from ._common import balanced_sample_weights, check_training_data, logloss_terms, sigmoid


class LogisticModel:
    kind = "logreg"

    def __init__(self, coef: np.ndarray, intercept: float, n_iter: int, grad_norm: float):
        self.coef = np.asarray(coef, dtype=np.float64)
        self.intercept = float(intercept)
        self.n_iter = n_iter
        self.grad_norm = grad_norm

    @property
    def n_features(self) -> int:
        return len(self.coef)

    @property
    def importances(self) -> np.ndarray:
        return np.abs(self.coef)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.coef + self.intercept

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self.decision_function(X))

    def to_payload(self) -> dict:
        return {
            "coef": self.coef.tolist(),
            "intercept": self.intercept,
            "n_iter": self.n_iter,
            "grad_norm": self.grad_norm,
        }

    @classmethod
    def from_payload(cls, payload) -> "LogisticModel":
        return cls(
            np.array(payload.read("coef", read_list, item=read_number), dtype=np.float64),
            payload.read("intercept", read_number),
            payload.read("n_iter", read_int),
            payload.read("grad_norm", read_number),
        )


def fit_logreg(
    X,
    y,
    C: float = 1.0,
    class_weight: str | None = "balanced",
    tol: float = 1e-6,
    max_iter: int = 10_000,
) -> LogisticModel:
    """Fit until the full objective gradient norm drops below ``tol``."""
    X, y = check_training_data(X, y)
    n, d = X.shape
    if class_weight == "balanced":
        s = balanced_sample_weights(y)
    else:
        s = np.ones(n)
    lam = 1.0 / C

    theta = np.zeros(d + 1)  # coefficients then intercept

    def loss_grad_hess(theta):
        w, b = theta[:d], theta[d]
        z = X @ w + b
        p = sigmoid(z)
        loss = float(np.mean(s * logloss_terms(z, y))) + 0.5 * lam * float(w @ w)
        r = s * (p - y) / n
        grad = np.concatenate([X.T @ r + lam * w, [r.sum()]])
        return loss, grad, p

    loss, grad, p = loss_grad_hess(theta)
    it = 0
    while np.linalg.norm(grad) >= tol and it < max_iter:
        a = s * p * (1.0 - p) / n
        # Hessian in block form; intercept row/column from the same weights.
        H = np.empty((d + 1, d + 1))
        Xa = X * a[:, None]
        H[:d, :d] = X.T @ Xa + lam * np.eye(d)
        H[:d, d] = Xa.sum(axis=0)
        H[d, :d] = H[:d, d]
        H[d, d] = a.sum() + 1e-12
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            step = grad
        # Backtracking keeps Newton globally convergent on this convex loss.
        t = 1.0
        for _ in range(50):
            cand = theta - t * step
            new_loss, new_grad, new_p = loss_grad_hess(cand)
            if new_loss <= loss - 1e-4 * t * float(grad @ step):
                theta, loss, grad, p = cand, new_loss, new_grad, new_p
                break
            t *= 0.5
        else:
            theta = theta - t * step
            loss, grad, p = loss_grad_hess(theta)
        it += 1

    return LogisticModel(theta[:d], theta[d], n_iter=it, grad_norm=float(np.linalg.norm(grad)))
