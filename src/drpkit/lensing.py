"""Linear-Gaussian source-reconstruction benchmark with reverse-SDE samplers.

The forward model is x ~ N(A theta, sigma_n^2 I) with a structured Gaussian
prior theta ~ N(mu_0, Sigma_0) over source pixels and a synthetic warp operator
A mapping source to observation pixels. Posterior samples are generated by
integrating the reverse variance-exploding SDE with Euler-Maruyama, driven by
the analytic time-dependent prior score plus one of two likelihood scores:

* "exact": the time-t likelihood is tractable for a Gaussian prior,
  N(x | A m_c(theta), sigma_n^2 I + A Sigma_c A^T) with
  Sigma_c = (Sigma_0^-1 + sigma_t^-2 I)^-1 and
  m_c(theta) = Sigma_c (sigma_t^-2 theta + Sigma_0^-1 mu_0).
  Prior plus likelihood score is then the score of the diffused posterior
  N(mu_post(x), Sigma_post + sigma_t^2 I), which makes the sampler unbiased
  (the closed-form conjugate posterior is the oracle for this);
* "biased": the convolution-free approximation
  N(x | A theta, sigma_n^2 I + sigma_t^2 A A^T), whose accumulated error is the
  detectable bias the coverage tests are meant to expose.

The noise scale follows the geometric schedule sigma_t = sigma_min
(sigma_max/sigma_min)^t, so g^2(t) = d sigma_t^2/dt = 2 sigma_t^2
ln(sigma_max/sigma_min); :class:`VeSchedule` alone computes both.

The model computes three eigenbases once: U of the prior covariance, W of the
Gram matrix B^T B with B = A U (the biased likelihood score is diagonal there),
and V of the posterior precision in U (the exact drift is diagonal there).
Every Euler-Maruyama step is affine in the state plus fresh Gaussian noise, so
the chain's output given x is exactly Gaussian, with a mean affine in x and a
covariance free of x. The samplers draw from that law instead of stepping. It
costs O(steps D) plus one D x D product per (model, schedule) for the exact
kind and four D x D products per step for the biased kind, whose covariance and
gain are carried in W; a simulation then costs one (n, D) block of standard
normals and one (n, D) x (D, D) product. The scores live only in that law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coverage import JointSampleSet, PosteriorSampler, PriorDraw, _simulated_set
from .numerics import SeededRng, _check_int, _check_positive, cholesky, DecompositionError

SCORE_KINDS = ("exact", "biased")

_OPERATOR_TAG = "operator"
_PRIOR_TAG = "prior"
_SIM_TAG = "lensing-sim"

_WARP_CENTER = (0.42, 0.57)
_WARP_CENTER_JITTER = 0.06
_WARP_POWER = 1.9
_MAX_CONDITION = 1e4

_PRIOR_JITTER = 1e-4
_BUMP_AMPLITUDE = 3.0
_BUMP_WIDTH = 0.25
_BUMP_CENTER = (0.45, 0.45)
_BUMP_CENTER_JITTER = 0.05


class OperatorError(ValueError):
    """The constructed forward operator is unusable (rank/conditioning)."""


class PriorError(ValueError):
    """The constructed prior covariance is not positive definite."""


class DivergenceError(RuntimeError):
    """The reverse-SDE law became non-finite; ``step`` is the failing step index."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class VeSchedule:
    """Geometric variance-exploding noise schedule on t in [0, 1]."""

    sigma_min: float = 0.01
    sigma_max: float = 100.0
    steps: int = 300

    def __post_init__(self):
        if not 0 < self.sigma_min < self.sigma_max < math.inf:
            raise ValueError(f"need 0 < sigma_min < sigma_max < inf, got ({self.sigma_min}, {self.sigma_max})")
        _check_int(self.steps, "steps", 1)

    def sigma(self, t):
        """sigma_t at a time, or elementwise at an array of times, in [0, 1]."""
        t = np.asarray(t, dtype=float)
        if not ((0.0 <= t) & (t <= 1.0)).all():
            raise ValueError(f"t must be in [0, 1], got {t}")
        return self.sigma_min * (self.sigma_max / self.sigma_min) ** t

    def g_squared(self, t):
        """d(sigma_t^2)/dt for the geometric schedule, like :meth:`sigma` on arrays."""
        return 2.0 * self.sigma(t) ** 2 * math.log(self.sigma_max / self.sigma_min)


def _square_side(n_pixels: int, what: str) -> int:
    side = int(round(math.sqrt(n_pixels)))
    if side * side != n_pixels or side < 2:
        raise ValueError(f"{what} must be a square pixel count >= 4, got {n_pixels}")
    return side


def _pixel_grid(side: int) -> np.ndarray:
    ax = np.linspace(0.0, 1.0, side)
    return np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)


def build_operator(dim_theta: int, dim_x: int, seed: int = 0) -> np.ndarray:
    """Forward operator mapping dim_theta source pixels to dim_x observation pixels.

    Each observation pixel is a convex bilinear combination of at most four
    source pixels under a fixed off-center radial warp (per-ray power law,
    mapping the unit box onto itself so every source pixel is covered at any
    grid size); the warp center is jittered from the seed. Full column rank
    and condition number below 1e4 are verified at construction.
    """
    if dim_x < dim_theta:
        raise ValueError(f"need dim_x >= dim_theta, got {dim_x} < {dim_theta}")
    s_side = _square_side(dim_theta, "dim_theta")
    o_side = _square_side(dim_x, "dim_x")
    g = SeededRng(seed).substream(_OPERATOR_TAG).generator()
    # all pixels at once; hypot and the power stay per element on Python floats,
    # whose last bits numpy's hypot and power do not always match
    center = np.asarray(_WARP_CENTER) + g.uniform(-_WARP_CENTER_JITTER, _WARP_CENTER_JITTER, 2)
    w = np.stack(np.divmod(np.arange(dim_x), o_side), axis=1) / (o_side - 1) - center
    r = np.array(list(map(math.hypot, *w.T.tolist())))[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # r = 0 stays at the center
        d = w / r
        # distance from the center to the unit-box boundary along d
        tb = np.where(d > 0, (1.0 - center) / d, np.where(d < 0, center / -d, math.inf))
        tb = tb.min(axis=1, keepdims=True)
        power = np.array([v ** _WARP_POWER for v in np.minimum(r / tb, 1.0).ravel().tolist()])[:, None]
    src = np.clip(np.where(r > 0.0, center + d * tb * power, center), 0.0, 1.0) * (s_side - 1)
    ij = np.minimum(src.astype(int), s_side - 2)
    (fi, fj), (i0, j0) = (src - ij).T, ij.T
    cols = (i0 * s_side + j0)[:, None] + [0, 1, s_side, s_side + 1]
    weights = np.stack([(1 - fi) * (1 - fj), (1 - fi) * fj, fi * (1 - fj), fi * fj], axis=1)
    A = np.zeros((dim_x, dim_theta))
    A[np.arange(dim_x)[:, None], cols] = weights  # a row's four columns are distinct

    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] <= 0:
        raise OperatorError(f"operator is rank deficient for seed {seed}; re-seed")
    cond = sv[0] / sv[-1]
    if cond >= _MAX_CONDITION:
        raise OperatorError(f"operator condition number {cond:.3g} >= {_MAX_CONDITION:g}; re-seed")
    return A


def build_prior(dim_theta: int, kernel_scale: float = 0.3, seed: int = 0):
    """Structured Gaussian prior over the source pixel grid.

    Mean: a smooth radial bump (center jittered from the seed). Covariance:
    squared-exponential kernel over pixel coordinates plus 1e-4 I jitter, so
    every eigenvalue is at least 1e-4; :class:`LensingModel` factors it.
    """
    _check_positive(kernel_scale, "kernel_scale")
    side = _square_side(dim_theta, "dim_theta")
    grid = _pixel_grid(side)
    g = SeededRng(seed).substream(_PRIOR_TAG).generator()
    bump_center = np.asarray(_BUMP_CENTER) + g.uniform(-_BUMP_CENTER_JITTER, _BUMP_CENTER_JITTER, 2)

    mu0 = _BUMP_AMPLITUDE * np.exp(-((grid - bump_center) ** 2).sum(axis=1) / (2.0 * _BUMP_WIDTH**2))
    d2 = ((grid[:, None, :] - grid[None, :, :]) ** 2).sum(axis=-1)
    cov = np.exp(-d2 / (2.0 * kernel_scale**2)) + _PRIOR_JITTER * np.eye(dim_theta)
    return mu0, cov


class LensingModel:
    """Immutable forward model: operator A, noise sigma_n, Gaussian prior.

    Holds one-time factorizations: the Cholesky factor and eigenbasis U of the
    prior covariance, the eigenbasis W of the Gram matrix B^T B (B = A U), and
    the eigenbasis V of the posterior precision diag(1/lambda) + B^T B /
    sigma_n^2, so sigma_n must be positive. Nothing else is stored, so one
    model serves any number of samplers and schedules.
    """

    def __init__(self, operator, sigma_n, prior_mean, prior_cov):
        A = np.asarray(operator, dtype=float)
        mu0 = np.asarray(prior_mean, dtype=float).ravel()
        cov = np.asarray(prior_cov, dtype=float)
        if A.ndim != 2 or A.shape[1] != mu0.size or cov.shape != (mu0.size, mu0.size):
            raise ValueError(
                f"shape mismatch: operator {A.shape}, prior mean {mu0.shape}, prior cov {cov.shape}"
            )
        self.operator = A
        self.sigma_n = float(_check_positive(sigma_n, "sigma_n"))
        self.prior_mean = mu0
        self.prior_cov = cov
        try:
            self.prior_chol = cholesky(cov)
        except DecompositionError as e:
            raise PriorError(f"prior covariance is not positive definite: {e}") from e
        lam, U = np.linalg.eigh(cov)
        if lam[0] <= 0:
            raise PriorError(f"prior covariance has non-positive eigenvalue {lam[0]:.3g}")
        # everything downstream works in the prior eigenbasis: theta' = theta U,
        # and B = A U maps eigen coords to observations
        self._lam, self._U, self._B = lam, U, A @ U
        gram = self._B.T @ self._B
        gram_l, self._gram_v = np.linalg.eigh(gram)
        self._gram_l = np.maximum(gram_l, 0.0)
        self._mu0_eig = mu0 @ U
        prec, self._V = np.linalg.eigh(np.diag(1.0 / lam) + gram / self.sigma_n**2)
        self._post_var = 1.0 / prec
        self._UV = U @ self._V

    @property
    def dim_theta(self) -> int:
        return self.prior_mean.size

    @property
    def dim_x(self) -> int:
        return self.operator.shape[0]

    def _posterior_mean_v(self, x):
        """Conjugate posterior mean given x, in posterior-eigenbasis (V) coordinates."""
        return ((self._mu0_eig / self._lam + (x @ self._B) / self.sigma_n**2) @ self._V) * self._post_var


def build_model(source_side: int = 8, obs_side: int = 16, sigma_n: float = 1.0,
                kernel_scale: float = 0.3, seed: int = 0) -> LensingModel:
    """Convenience constructor from grid sides (defaults: 8x8 source, 16x16 obs)."""
    dim_theta = source_side * source_side
    dim_x = obs_side * obs_side
    A = build_operator(dim_theta, dim_x, seed=seed)
    mu0, cov = build_prior(dim_theta, kernel_scale=kernel_scale, seed=seed)
    return LensingModel(A, sigma_n, mu0, cov)


def simulate(model: LensingModel, rng: SeededRng) -> tuple:
    """One forward draw: theta ~ N(mu_0, Sigma_0), x = A theta + sigma_n eps."""
    g = rng.generator()
    theta = model.prior_mean + model.prior_chol @ g.standard_normal(model.dim_theta)
    x = model.operator @ theta + model.sigma_n * g.standard_normal(model.dim_x)
    return theta, x


def make_dataset(model: LensingModel, n_sims: int, seed: int = 0) -> JointSampleSet:
    """Validation set of n_sims forward draws with sim-keyed substreams."""
    return _simulated_set(seed, _SIM_TAG, _check_int(n_sims, "n_sims", 1), lambda rng: simulate(model, rng))


def _check_kind(kind):
    if kind not in SCORE_KINDS:
        raise ValueError(f"kind must be one of {SCORE_KINDS}, got {kind!r}")
    return kind


def _chain_law(model: LensingModel, schedule: VeSchedule, kind: str):
    """Law of the reverse-SDE chain's output given x: draws are offset + x gain
    + z scale^T with z i.i.d. standard normal.

    The chain starts from the t=1 prior marginal N(mu_0, Sigma_0 + sigma_max^2
    I) and takes `schedule.steps` uniform Euler-Maruyama steps to t=0, driven
    by the prior score plus the likelihood score of the given kind.

    A step maps the state (a row in a basis set by the kind: V for exact, W
    for biased) to state M_k + c_k(x) + sqrt(h_k) noise, so the mean follows
    mean M_k + c_k(x) and the covariance M_k^T C M_k + h_k I. DivergenceError
    names the first non-finite step.
    """
    _check_kind(kind)
    # noise variance s2 = sigma_t^2 and step size h = dt g^2(t) on the reverse
    # grid t_k = 1 - k dt
    dt = 1.0 / schedule.steps
    t = 1.0 - dt * np.arange(schedule.steps)
    s2, h = schedule.sigma(t)[:, None] ** 2, dt * schedule.g_squared(t)[:, None]
    lam, mu0, dim = model._lam, model._mu0_eig, model.dim_theta
    init = lam + schedule.sigma_max**2

    def check(k, *moments):
        if not all(np.isfinite(m).all() for m in moments):
            raise DivergenceError(f"{kind} reverse SDE diverged at step {k}", step=k)

    if kind == "exact":
        # in V the drift is -(phi - mu_post(x)) / (post_var + s2): the mean
        # decays towards mu_post(x) by p = prod keep_k, and the covariance is
        # the initial one scaled by p on both sides plus the step noise q
        V, post_var = model._V, model._post_var
        keep = 1.0 - h / (post_var + s2)
        P, Q, q = np.cumprod(keep, axis=0), np.empty_like(keep), np.zeros(dim)
        for k, (keep2, h_k) in enumerate(zip(keep**2, h)):
            q = Q[k] = keep2 * q + h_k
        bound, p = P * P * init.max() + Q, P[-1]
        k = int(np.argmin(np.isfinite(bound).all(axis=1)))  # the first step not finite, or 0
        check(k, bound[k])
        cov = (p[:, None] * (V.T * init) @ V) * p + np.diag(q)
        offset = p * (mu0 @ V) + (1.0 - p) * model._posterior_mean_v(np.zeros(model.dim_x))
        gain, basis = V * ((1.0 - p) * post_var / model.sigma_n**2), model._UV
    else:
        # in W around mu_0 the prior decay is W^T diag(keep_k) W and the
        # likelihood decay diag(gam rate_k), so the symmetric step matrix is
        # M_k = W^T diag(keep_k) W - diag(gam rate_k), and the gain G from x B W
        # gains diag(rate_k) per step. By induction the offset is -(gam (mu_0
        # W)) G after every step, so it needs no recursion. Non-finite values
        # stay non-finite, so only the last step is checked, and a chain that
        # ends non-finite runs again, checking each step to name the first.
        # cov and G go back to U once, after the last step
        W, gam = model._gram_v, model._gram_l
        keep = 1.0 - h / (lam + s2)
        rate = h / (model.sigma_n**2 + s2 * gam)
        for checked in (False, True):
            cov, G = (W.T * init) @ W, np.zeros((dim, dim))
            for k in range(schedule.steps):
                M = (W.T * keep[k]) @ W
                M.reshape(-1)[::dim + 1] -= gam * rate[k]
                cov = M @ cov @ M
                cov.reshape(-1)[::dim + 1] += h[k]
                G = G @ M
                G.reshape(-1)[::dim + 1] += rate[k]
                if checked:
                    check(k, cov, G)
            if math.isfinite(cov.sum() + G.sum()):
                break
        G, cov = G @ W.T, W @ cov @ W.T
        gain, offset, basis = W @ G, mu0 - ((mu0 @ W) * gam) @ G, model._U
    L = cholesky(0.5 * (cov + cov.T))
    return offset @ basis.T, model._B @ gain @ basis.T, basis @ L


def conjugate_posterior(model: LensingModel, x):
    """Closed-form posterior (mean, covariance) for the linear-Gaussian model.

    covariance = (Sigma_0^-1 + A^T A / sigma_n^2)^-1 and mean = covariance
    (Sigma_0^-1 mu_0 + A^T x / sigma_n^2), read off the posterior eigenbasis.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size != model.dim_x:
        raise ValueError(f"observation has dimension {x.size}, model expects {model.dim_x}")
    UV = model._UV
    cov = (UV * model._post_var) @ UV.T
    return model._posterior_mean_v(x) @ UV.T, 0.5 * (cov + cov.T)


class DiffusionPosteriorSampler(PosteriorSampler):
    """PosteriorSampler drawing from the law of the reverse-SDE chain (no density).

    ``sample(x, n, rng)`` gives n posterior draws as an (n, dim_theta) array:
    the output of the chain from the t=1 prior marginal through
    `schedule.steps` Euler-Maruyama steps to t=0 under the prior score plus
    the likelihood score of ``kind``, drawn from its exact law. The law is
    built at construction (a diverging schedule fails there) and never
    written again.
    """

    def __init__(self, model: LensingModel, schedule: VeSchedule, kind: str):
        self.model = model
        self.schedule = schedule
        self.kind = kind
        self._law = _chain_law(model, schedule, kind)

    def sample(self, x, n: int, rng: SeededRng) -> np.ndarray:
        _check_int(n, "n", 1)
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.model.dim_x:
            raise ValueError(f"observation has dimension {x.size}, model expects {self.model.dim_x}")
        offset, gain, scale = self._law
        g = rng.generator() if isinstance(rng, SeededRng) else rng
        draws = g.standard_normal((n, offset.size)) @ scale.T
        draws += offset + x @ gain
        return draws


def lensing_prior_policy(model: LensingModel) -> PriorDraw:
    """DRP reference points drawn from the model prior."""
    return PriorDraw(draw=lambda g: model.prior_mean + model.prior_chol @ g.standard_normal(model.dim_theta))
