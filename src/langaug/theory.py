"""Numerical checks of the augmentation regularization and complexity bounds.

For GLM losses ell(theta, (x, y)) = A(theta.x) - y * theta.x the harness
verifies, by Monte Carlo, that the one-step-noised risk decomposes into the
plain empirical risk plus second-order regularization terms with an o(beta^2)
remainder, and it estimates the Rademacher complexity of the constrained
linear class together with every constant entering the generalization bound.

The remainder scan uses control variates with analytically known means (the
Taylor terms of the per-draw loss, including the odd third-order term whose
expectation vanishes), so the Monte Carlo error of the remainder scales like
the remainder itself rather than like beta; plain averaging would need an
astronomically large draw budget at the smallest step sizes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .ldtn import write_csv, write_json
from .numerics import block_ranges, derive_stream
from .synth import GlmVectorDataset

_POISSON_GUARD = 30.0
_SCAN_BLOCK = 128       # draws per column block of the remainder scan


def _sigmoid(u):
    # the formula of nets.sigmoid, which theory may not import: max(e, u >= 0)
    # is 1 for u >= 0 and e below, so the bits are 1 / (1 + exp(-u)) for
    # u >= 0 and exp(u) / (1 + exp(u)) below, and exp never overflows
    e = np.exp(-np.abs(u))
    return np.maximum(e, u >= 0) / (1.0 + e)


def _softplus(u):
    return np.logaddexp(0.0, u)


def _logistic_A2(u):
    s = _sigmoid(u)
    return s * (1.0 - s)


def _logistic_A3(u):
    s = _sigmoid(u)
    return s * (1.0 - s) * (1.0 - 2.0 * s)


@dataclass(frozen=True)
class GlmFamily:
    """Log-partition A and derivatives for one exponential family."""

    name: str
    A: callable
    A1: callable
    A2: callable
    A3: callable


FAMILIES = {
    "gaussian": GlmFamily(
        name="gaussian",
        A=lambda u: 0.5 * u * u,
        A1=lambda u: u,
        A2=lambda u: np.ones_like(np.asarray(u, dtype=np.float64)),
        A3=lambda u: np.zeros_like(np.asarray(u, dtype=np.float64)),
    ),
    "logistic": GlmFamily(
        name="logistic",
        A=_softplus,
        A1=_sigmoid,
        A2=_logistic_A2,
        A3=_logistic_A3,
    ),
    "poisson": GlmFamily(
        name="poisson",
        A=np.exp,
        A1=np.exp,
        A2=np.exp,
        A3=np.exp,
    ),
}


def get_family(name: str) -> GlmFamily:
    if name not in FAMILIES:
        raise ConfigError(f"unknown GLM family {name!r}")
    return FAMILIES[name]


def _guard(u, family: GlmFamily):
    if family.name == "poisson" and np.any(u > _POISSON_GUARD):
        raise NumericError(
            f"poisson natural parameter exceeds overflow guard {_POISSON_GUARD}"
        )
    return u


def _glm_terms(theta, dataset: GlmVectorDataset):
    """(family, theta, u, ts) with u = x.theta (guarded) and ts = s(x).theta per sample."""
    family = get_family(dataset.family)
    theta = np.asarray(theta, dtype=np.float64)
    u = _guard(dataset.x @ theta, family)
    return family, theta, u, dataset.scores() @ theta


def reg_terms_general(theta, dataset: GlmVectorDataset, beta: float):
    """Second-order regularization terms (R1, R2, R3) of the noised risk.

    With linear features the Hessian term R3 is identically zero; it is
    returned anyway so the decomposition reads R1 + R2 + R3.
    """
    family, theta, u, ts = _glm_terms(theta, dataset)
    half_beta2 = 0.5 * beta * beta
    r1 = float(-half_beta2 * np.mean((family.A1(u) - dataset.y) * ts))
    r2 = float(half_beta2 * np.mean(family.A2(u)) * float(np.linalg.norm(theta)) ** 2)
    return r1, r2, 0.0


def reg_glm(theta, dataset: GlmVectorDataset, beta: float) -> float:
    """Label-free regularizer: (beta^2 / 2k) sum(A'' theta.theta - A' theta.s(x)).

    Identical to R1 + R2 + R3 evaluated with the labels zeroed out; the
    label-dependent part of R1 is deliberately dropped.
    """
    family, theta, u, ts = _glm_terms(theta, dataset)
    half_beta2 = 0.5 * beta * beta
    return float(half_beta2 * np.mean(family.A2(u) * float(theta @ theta) - family.A1(u) * ts))


@dataclass
class TheoryRow:
    beta: float
    l_std: float
    l_aug_mc: float
    mc_stderr: float
    r1: float
    r2: float
    r3: float
    r_glm: float

    @property
    def rem_gen(self) -> float:
        return self.l_aug_mc - self.l_std - (self.r1 + self.r2 + self.r3)

    @property
    def rem_glm(self) -> float:
        return self.l_aug_mc - self.l_std - self.r_glm


@dataclass
class RademacherRow:
    k: int
    rank: int
    ambient_dim: int
    estimate: float
    bound: float


@dataclass
class TheoryReport:
    rows: list[TheoryRow] = field(default_factory=list)
    slope: float | None = None
    slope_wrong_factor: float | None = None
    status: str = "ok"
    mc_draws: int = 0
    rademacher_rows: list[RademacherRow] = field(default_factory=list)
    bound_inputs: dict = field(default_factory=dict)
    bound_value: float | None = None

    def write_csv(self, path) -> None:
        write_csv(path, ["beta", "l_std", "l_aug", "mc_stderr", "R1", "R2", "R3", "R_glm",
                         "rem_gen", "rem_glm"],
                  ([repr(r.beta), repr(r.l_std), repr(r.l_aug_mc), repr(r.mc_stderr),
                    repr(r.r1), repr(r.r2), repr(r.r3), repr(r.r_glm), repr(r.rem_gen),
                    repr(r.rem_glm)] for r in self.rows))

    def write_summary_json(self, path) -> None:
        write_json(path, {
            "status": self.status,
            "slope": self.slope,
            "slope_wrong_factor": self.slope_wrong_factor,
            "mc_draws": self.mc_draws,
            "rademacher": [
                {"k": r.k, "rank": r.rank, "ambient_dim": r.ambient_dim,
                 "estimate": r.estimate, "bound": r.bound}
                for r in self.rademacher_rows
            ],
            "bound_inputs": self.bound_inputs,
            "bound_value": self.bound_value,
        })


def taylor_remainder_scan(theta, dataset: GlmVectorDataset, betas, n_mc: int = 4096,
                          base_seed: int | None = None, max_mc: int = 1 << 19,
                          stderr_frac: float = 0.1) -> TheoryReport:
    """Remainder of the second-order decomposition across step sizes.

    The per-draw loss depends on the noise only through a = theta.eps, a
    scalar N(0, ||theta||^2) variable, so draws are scalars shared across
    all betas (common random numbers). Each draw is corrected by its own
    Taylor prediction through third order; the correction's expectation is
    exactly l_std + R1 + R2 + R3 (odd orders vanish), which keeps the
    estimator of l_aug unbiased while shrinking the remainder's stderr from
    O(beta) to O(beta^4) per draw.

    Draws double until every beta has stderr below ``stderr_frac`` of its
    |remainder| or the budget is hit, in which case status = "inconclusive".
    Each chunk of draws is evaluated in column blocks that stay in cache;
    the draw-independent Taylor terms are formed once per block for all
    betas, and every per-draw mean has the bits of a whole-chunk pass.
    """
    betas = [float(b) for b in betas]
    if len(betas) < 4:
        raise ConfigError("need at least 4 beta values")
    if any(b <= 0 for b in betas):
        raise ConfigError("beta values must be strictly positive")
    if len(set(betas)) < len(betas):
        raise ConfigError("beta values must be distinct")
    if max(betas) / min(betas) < 7.9:
        raise ConfigError("beta values must span at least a factor of 8")
    if n_mc < 1:
        raise ConfigError(f"n_mc must be >= 1, got {n_mc!r}")
    if max_mc < 1:
        raise ConfigError(f"max_mc must be >= 1, got {max_mc!r}")
    if dataset.k == 0:
        raise ConfigError("k must be >= 1: the dataset has no samples")
    betas = sorted(betas)
    base_seed = dataset.seed if base_seed is None else base_seed

    family, theta, u, ts = _glm_terms(theta, dataset)
    b = -0.5 * ts                          # second-order drift coefficient
    k = dataset.k
    norm_theta = float(np.linalg.norm(theta))
    nll = family.A(u) - dataset.y * u
    l_std = float(np.mean(nll))
    a1u, a2u, a3u = family.A1(u), family.A2(u), family.A3(u)
    resid = a1u - dataset.y

    # per-sample columns of the draw-independent Taylor coefficients
    u_c, y_c, b_c, resid_c, nll_c = (v[:, None] for v in (u, dataset.y, b, resid, nll))
    a2u_c, a3u_c = a2u[:, None], a3u[:, None]
    quad_shift = (2.0 * b * resid)[:, None]
    cubic_slope = (6.0 * a2u * b)[:, None]

    acc = {beta: [0.0, 0.0] for beta in betas}   # sum q, sum q^2 of replicate means
    drawn = 0
    chunk_size = min(n_mc, 1 << 14)
    chunk_id = 0
    status = "ok"

    def mean_and_stderr(beta):
        sq, sq2 = acc[beta]
        mean = sq / drawn
        return mean, math.sqrt(max(sq2 / drawn - mean * mean, 0.0) / drawn)

    def stderr_ok() -> bool:
        for beta in betas:
            mean, se = mean_and_stderr(beta)
            if se > stderr_frac * abs(mean) and not (se == 0.0 and mean == 0.0):
                return False
        return True

    target = min(n_mc, max_mc)
    while True:
        while drawn < target:
            m = min(chunk_size, target - drawn)
            a = derive_stream(base_seed, [("scan_chunk", chunk_id)]).standard_normal((k, m))
            a *= norm_theta
            chunk_id += 1
            q = np.empty((len(betas), m))   # per-draw replicate means, one row per beta
            for lo, hi in block_ranges(m, _SCAN_BLOCK):
                ab = a[:, lo:hi]
                quad = a2u_c * ab * ab + quad_shift
                cubic = a3u_c * ab ** 3 + cubic_slope * ab
                for i, beta in enumerate(betas):
                    ut = u_c + beta * ab + beta * beta * b_c
                    loss = family.A(ut) - y_c * ut
                    taylor = (nll_c + beta * resid_c * ab + 0.5 * beta * beta * quad
                              + (beta ** 3 / 6.0) * cubic)
                    q[i, lo:hi] = np.mean(loss - taylor, axis=0)
            for i, beta in enumerate(betas):
                acc[beta][0] += float(np.sum(q[i]))
                acc[beta][1] += float(np.sum(q[i] * q[i]))
            drawn += m
        if stderr_ok():
            break
        if drawn >= max_mc:
            status = "inconclusive"
            break
        target = min(2 * drawn, max_mc)

    rows = []
    for beta in betas:
        mean_q, se = mean_and_stderr(beta)
        r1, r2, r3 = reg_terms_general(theta, dataset, beta)
        rows.append(TheoryRow(
            beta=beta,
            l_std=l_std,
            l_aug_mc=l_std + r1 + r2 + r3 + mean_q,
            mc_stderr=se,
            r1=r1, r2=r2, r3=r3,
            r_glm=reg_glm(theta, dataset, beta),
        ))

    report = TheoryReport(rows=rows, status=status, mc_draws=drawn)
    rems = np.array([abs(r.rem_gen) for r in rows])
    wrong = np.array([abs(r.rem_gen - (r.r1 + r.r2 + r.r3)) for r in rows])
    logb = np.log(np.array(betas))
    if np.all(rems > 0):
        report.slope = float(np.polyfit(logb, np.log(rems), 1)[0])
    if np.all(wrong > 0):
        report.slope_wrong_factor = float(np.polyfit(logb, np.log(wrong), 1)[0])
    return report


def radius_and_C(gamma: float, rho: float, sigma: float):
    """Norm-ball radius and bound constant from the constraint reduction.

    r^2 = max(gamma/rho, sqrt(gamma/(rho*sigma)));
    C   = max((gamma/rho)^1/2, (gamma/(rho*sigma))^1/4) = r.
    """
    if gamma <= 0 or rho <= 0 or sigma <= 0:
        raise ConfigError("gamma, rho, sigma must all be positive")
    r_sq = max(gamma / rho, math.sqrt(gamma / (rho * sigma)))
    c = max(math.sqrt(gamma / rho), (gamma / (rho * sigma)) ** 0.25)
    return math.sqrt(r_sq), c


def empirical_rademacher(dataset_x: np.ndarray, radius: float, n_mc: int,
                         rng: np.random.Generator, with_stderr: bool = False):
    """Monte Carlo Rademacher complexity of the radius-ball linear class.

    The supremum over the ball has the closed form (radius/k) ||sum xi_i x_i||,
    so only the sign vectors are sampled.
    """
    if radius < 0:
        raise ConfigError("radius must be non-negative")
    if n_mc < 1:
        raise ConfigError(f"n_mc must be >= 1, got {n_mc!r}")
    x = np.asarray(dataset_x, dtype=np.float64)
    k = x.shape[0]
    signs = rng.integers(0, 2, size=(n_mc, k)) * 2.0 - 1.0
    sums = signs @ x
    values = (radius / k) * np.linalg.norm(sums, axis=1)
    estimate = float(np.mean(values))
    if with_stderr:
        return estimate, float(np.std(values, ddof=1) / math.sqrt(n_mc))
    return estimate


def constraint_value(theta, dataset: GlmVectorDataset) -> float:
    """Empirical value of theta^T E[A''(theta.x) theta - A'(theta.x) s(x)]."""
    family, theta, u, ts = _glm_terms(theta, dataset)
    return float(np.mean(family.A2(u)) * (theta @ theta) - np.mean(family.A1(u) * ts))


def _probe_thetas(rng: np.random.Generator, count: int, dim: int, radii) -> tuple[np.ndarray, int]:
    """Probe parameters from ``count`` standard-normal directions of ``rng``.

    Direction p is the p-th draw, scaled to radius radii[p % len(radii)];
    directions of norm < 1e-12 are dropped. Returns (thetas, dropped).
    """
    count = max(int(count), 0)
    directions = rng.standard_normal((count, dim))
    norms = np.sqrt(_row_dots(directions, directions))
    keep = ~(norms < 1e-12)
    radius = np.asarray(radii, dtype=np.float64)[np.arange(count) % len(radii)]
    thetas = directions[keep] / norms[keep, None] * radius[keep, None]
    return thetas, count - int(np.count_nonzero(keep))


def _row_dots(a, b):
    """Row p is a[p] @ b[p], through the same dot kernel as the 1-D product."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _matvec_rows(mat, thetas):
    """Row p is mat @ thetas[p], through the same GEMV as the 1-D product.

    One (P, d) x (d, k) GEMM would round some entries differently.
    """
    return np.matmul(mat, thetas[:, :, None])[:, :, 0]


def estimate_rho(dataset: GlmVectorDataset, family, theta_probe_count: int,
                 kappa1: float, kappa2: float, rng: np.random.Generator,
                 radii) -> tuple[float, int]:
    """Retentiveness estimate: worst probe of the curvature-minus-score ratio.

    rho_hat = min over probes of
        [E A''(theta.x) - (kappa1/kappa2) sqrt(E A'(theta.x)^2)] / min(1, E (theta.x)^2),
    clamped below at zero. kappa1 upper-bounds E||s(x)||^2, kappa2
    lower-bounds ||theta||^2 over the probes, whose norms cycle through
    ``radii``. Returns (rho_hat, skipped_probes) where skips count near-zero
    denominators.
    """
    family = get_family(family)
    thetas, skipped = _probe_thetas(rng, theta_probe_count, dataset.dim, radii)
    u = _guard(_matvec_rows(dataset.x, thetas), family)
    second = np.mean(u * u, axis=1)
    denom = np.where(second < 1.0, second, 1.0)   # min(1, .) with NaN -> 1 like the builtin
    live = ~(denom < 1e-12)
    skipped += int(np.count_nonzero(~live))
    u = u[live]
    worst = math.inf
    if len(u):   # kappa1 / kappa2 is only formed for a surviving probe
        numer = np.mean(family.A2(u), axis=1) - (kappa1 / kappa2) * np.sqrt(
            np.mean(family.A1(u) ** 2, axis=1)
        )
        # builtin min keeps the first of equal values and passes over NaN ratios
        worst = min([worst] + (numer / denom[live]).tolist())
    if not math.isfinite(worst):
        raise ConfigError("all probes skipped; cannot estimate rho")
    return max(worst, 0.0), skipped


def constraint_max(theta, dataset: GlmVectorDataset, probe_count: int, radii,
                   rng: np.random.Generator) -> float:
    """Largest constraint_value over theta and the probes drawn from ``rng``.

    Probes are the directions of ``rng`` scaled to the cycled ``radii``
    (near-zero directions dropped), so gamma covers every probe radius.
    """
    family = get_family(dataset.family)
    gamma = constraint_value(theta, dataset)
    probes, _ = _probe_thetas(rng, probe_count, dataset.dim, radii)
    u = _guard(_matvec_rows(dataset.x, probes), family)
    ts = _matvec_rows(dataset.scores(), probes)
    values = (np.mean(family.A2(u), axis=1) * _row_dots(probes, probes)
              - np.mean(family.A1(u) * ts, axis=1))
    # builtin max keeps the first of equal values and passes over NaN probes
    return max([gamma] + values.tolist())


def generalization_bound(l_std: float, C: float, rank: int, k: int, L: float,
                         L_A: float, B: float, delta: float) -> float:
    """l_std + 2 L L_A C sqrt(rank/k) + B sqrt(ln(1/delta) / (2k))."""
    if min(C, rank, k, L, L_A, B) <= 0:
        raise ConfigError("C, rank, k, L, L_A, B must all be positive")
    if not 0.0 < delta < 1.0:
        raise ConfigError("delta must lie in (0, 1)")
    return (l_std
            + 2.0 * L * L_A * C * math.sqrt(rank / k)
            + B * math.sqrt(math.log(1.0 / delta) / (2.0 * k)))


def loss_constants(theta, dataset: GlmVectorDataset, margin: float = 1.1):
    """(L, L_A, B) measured on the working box of natural parameters.

    L is the loss's Lipschitz constant in u = theta.x, L_A the Lipschitz
    constant of A alone, B the loss's sup, all over the data-spanned
    u-interval stretched by ``margin``.
    """
    family, _, u, _ = _glm_terms(theta, dataset)
    lo, hi = margin * float(np.min(u)), margin * float(np.max(u))
    lo, hi = min(lo, hi), max(lo, hi)
    grid = np.linspace(lo, hi, 1025)
    y_lo, y_hi = float(np.min(dataset.y)), float(np.max(dataset.y))
    slope = np.abs(family.A1(grid)[:, None] - np.array([y_lo, y_hi])[None, :])
    L = float(np.max(slope))
    L_A = float(np.max(np.abs(family.A1(np.linspace(lo, hi, 513)))))
    losses = np.abs(family.A(grid)[:, None] - grid[:, None] * np.array([y_lo, y_hi])[None, :])
    B = float(np.max(losses))
    return L, L_A, B


def lowest_nonzero_singular_value(sigma_mat: np.ndarray, tol: float = 1e-10) -> float:
    """Smallest nonzero singular value (rank-deficient matrices allowed)."""
    vals = np.linalg.svd(np.asarray(sigma_mat, dtype=np.float64), compute_uv=False)
    nz = vals[vals > tol]
    if nz.size == 0:
        raise ConfigError("covariance is numerically zero")
    return float(nz[-1])


def matrix_rank(sigma_mat: np.ndarray, tol: float = 1e-10) -> int:
    vals = np.linalg.svd(np.asarray(sigma_mat, dtype=np.float64), compute_uv=False)
    return int(np.sum(vals > tol))


def verify_bounds(theta, dataset: GlmVectorDataset, cfg: dict, base_seed: int) -> TheoryReport:
    """Remainder scan plus the complexity bound and every constant entering it.

    ``cfg`` is the ``theory`` config section. Unset constants default to
    kappa1 = tr(Sigma^-1), probe radii of 0.9, 1 and 1.1 times ||theta||,
    and kappa2 = the smallest radius squared. The Rademacher rows (one per
    ambient dimension) and the bound need both rho_hat and gamma positive;
    otherwise the report carries only the scan and the bound inputs.
    """
    report = taylor_remainder_scan(theta, dataset, cfg["betas"], n_mc=cfg["n_mc"],
                                   base_seed=base_seed, max_mc=cfg["max_mc"])
    kappa1 = cfg["kappa1"]
    if kappa1 is None:
        kappa1 = float(np.trace(np.linalg.inv(dataset.sigma_mat)))
    radii = cfg["probe_radii"]
    if radii is None:
        scale = float(np.linalg.norm(theta))
        radii = [0.9 * scale, scale, 1.1 * scale]
    kappa2 = cfg["kappa2"] if cfg["kappa2"] is not None else min(radii) ** 2
    rho_hat, skipped = estimate_rho(
        dataset, cfg["family"], cfg["probe_count"], kappa1, kappa2,
        derive_stream(base_seed, [("rho", 0)]), radii=radii,
    )
    gamma = constraint_max(theta, dataset, cfg["probe_count"], radii,
                           derive_stream(base_seed, [("gamma_probes", 0)]))
    sigma_min = lowest_nonzero_singular_value(dataset.sigma_mat)
    rank = matrix_rank(dataset.sigma_mat)
    report.bound_inputs = {
        "gamma": gamma, "rho_hat": rho_hat, "rho_probes_skipped": skipped,
        "sigma_min": sigma_min, "kappa1": kappa1, "kappa2": kappa2,
        "rank": rank, "k": dataset.k, "delta": cfg["delta"],
    }
    if rho_hat > 0 and gamma > 0:
        radius, c_const = radius_and_C(gamma, rho_hat, sigma_min)
        for ambient in cfg["ambient_dims"]:
            est = empirical_rademacher(_embed(dataset.x, ambient, base_seed), radius,
                                       cfg["rad_n_mc"], derive_stream(base_seed, [("rad", ambient)]))
            report.rademacher_rows.append(RademacherRow(
                k=dataset.k, rank=rank, ambient_dim=ambient, estimate=est,
                bound=c_const * float(np.sqrt(rank / dataset.k)),
            ))
        L, L_A, B = loss_constants(theta, dataset)
        report.bound_inputs.update({"C": c_const, "radius": radius, "L": L, "L_A": L_A, "B": B})
        report.bound_value = generalization_bound(
            report.rows[0].l_std if report.rows else 0.0, c_const, rank,
            dataset.k, L, L_A, B, cfg["delta"],
        )
    return report


def _embed(x: np.ndarray, ambient: int, seed: int) -> np.ndarray:
    """x mapped isometrically into ``ambient`` dimensions by a seeded rotation."""
    d = x.shape[1]
    if ambient == d:
        return x
    if ambient < d:
        raise ConfigError("ambient dimension below data dimension")
    raw = derive_stream(seed, [("embed", ambient)]).standard_normal((ambient, d))
    q, _ = np.linalg.qr(raw)
    return x @ q[:, :d].T
