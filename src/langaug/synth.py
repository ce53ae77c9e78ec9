"""Synthetic benchmarks.

Two generators: a multi-domain toy segmentation benchmark (random ellipse
masks, appearance shifted per domain by gamma/contrast/sinusoid/noise), and
low-dimensional Gaussian vector data with an exact score function for the
theory harness.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, TensorFormatError
from .ldtn import read_fields, read_meta, read_tensor, write_meta, write_tensor
from .numerics import derive_stream

FORMAT_VERSION = 1


@dataclass(frozen=True)
class DomainSpec:
    domain_id: int
    gamma: float = 1.0
    contrast: float = 1.0
    texture_freq: float = 2.0
    texture_amp: float = 0.0
    noise_sigma: float = 0.0

    def validate(self, image_size: int) -> None:
        if self.gamma <= 0 or self.contrast <= 0:
            raise ConfigError(f"domain {self.domain_id}: gamma and contrast must be positive")
        if self.texture_amp < 0 or self.noise_sigma < 0:
            raise ConfigError(f"domain {self.domain_id}: amplitudes must be non-negative")
        if self.texture_freq > image_size / 2:
            raise ConfigError(
                f"domain {self.domain_id}: texture_freq {self.texture_freq} exceeds "
                f"Nyquist limit {image_size / 2}"
            )


DEFAULT_SPECS = (
    DomainSpec(0, gamma=0.55, contrast=1.15, texture_freq=1.5, texture_amp=0.05, noise_sigma=0.02),
    DomainSpec(1, gamma=0.85, contrast=1.00, texture_freq=2.5, texture_amp=0.07, noise_sigma=0.02),
    DomainSpec(2, gamma=1.30, contrast=0.90, texture_freq=2.0, texture_amp=0.09, noise_sigma=0.02),
    DomainSpec(3, gamma=1.90, contrast=0.80, texture_freq=3.0, texture_amp=0.11, noise_sigma=0.02),
)


@dataclass
class MultiDomainDataset:
    images: list[np.ndarray]        # per domain: (n_i, C, H, W) in [0, 1]
    masks: list[np.ndarray]         # per domain: (n_i, H, W) binary
    specs: list[DomainSpec]
    seed: int
    split: list[dict]               # per domain: {"train": [...], "test": [...]}
    clamp_fraction: float = 0.0

    @property
    def n_domains(self) -> int:
        return len(self.images)

    def counts(self) -> list[int]:
        return [int(im.shape[0]) for im in self.images]

    def train_images(self, d: int) -> np.ndarray:
        return self.images[d][self.split[d]["train"]]

    def train_masks(self, d: int) -> np.ndarray:
        return self.masks[d][self.split[d]["train"]]

    def test_images(self, d: int) -> np.ndarray:
        return self.images[d][self.split[d]["test"]]

    def test_masks(self, d: int) -> np.ndarray:
        return self.masks[d][self.split[d]["test"]]


def _ellipse_mask(size: int, stream) -> np.ndarray:
    cx, cy = stream.uniform(0.32, 0.68, size=2) * size
    ax = stream.uniform(0.18, 0.36) * size
    ay = stream.uniform(0.18, 0.36) * size
    phi = stream.uniform(0.0, np.pi)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64) + 0.5
    dx, dy = xx - cx, yy - cy
    u = dx * np.cos(phi) + dy * np.sin(phi)
    v = -dx * np.sin(phi) + dy * np.cos(phi)
    return ((u / ax) ** 2 + (v / ay) ** 2 <= 1.0).astype(np.float64)


def _base_render(mask: np.ndarray, stream) -> np.ndarray:
    fg = stream.uniform(0.62, 0.85)
    bg = stream.uniform(0.15, 0.38)
    return bg + (fg - bg) * mask


def _apply_domain(base: np.ndarray, spec: DomainSpec, noise_stream) -> np.ndarray:
    size = base.shape[-1]
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64) / size
    angle = 0.9 * spec.domain_id + 0.4
    phase = 1.7 * spec.domain_id
    wave = np.sin(2.0 * np.pi * spec.texture_freq * (np.cos(angle) * xx + np.sin(angle) * yy) + phase)
    img = base if spec.gamma == 1.0 else np.power(base, spec.gamma)
    if spec.contrast != 1.0:
        img = spec.contrast * (img - 0.5) + 0.5
    if spec.texture_amp != 0.0:
        img = img + spec.texture_amp * wave
    if spec.noise_sigma > 0:
        img = img + spec.noise_sigma * noise_stream.standard_normal(base.shape)
    return img


def generate_benchmark(
    n_domains: int,
    n_per_domain: int,
    image_size: int,
    specs=None,
    seed: int = 0,
    channels: int = 1,
    train_frac: float = 0.8,
) -> MultiDomainDataset:
    """Toy segmentation benchmark with appearance-only domain shift.

    Mask geometry and base intensities depend only on (seed, sample index),
    so the same index carries an identical mask in every domain; the domain
    spec perturbs appearance only.
    """
    if n_domains < 2:
        raise ConfigError("need at least 2 domains")
    if image_size < 8:
        raise ConfigError("image_size must be >= 8")
    specs = list(specs) if specs is not None else list(DEFAULT_SPECS[:n_domains])
    if len(specs) != n_domains:
        raise ConfigError(f"got {len(specs)} specs for {n_domains} domains")
    for spec in specs:
        spec.validate(image_size)

    images, masks, split = [], [], []
    clamped = 0
    total = 0
    for d, spec in enumerate(specs):
        ims = np.empty((n_per_domain, channels, image_size, image_size))
        mks = np.empty((n_per_domain, image_size, image_size))
        for s in range(n_per_domain):
            geo = derive_stream(seed, [("sample", s)])
            mask = _ellipse_mask(image_size, geo)
            base = _base_render(mask, geo)
            noise = derive_stream(seed, [("domain", d), ("sample", s), ("noise", 0)])
            for ch in range(channels):
                img = _apply_domain(base, spec, noise)
                clamped += int(np.sum((img < 0.0) | (img > 1.0)))
                total += img.size
                ims[s, ch] = np.clip(img, 0.0, 1.0)
            mks[s] = mask
        images.append(ims)
        masks.append(mks)
        order = derive_stream(seed, [("split", d)]).permutation(n_per_domain)
        n_train = int(round(train_frac * n_per_domain))
        split.append({
            "train": sorted(int(i) for i in order[:n_train]),
            "test": sorted(int(i) for i in order[n_train:]),
        })
    return MultiDomainDataset(
        images=images,
        masks=masks,
        specs=specs,
        seed=seed,
        split=split,
        clamp_fraction=clamped / max(total, 1),
    )


@dataclass
class GlmVectorDataset:
    x: np.ndarray            # (k, d)
    y: np.ndarray            # (k,)
    mu: np.ndarray           # (d,)
    sigma_mat: np.ndarray    # (d, d) SPD
    theta_star: np.ndarray   # (d,)
    family: str
    seed: int = 0
    _sigma_inv: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self._sigma_inv is None:
            self._sigma_inv = np.linalg.inv(self.sigma_mat)

    def score(self, x: np.ndarray) -> np.ndarray:
        """Gradient of the log Gaussian density: -Sigma^{-1} (x - mu)."""
        x = np.asarray(x, dtype=np.float64)
        return -(x - self.mu) @ self._sigma_inv.T

    def scores(self) -> np.ndarray:
        return self.score(self.x)

    @property
    def k(self) -> int:
        return int(self.x.shape[0])

    @property
    def dim(self) -> int:
        return int(self.x.shape[1])


def sample_glm_response(u: np.ndarray, family: str, stream) -> np.ndarray:
    """Draw y from the exponential family at natural parameter u."""
    if family == "gaussian":
        return u + stream.standard_normal(u.shape)
    if family == "logistic":
        return (stream.uniform(size=u.shape) < 1.0 / (1.0 + np.exp(-u))).astype(np.float64)
    if family == "poisson":
        return stream.poisson(np.exp(u)).astype(np.float64)
    raise ConfigError(f"unsupported family {family!r}")


def generate_vector_glm(k, mu, sigma_mat, theta_star, family, seed) -> GlmVectorDataset:
    mu = np.asarray(mu, dtype=np.float64)
    sigma_mat = np.asarray(sigma_mat, dtype=np.float64)
    theta_star = np.asarray(theta_star, dtype=np.float64)
    if not np.allclose(sigma_mat, sigma_mat.T):
        raise np.linalg.LinAlgError("covariance must be symmetric")
    chol = np.linalg.cholesky(sigma_mat)  # raises LinAlgError when not SPD
    xs = derive_stream(seed, [("glm_x", 0)])
    x = mu + xs.standard_normal((k, mu.size)) @ chol.T
    u = x @ theta_star
    y = sample_glm_response(u, family, derive_stream(seed, [("glm_y", 0)]))
    return GlmVectorDataset(x=x, y=y, mu=mu, sigma_mat=sigma_mat,
                            theta_star=theta_star, family=family, seed=seed)


def save_dataset(dataset: MultiDomainDataset, basename) -> None:
    if not isinstance(dataset, MultiDomainDataset):
        raise ConfigError(f"cannot save object of type {type(dataset).__name__}")
    base = Path(basename)
    for d in range(dataset.n_domains):
        write_tensor(f"{base}.d{d}.images.ldtn", dataset.images[d])
        write_tensor(f"{base}.d{d}.masks.ldtn", dataset.masks[d])
    write_meta(base, {
        "kind": "multi_domain",
        "seed": dataset.seed,
        "domains": [asdict(s) for s in dataset.specs],
        "counts": dataset.counts(),
        "split": dataset.split,
        "clamp_fraction": dataset.clamp_fraction,
        "format_version": FORMAT_VERSION,
    })


def _check_split(split, rows, sidecar) -> None:
    """Raise unless ``split`` holds, per domain, train and test lists of that domain's rows."""
    if type(split) is not list or len(split) != len(rows):
        raise TensorFormatError(f"{sidecar}: \"split\" is not a list of {len(rows)} domains")
    for d, (part, n) in enumerate(zip(split, rows)):
        if type(part) is not dict or set(part) != {"train", "test"}:
            raise TensorFormatError(f"{sidecar}: split[{d}] is not a train and test pair")
        for name, index in part.items():
            if type(index) is not list or not all(type(i) is int and 0 <= i < n for i in index):
                raise TensorFormatError(f"{sidecar}: split[{d}].{name} is not a list of row "
                                        f"indices below {n}")


def load_dataset(basename) -> MultiDomainDataset:
    """The dataset saved at ``basename``. A ``domains`` entry that does not spell out exactly
    DomainSpec's fields, a domain whose images are not 4-D with domain 0's (C, H, W) or whose
    masks are not (rows, H, W) of its images, or a ``split`` that is not one
    {"train": [...], "test": [...]} pair of row-index lists per domain raises
    TensorFormatError."""
    base = Path(basename)
    sidecar = f"{base}.meta.json"
    meta = read_meta(base, ("kind", "domains", "seed", "split", "clamp_fraction"))
    if meta["kind"] != "multi_domain":
        raise TensorFormatError(f"{sidecar}: unknown dataset kind {meta['kind']!r}")
    domains = meta["domains"]
    if type(domains) is not list:
        raise TensorFormatError(f"{sidecar}: \"domains\" is not a list")
    specs = [read_fields(DomainSpec, entry, f"{sidecar}: domains[{d}]")
             for d, entry in enumerate(domains)]
    images = [read_tensor(f"{base}.d{d}.images.ldtn") for d in range(len(specs))]
    masks = [read_tensor(f"{base}.d{d}.masks.ldtn") for d in range(len(specs))]
    for d, (image, mask) in enumerate(zip(images, masks)):
        if image.ndim != 4 or image.shape[1:] != images[0].shape[1:]:
            raise TensorFormatError(f"{base}.d{d}.images.ldtn: images of shape {image.shape}, "
                                    f"not 4-D with domain 0's (C, H, W) {images[0].shape[1:]}")
        if mask.shape != (image.shape[0], *image.shape[2:]):
            raise TensorFormatError(f"{base}.d{d}.masks.ldtn: masks of shape {mask.shape} for "
                                    f"images of shape {image.shape}")
    _check_split(meta["split"], [image.shape[0] for image in images], sidecar)
    return MultiDomainDataset(
        images=images, masks=masks, specs=specs, seed=meta["seed"],
        split=meta["split"], clamp_fraction=meta["clamp_fraction"],
    )
