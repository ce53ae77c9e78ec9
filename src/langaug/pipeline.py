"""Building the augmented dataset of bridge samples.

For every ordered domain pair (i, j) and every training image of domain i, a Langevin
chain runs under the (i -> j) model; each stored iterate joins the augmented pool tagged
(i, j, step, origin). The n - 1 pairs of source domain i run as one stack, one energy pass
per step, with each chain's noise drawn step by step from its own stream (float64, cast once
to ``EBM_DTYPE``), so the pool's images are float32. An entry's label is its origin sample's
mask, which the pool looks up in the dataset through those tags rather than storing a copy.
Augmented data is generated once and persisted (images, tags and a sidecar); downstream
training then interleaves it with the originals at a configurable per-batch ratio.
"""
from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .cdtrain import ordered_pairs
from .energy import EBM_DTYPE, EnergyParams
from .errors import ConfigError, DivergenceError, NumericError, TensorFormatError
from .langevin import LangevinConfig, run_chain_batch, stack_noise
from .ldtn import read_meta, read_tensor, write_meta, write_tensor
from .numerics import derive_stream
from .synth import MultiDomainDataset


@dataclass
class AugmentedDataset:
    images: np.ndarray          # (m, C, H, W)
    origin_masks: list          # the dataset's per-domain (n_i, H, W) masks, shared, not a copy
    source_domain: np.ndarray   # (m,) int
    target_domain: np.ndarray   # (m,) int
    step_index: np.ndarray      # (m,) int
    origin_index: np.ndarray    # (m,) int, index into the origin domain's samples
    skipped_chains: int = 0

    def __len__(self) -> int:
        return int(self.images.shape[0])

    def masks_at(self, rows) -> np.ndarray:
        """The masks of entries ``rows``: each its origin sample's, in the dataset's dtype."""
        rows = np.asarray(rows, dtype=np.int64)
        source, origin = self.source_domain[rows], self.origin_index[rows]
        first = self.origin_masks[0]
        masks = np.empty((rows.size, *first.shape[1:]), dtype=first.dtype)
        for d in np.unique(source):
            hit = source == d
            masks[hit] = self.origin_masks[int(d)][origin[hit]]
        return masks

    def counts_by_tag(self) -> dict:
        tags, counts = np.unique(np.stack([self.source_domain, self.target_domain,
                                           self.step_index]), axis=1, return_counts=True)
        return {tuple(int(v) for v in tag): int(n) for tag, n in zip(tags.T, counts)}

    def domains_touched(self) -> set[int]:
        return set(self.source_domain.tolist()) | set(self.target_domain.tolist())

    def within(self, domains) -> "AugmentedDataset":
        """The entries whose source and target both lie in ``domains``, in pool order.

        Chain noise is keyed by (base_seed, pair, chain), so on a pool built over
        more domains this equals ``generate_augmented(..., domains=domains)``;
        ``origin_masks`` is shared and ``skipped_chains`` stays the whole pool's count
        (skips are not per pair).
        """
        keep = list(domains)
        rows = np.isin(self.source_domain, keep) & np.isin(self.target_domain, keep)
        return AugmentedDataset(self.images[rows], self.origin_masks, self.source_domain[rows],
                                self.target_domain[rows], self.step_index[rows],
                                self.origin_index[rows], self.skipped_chains)


def _checksum(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:16]


def data_digests(dataset: MultiDomainDataset) -> dict:
    """Per domain id, the checksum of that domain's training images and masks."""
    return {str(d): _checksum(dataset.train_images(d), dataset.train_masks(d))
            for d in range(dataset.n_domains)}


def pool_provenance(dataset: MultiDomainDataset, ebms: dict, config: LangevinConfig,
                    base_seed: int) -> dict:
    """Everything the pool over all domains depends on, as JSON-native values.

    Two pools with equal provenance hold the same bits, so a saved pool whose
    provenance equals this one can stand in for sampling it again.
    """
    return {
        "ebm_checksums": {f"{i}_{j}": _checksum(ebms[(i, j)].theta)
                          for i, j in ordered_pairs(dataset.n_domains)},
        "langevin": asdict(config),
        "base_seed": base_seed,
        "dtype": EBM_DTYPE.name,
        "data": data_digests(dataset),
    }


def provenance_mismatch(found: dict, want: dict) -> str | None:
    """The dotted name of the first key where two provenances differ; None when they are equal."""
    for key in [*want, *(k for k in found if k not in want)]:
        a, b = found.get(key), want.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            inner = provenance_mismatch(a, b)
            if inner is not None:
                return f"{key}.{inner}"
        elif key not in found or key not in want or a != b:
            return key
    return None


def _sample_stack(x0, train_idx, ebms, stack, config, base_seed) -> dict:
    """{pair: (stored, origins of its kept chains)} for one source domain's pairs, sampled as
    one stack over x0 repeated once per pair. A pair whose run raises a NumericError naming it
    leaves, the rest run again, and then each pair that left runs alone, in pair order, where
    its diverged chains are dropped and the rest run again with the bits they have alone."""
    alive, left, n_chains = list(stack), [], x0.shape[0]
    while alive:
        params = EnergyParams(ebms[alive[0]].arch, np.stack([ebms[p].theta for p in alive]))
        streams = [derive_stream(base_seed, [("aug_pair_i", i), ("aug_pair_j", j), ("chain", s)])
                   for i, j in alive for s in train_idx]
        try:
            _, stored = run_chain_batch(np.concatenate([x0] * len(alive)), params, config,
                                        stack_noise(streams, (1,) + x0.shape[1:], EBM_DTYPE))
            break
        except NumericError as err:
            if len(stack) > 1 and err.model is not None:
                left.append(alive.pop(err.model))
                continue
            if not isinstance(err, DivergenceError):
                raise
            keep = np.setdiff1d(np.arange(x0.shape[0]), err.chains)
            if keep.size == 0:
                raise DivergenceError(f"pair {stack[0]}: all {n_chains} chains diverged, "
                                      f"the last at step {err.step}", step=err.step) from err
            x0, train_idx = x0[keep], train_idx[keep]
    n = x0.shape[0]
    runs = {p: ({t: s[r * n:(r + 1) * n] for t, s in stored.items()}, train_idx)
            for r, p in enumerate(alive)}
    for pair in sorted(left):
        runs.update(_sample_stack(x0, train_idx, ebms, [pair], config, base_seed))
    return runs


def generate_augmented(dataset: MultiDomainDataset, ebms: dict, config: LangevinConfig,
                       base_seed: int, domains=None) -> AugmentedDataset:
    """Run chains for every (pair, training sample) and collect iterates.

    Each source domain's pair models, which share one arch, run as one stack, and every pair
    keeps the bits, skipped chains and error it has alone (``_sample_stack``).
    ``domains`` restricts the construction to a subset of domain ids; a pool over
    all domains gives the same entries through ``within(domains)``.
    """
    domains = sorted(int(d) for d in (range(dataset.n_domains) if domains is None else domains))
    pairs = [(domains[i], domains[j]) for i, j in ordered_pairs(len(domains))]
    for pair in pairs:
        if pair not in ebms:
            raise ConfigError(f"missing energy model for pair {pair}")

    # empty leading pieces fix the shapes and dtypes of a pool with no entries
    images, tags = [dataset.images[0][:0].astype(EBM_DTYPE)], [np.empty((4, 0), np.int64)]
    skipped = 0
    for i in domains:
        train_idx = np.asarray(dataset.split[i]["train"], dtype=np.int64)
        x0 = dataset.images[i][train_idx].astype(EBM_DTYPE)
        if x0.shape[0] == 0:
            continue
        runs = _sample_stack(x0, train_idx, ebms, [pair for pair in pairs if pair[0] == i],
                             config, base_seed)
        for pair, (stored, origin) in sorted(runs.items()):  # in pair order
            skipped += x0.shape[0] - origin.size
            for t in config.stored_steps():
                images.append(stored[t])
                tags.append([np.full_like(origin, v) for v in (*pair, t)] + [origin])
    # the tag rows are the source, target, step and origin fields, in field order
    return AugmentedDataset(np.concatenate(images), dataset.masks, *np.concatenate(tags, axis=1),
                            skipped)


def assemble_training_stream(n_src: int, n_aug: int, mix_ratio: float, seed: int,
                             batch_size: int = 8, epoch: int = 0) -> list[tuple[str, int]]:
    """Deterministic epoch stream of ("src" | "aug", index) batch entries.

    Every batch carries round(batch_size * mix_ratio) augmented entries and the rest source
    entries; each source index appears once per epoch, unless that rest is 0 (mix_ratio 1.0):
    then ceil(n_src / batch_size) batches hold augmented entries only.
    """
    if not 0.0 <= mix_ratio <= 1.0:
        raise ConfigError("mix_ratio must lie in [0, 1]")
    if n_src < 1:
        raise ConfigError("need source samples")
    if mix_ratio > 0 and n_aug < 1:
        raise ConfigError("mix_ratio > 0 requires a non-empty augmented pool")
    rng = derive_stream(seed, [("stream", 0), ("epoch", epoch)])
    n_aug_per_batch = int(round(batch_size * mix_ratio))
    n_src_per_batch = batch_size - n_aug_per_batch
    src_order = [("src", int(v)) for v in rng.permutation(n_src)]
    if n_src_per_batch == 0:
        n_batches = max(1, (n_src + batch_size - 1) // batch_size)
    else:
        n_batches = (n_src + n_src_per_batch - 1) // n_src_per_batch
    aug_pool: list[int] = []
    stream: list[tuple[str, int]] = []
    src_pos = 0
    for _ in range(n_batches):
        batch: list[tuple[str, int]] = []
        take = min(n_src_per_batch, n_src - src_pos)
        batch.extend(src_order[src_pos:src_pos + take])
        src_pos += take
        if n_aug_per_batch > 0:
            for _ in range(n_aug_per_batch):
                if not aug_pool:
                    aug_pool = [int(v) for v in rng.permutation(n_aug)]
                batch.append(("aug", aug_pool.pop()))
        order = rng.permutation(len(batch))
        stream.extend(batch[int(p)] for p in order)
    return stream


def save_augmented(aug: AugmentedDataset, basename, provenance: dict) -> None:
    """Write the pool's images and tags, and a sidecar that records ``provenance``."""
    base = Path(basename)
    write_tensor(f"{base}.images.ldtn", aug.images)
    write_tensor(f"{base}.tags.ldtn", np.stack([
        aug.source_domain, aug.target_domain, aug.step_index, aug.origin_index,
    ]).astype(np.float64))
    counts = {f"{i}_{j}_{k}": v for (i, j, k), v in sorted(aug.counts_by_tag().items())}
    write_meta(base, {
        "entries": len(aug),
        "counts_by_pair_step": counts,
        "provenance": provenance,
        "skipped_chains": aug.skipped_chains,
    })


def load_augmented(basename, dataset: MultiDomainDataset) -> AugmentedDataset:
    """The pool saved at ``basename``, whose masks are looked up in ``dataset``.

    The sidecar must hold ``provenance``, which every pool reader in the CLI compares
    through ``Stage.read`` before it loads, and ``skipped_chains``, which the pool keeps.
    TensorFormatError: images whose (C, H, W) is not the dataset's, or tags that are not
    (4, m), hold a value that is not an integer, name a source or target that is not a domain
    of ``dataset``, or an origin outside its source domain's training split.
    """
    base = Path(basename)
    meta = read_meta(base, ("provenance", "skipped_chains"))
    images = read_tensor(f"{base}.images.ldtn")
    if images.shape[1:] != dataset.images[0].shape[1:]:
        raise TensorFormatError(f"{base}.images.ldtn: images of shape {images.shape} for a "
                                f"dataset of {dataset.images[0].shape[1:]} images")
    where = f"{base}.tags.ldtn"
    tags = read_tensor(where)
    if tags.shape != (4, *images.shape[:1]):
        raise TensorFormatError(f"{where}: tags of shape {tags.shape} for images of shape "
                                f"{images.shape}, expected (4, m)")
    with np.errstate(invalid="ignore"):  # NaN, inf and values past int64 cast to a sentinel
        ints = tags.astype(np.int64)
    bad = np.flatnonzero(ints != tags)
    if bad.size:
        raise TensorFormatError(f"{where}: tag value {float(tags.flat[bad[0]])!r} is not an "
                                "integer")
    # the tag rows are the source, target, step and origin fields, in field order
    source, target, _, origin = ints
    for name, row in (("source", source), ("target", target)):
        bad = np.flatnonzero((row < 0) | (row >= dataset.n_domains))
        if bad.size:
            raise TensorFormatError(f"{where}: entry {bad[0]} has {name} {row[bad[0]]}, not one "
                                    f"of the dataset's {dataset.n_domains} domains")
    for d in range(dataset.n_domains):
        bad = np.flatnonzero((source == d) & ~np.isin(origin, dataset.split[d]["train"]))
        if bad.size:
            raise TensorFormatError(f"{where}: entry {bad[0]} has origin {origin[bad[0]]}, not in "
                                    f"source domain {d}'s training split")
    return AugmentedDataset(images, dataset.masks, *ints, meta["skipped_chains"])
