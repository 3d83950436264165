"""Synthetic calorimeter events: generation, datasets, splits, and file I/O.

An event is a 15x15 cluster of non-negative cell energies plus its truth
record (energy, impact point, incidence angles).  Deposition uses a
two-component radially symmetric exponential profile evaluated at cell
centers and normalized over the grid, so with the stochastic term switched
off the cluster sums to exactly containment_fraction * energy.

Every event draws from its own RNG substream keyed by (seed, index), which
makes generation order-independent: parallel and serial runs, or runs that
stop early, produce bit-identical events.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ContractError, DatasetFormatError, DegenerateFitError
from .seeding import substream

GRID = 15
CENTER = GRID // 2
CELLS = GRID * GRID

# Spectrum decay rate for kind B; puts ~70% of the mass in [1, 20] GeV.
KIND_B_RATE = 0.0635

_COORDS = np.arange(GRID, dtype=float) - CENTER   # cell centers, cell-width units


@dataclass(frozen=True)
class GeneratorConfig:
    """Physics-free knobs of the synthetic shower model."""

    dataset_kind: str = "A"                     # A: uniform E, normal incidence
    energy_range: tuple[float, float] = (1.0, 100.0)
    angle_bound: float = 0.3                    # radians, kind B only
    core_width: float = 0.45                    # lateral profile, cell widths
    halo_width: float = 1.8
    core_fraction: float = 0.8
    shower_depth: float = 3.0                   # axial lever arm for angled impacts
    containment_fraction: float = 0.95
    resolution_a: float = 0.10                  # stochastic term a/sqrt(E)
    noise_b: float = 0.01                       # constant relative term

    def __post_init__(self):
        object.__setattr__(self, "energy_range", tuple(self.energy_range))
        if self.dataset_kind not in ("A", "B"):
            raise ContractError(f"dataset_kind must be 'A' or 'B', got {self.dataset_kind!r}")
        lo, hi = self.energy_range
        if not 0.0 < lo < hi:
            raise ContractError(f"energy_range must satisfy 0 < lo < hi, got {self.energy_range}")
        if not 0.0 < self.containment_fraction <= 1.0:
            raise ContractError("containment_fraction must be in (0, 1]")
        if self.core_width <= 0.0 or self.halo_width <= 0.0:
            raise ContractError("profile widths must be positive")
        if not 0.0 <= self.core_fraction <= 1.0:
            raise ContractError("core_fraction must be in [0, 1]")
        if self.angle_bound < 0.0 or self.shower_depth < 0.0:
            raise ContractError("angle_bound and shower_depth must be non-negative")
        if self.resolution_a < 0.0 or self.noise_b < 0.0:
            raise ContractError("resolution terms must be non-negative")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["energy_range"] = list(self.energy_range)
        return d


@dataclass(frozen=True)
class EventRecord:
    cluster: np.ndarray          # [15, 15], non-negative
    energy: float
    x: float                     # impact offset from grid center, cell widths
    y: float
    theta_x: float               # radians
    theta_y: float


def _profile_weights(sx: float, sy: float, cfg: GeneratorConfig) -> np.ndarray:
    # midpoint evaluation of the lateral density on cell centers, normalized
    dx = _COORDS[None, :] - sx
    dy = _COORDS[:, None] - sy
    r = np.sqrt(dx * dx + dy * dy)
    w = (cfg.core_fraction * np.exp(-r / cfg.core_width)
         + (1.0 - cfg.core_fraction) * np.exp(-r / cfg.halo_width))
    return w / w.sum()


def generate_event(cfg: GeneratorConfig, rng: np.random.Generator) -> EventRecord:
    """One event from the given stream.  Draw order is part of the format."""
    lo, hi = cfg.energy_range
    x = rng.uniform(-0.5, 0.5)
    y = rng.uniform(-0.5, 0.5)
    if cfg.dataset_kind == "A":
        energy = rng.uniform(lo, hi)
        theta_x = theta_y = 0.0
    else:
        # truncated exponential spectrum, soft end of the range favored
        u = rng.uniform(0.0, 1.0)
        span = hi - lo
        energy = lo - np.log(1.0 - u * (1.0 - np.exp(-KIND_B_RATE * span))) / KIND_B_RATE
        # incidence shrinks with energy: hard events arrive straighter
        amplitude = cfg.angle_bound * (1.0 - energy / hi)
        theta_x = amplitude * rng.uniform(-1.0, 1.0)
        theta_y = amplitude * rng.uniform(-1.0, 1.0)
    xi = rng.normal()

    sx = x + cfg.shower_depth * np.tan(theta_x)
    sy = y + cfg.shower_depth * np.tan(theta_y)
    weights = _profile_weights(sx, sy, cfg)

    sigma_rel = np.hypot(cfg.resolution_a / np.sqrt(energy), cfg.noise_b)
    factor = 1.0 + sigma_rel * xi
    cluster = np.maximum(0.0, cfg.containment_fraction * energy * factor * weights)
    return EventRecord(cluster=cluster, energy=float(energy), x=float(x), y=float(y),
                       theta_x=float(theta_x), theta_y=float(theta_y))


class Dataset:
    """Ordered event collection stored column-wise for fast math."""

    def __init__(self, clusters: np.ndarray, energy: np.ndarray, x: np.ndarray,
                 y: np.ndarray, theta_x: np.ndarray, theta_y: np.ndarray,
                 config: GeneratorConfig, seed: int | None = None):
        n = len(energy)
        if clusters.shape != (n, GRID, GRID):
            raise ContractError(f"clusters must be [N,{GRID},{GRID}], got {clusters.shape}")
        self.clusters = np.asarray(clusters, dtype=np.float64)
        self.energy = np.asarray(energy, dtype=np.float64)
        self.x = np.asarray(x, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        self.theta_x = np.asarray(theta_x, dtype=np.float64)
        self.theta_y = np.asarray(theta_y, dtype=np.float64)
        self.config = config
        self.seed = seed

    def __len__(self) -> int:
        return len(self.energy)

    def __getitem__(self, i: int) -> EventRecord:
        return EventRecord(cluster=self.clusters[i], energy=float(self.energy[i]),
                           x=float(self.x[i]), y=float(self.y[i]),
                           theta_x=float(self.theta_x[i]), theta_y=float(self.theta_y[i]))

    def take(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.clusters[indices], self.energy[indices], self.x[indices],
                       self.y[indices], self.theta_x[indices], self.theta_y[indices],
                       self.config, seed=None)


def generate_dataset(cfg: GeneratorConfig, n: int, seed: int) -> Dataset:
    """n events under (cfg, seed).  Event i depends only on (seed, i)."""
    if n < 1:
        raise ContractError("n must be >= 1")
    clusters = np.empty((n, GRID, GRID))
    energy = np.empty(n)
    x = np.empty(n)
    y = np.empty(n)
    tx = np.empty(n)
    ty = np.empty(n)
    for i in range(n):
        ev = generate_event(cfg, substream(seed, "event", i))
        clusters[i] = ev.cluster
        energy[i] = ev.energy
        x[i] = ev.x
        y[i] = ev.y
        tx[i] = ev.theta_x
        ty[i] = ev.theta_y
    return Dataset(clusters, energy, x, y, tx, ty, cfg, seed=seed)


def split_fixed(dataset: Dataset, ratio: float = 0.5, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Disjoint, exhaustive shuffle-split; half rounds up to the first part."""
    if not 0.0 < ratio < 1.0:
        raise ContractError("ratio must be strictly between 0 and 1")
    n = len(dataset)
    perm = substream(seed, "split").permutation(n)
    n_first = int(np.floor(n * ratio + 0.5))
    if n_first == 0 or n_first == n:
        raise ContractError(f"split of {n} events at ratio {ratio} leaves one side empty")
    return dataset.take(perm[:n_first]), dataset.take(perm[n_first:])


def bootstrap_sample(pool: Dataset, size: int, seed: int) -> Dataset:
    """Draw `size` events with replacement; the seed pins the multiset."""
    if size < 1:
        raise ContractError("size must be >= 1")
    idx = substream(seed, "bootstrap").integers(0, len(pool), size)
    return pool.take(idx)


def subsample(pool: Dataset, size: int, seed: int) -> Dataset:
    """Draw `size` distinct events without replacement."""
    if not 1 <= size <= len(pool):
        raise ContractError(f"size must be in [1, {len(pool)}], got {size}")
    idx = substream(seed, "subsample").choice(len(pool), size=size, replace=False)
    return pool.take(idx)


def sample_size_schedule(i: int) -> int:
    """Log-spaced training-set sizes from 132 to ~36k; index 0..45."""
    if not 0 <= i <= 45:
        raise ContractError(f"schedule index must be in [0, 45], got {i}")
    return int(np.rint(2000.0 * 10.0 ** (-1.18 + i * 2.38 / 44.0)))


# -- cluster features -----------------------------------------------------------


def cluster_energy_sum(clusters: np.ndarray) -> np.ndarray | float:
    """Total visible energy; scalar for a single cluster, vector for a batch."""
    arr = np.asarray(clusters, dtype=np.float64)
    if arr.ndim == 2:
        return float(arr.sum())
    return arr.sum(axis=(1, 2))


def cluster_barycenter(clusters: np.ndarray) -> np.ndarray:
    """Energy-weighted mean position, origin at grid center, cell-width units.

    Returns [2] (x, y) for one cluster or [N, 2] for a batch.  All-zero
    clusters have no barycenter and raise DegenerateFitError.
    """
    arr = np.asarray(clusters, dtype=np.float64)
    single = arr.ndim == 2
    if single:
        arr = arr[None]
    total = arr.sum(axis=(1, 2))
    if np.any(total == 0.0):
        raise DegenerateFitError("all-zero cluster has no barycenter")
    bx = (arr.sum(axis=1) @ _COORDS) / total      # sum over rows -> column marginal
    by = (arr.sum(axis=2) @ _COORDS) / total
    out = np.stack([bx, by], axis=1)
    return out[0] if single else out


# -- file format -------------------------------------------------------------------

MAGIC = b"RLAB"
FORMAT_VERSION = 1
_EVENT_WIDTH = CELLS + 5     # cluster row-major, then E, x, y, tx, ty


def _event_matrix(dataset: Dataset) -> np.ndarray:
    n = len(dataset)
    m = np.empty((n, _EVENT_WIDTH))
    m[:, :CELLS] = dataset.clusters.reshape(n, CELLS)
    m[:, CELLS + 0] = dataset.energy
    m[:, CELLS + 1] = dataset.x
    m[:, CELLS + 2] = dataset.y
    m[:, CELLS + 3] = dataset.theta_x
    m[:, CELLS + 4] = dataset.theta_y
    return m


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write magic, version, provenance block, count, events, payload CRC."""
    meta = {"generator": dataset.config.to_dict(), "seed": dataset.seed}
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    events = np.ascontiguousarray(_event_matrix(dataset), dtype="<f8").tobytes()
    payload = struct.pack("<I", len(blob)) + blob + struct.pack("<Q", len(dataset)) + events
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", FORMAT_VERSION))
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


def load_dataset(path: str) -> Dataset:
    """Inverse of save_dataset; any inconsistency raises DatasetFormatError.

    So does an invalid generator config, a non-finite value or an energy
    that is not above 0: the first bad event is named.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 10 or raw[:4] != MAGIC:
        raise DatasetFormatError(f"{path}: not a dataset file (bad magic)")
    (version,) = struct.unpack_from("<H", raw, 4)
    if version != FORMAT_VERSION:
        raise DatasetFormatError(f"{path}: unsupported format version {version}")
    payload, crc_stored = raw[6:-4], raw[-4:]
    if len(raw) < 14 or zlib.crc32(payload) != struct.unpack("<I", crc_stored)[0]:
        raise DatasetFormatError(f"{path}: checksum mismatch (truncated or corrupt)")
    (blob_len,) = struct.unpack_from("<I", payload, 0)
    meta_end = 4 + blob_len
    try:
        meta = json.loads(payload[4:meta_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DatasetFormatError(f"{path}: bad provenance block: {e}") from None
    if not isinstance(meta, dict) or "generator" not in meta:
        raise DatasetFormatError(f"{path}: provenance block has no generator config")
    try:
        cfg = GeneratorConfig(**meta["generator"])
    except (TypeError, ValueError) as e:
        raise DatasetFormatError(f"{path}: bad generator config: {e}") from None
    if meta_end + 8 > len(payload):
        raise DatasetFormatError(f"{path}: event count lies past the payload end")
    (count,) = struct.unpack_from("<Q", payload, meta_end)
    body = payload[meta_end + 8:]
    expected = count * _EVENT_WIDTH * 8
    if len(body) != expected:
        raise DatasetFormatError(f"{path}: expected {expected} event bytes, found {len(body)}")
    m = np.frombuffer(body, dtype="<f8").reshape(count, _EVENT_WIDTH).astype(np.float64)
    finite = np.isfinite(m).all(axis=1)
    bad = ~finite | ~(m[:, CELLS] > 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        what = "a non-finite value" if not finite[i] else f"energy {m[i, CELLS]!r}, not above 0"
        raise DatasetFormatError(f"{path}: event {i} holds {what}")
    return Dataset(m[:, :CELLS].reshape(count, GRID, GRID), m[:, CELLS], m[:, CELLS + 1],
                   m[:, CELLS + 2], m[:, CELLS + 3], m[:, CELLS + 4], cfg,
                   seed=meta.get("seed"))

