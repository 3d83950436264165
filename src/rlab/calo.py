"""Synthetic calorimeter events: generation, datasets, sampling, and file I/O.

An event is one float64 row of 230 values: a 15x15 cluster of non-negative
cell energies, row-major, then its truth record (energy, impact x and y,
incidence angles theta_x and theta_y).  The generator, a Dataset and the file
all hold events in this layout.  Deposition uses a
two-component radially symmetric exponential profile evaluated at cell
centers and normalized over the grid, so with the stochastic term switched
off the cluster sums to exactly containment_fraction * energy.

Every event draws from its own RNG substream keyed by (seed, index), which
makes generation order-independent: parallel and serial runs, or runs that
stop early, produce bit-identical events.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, asdict, fields

import numpy as np

from .errors import ContractError, DatasetFormatError, DegenerateFitError, require_reals
from .seeding import substream

GRID = 15
CENTER = GRID // 2
CELLS = GRID * GRID
_EVENT_WIDTH = CELLS + 5     # cluster row-major, then E, x, y, theta_x, theta_y

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
        # every field after dataset_kind is a number or a pair of them
        require_reals(**{f.name: getattr(self, f.name) for f in fields(self)[1:]})
        lo, hi = self.energy_range
        if not 0.0 < lo < hi:
            raise ContractError(f"energy_range must satisfy 0 < lo < hi, got {self.energy_range}")
        if not hi < math.inf:       # numpy cannot draw from an unbounded range
            raise ContractError(f"energy_range must be finite, got {self.energy_range}")
        if not 0.0 < self.containment_fraction <= 1.0:
            raise ContractError("containment_fraction must be in (0, 1]")
        # positive forms throughout, so that NaN fails each check
        if not (self.core_width > 0.0 and self.halo_width > 0.0):
            raise ContractError("profile widths must be positive")
        if not 0.0 <= self.core_fraction <= 1.0:
            raise ContractError("core_fraction must be in [0, 1]")
        if not (self.angle_bound >= 0.0 and self.shower_depth >= 0.0):
            raise ContractError("angle_bound and shower_depth must be non-negative")
        if not (self.resolution_a >= 0.0 and self.noise_b >= 0.0):
            raise ContractError("resolution terms must be non-negative")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["energy_range"] = list(self.energy_range)
        return d


def _profile_weights(sx: float, sy: float, cfg: GeneratorConfig) -> np.ndarray:
    # midpoint evaluation of the lateral density on cell centers, normalized
    dx = _COORDS[None, :] - sx
    dy = _COORDS[:, None] - sy
    r = np.sqrt(dx * dx + dy * dy)
    w = (cfg.core_fraction * np.exp(-r / cfg.core_width)
         + (1.0 - cfg.core_fraction) * np.exp(-r / cfg.halo_width))
    return w / w.sum()


def generate_event(cfg: GeneratorConfig, rng: np.random.Generator) -> np.ndarray:
    """One event row from the given stream.  x and y are the impact offset from
    the grid center in cell widths, the angles are in radians.  Draw order is
    part of the format."""
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
    return np.concatenate([cluster.ravel(), [energy, x, y, theta_x, theta_y]])


class Dataset:
    """Ordered events, one row of `events` [N, 230] each; `clusters` [N, 15, 15]
    and the truth columns `energy`, `x`, `y`, `theta_x`, `theta_y` are views."""

    def __init__(self, events: np.ndarray, config: GeneratorConfig, seed: int | None = None):
        self.events = events
        self.clusters = events[:, :CELLS].reshape(len(events), GRID, GRID)
        self.energy, self.x, self.y, self.theta_x, self.theta_y = events[:, CELLS:].T
        self.config = config
        self.seed = seed

    def __len__(self) -> int:
        return len(self.events)

    def take(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.events[indices], self.config)


def generate_dataset(cfg: GeneratorConfig, n: int, seed: int) -> Dataset:
    """n events under (cfg, seed).  Event i depends only on (seed, i)."""
    if n < 1:
        raise ContractError("n must be >= 1")
    events = np.empty((n, _EVENT_WIDTH))
    for i in range(n):
        events[i] = generate_event(cfg, substream(seed, "event", i))
    return Dataset(events, cfg, seed=seed)


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


def cluster_energy_sum(clusters: np.ndarray) -> np.ndarray:
    """Total visible energy [N] of clusters [N, 15, 15]."""
    return clusters.sum(axis=(1, 2))


def cluster_barycenter(clusters: np.ndarray) -> np.ndarray:
    """Energy-weighted mean position [N, 2] (x, y) of clusters [N, 15, 15],
    origin at grid center, cell-width units.

    All-zero clusters have no barycenter and raise DegenerateFitError naming the first.
    """
    total = clusters.sum(axis=(1, 2))
    if np.any(total == 0.0):
        raise DegenerateFitError(
            f"cluster {np.argmax(total == 0.0)} is all zero and has no barycenter")
    bx = (clusters.sum(axis=1) @ _COORDS) / total      # sum over rows -> column marginal
    by = (clusters.sum(axis=2) @ _COORDS) / total
    return np.stack([bx, by], axis=1)


# -- file format -------------------------------------------------------------------

MAGIC = b"RLAB"
FORMAT_VERSION = 1


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write magic, version, provenance block, count, events, payload CRC.

    The events are written from their array and checksummed in place.
    """
    meta = {"generator": dataset.config.to_dict(), "seed": dataset.seed}
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    events = np.ascontiguousarray(dataset.events, dtype="<f8")
    head = struct.pack("<I", len(blob)) + blob + struct.pack("<Q", len(dataset))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", FORMAT_VERSION))
        fh.write(head)
        fh.write(events)
        fh.write(struct.pack("<I", zlib.crc32(events, zlib.crc32(head))))


def _read_payload(fh, length: int) -> tuple[bytes, np.ndarray | None, int]:
    """(head, events, CRC) of the `length` payload bytes at fh's position.

    When the count fits the payload exactly, head is the bytes before the
    events, which are read straight into their array.  Otherwise the events
    are None and head is the whole payload, for the checks to find the fault.
    """
    head = fh.read(min(4, length))
    if len(head) == 4:
        meta_end = 4 + struct.unpack("<I", head)[0]
        if meta_end + 8 <= length:
            head += fh.read(meta_end + 8 - 4)
            (count,) = struct.unpack_from("<Q", head, meta_end)
            if count * _EVENT_WIDTH * 8 == length - len(head):
                events = np.empty((count, _EVENT_WIDTH), "<f8")
                fh.readinto(events)
                return head, events, zlib.crc32(events, zlib.crc32(head))
    head += fh.read(length - len(head))
    return head, None, zlib.crc32(head)


def load_dataset(path: str) -> Dataset:
    """Inverse of save_dataset; any inconsistency raises DatasetFormatError.

    So does an invalid generator config, a non-finite value or an energy
    that is not above 0: the first bad event is named.  The events are read
    once, into the array returned.
    """
    with open(os.fspath(path), "rb") as fh:     # open() takes an int or a bool as a fd
        size = os.fstat(fh.fileno()).st_size
        start = fh.read(6)
        if size < 10 or start[:4] != MAGIC:
            raise DatasetFormatError(f"{path}: not a dataset file (bad magic)")
        (version,) = struct.unpack_from("<H", start, 4)
        if version != FORMAT_VERSION:
            raise DatasetFormatError(f"{path}: unsupported format version {version}")
        length = size - 10
        head, m, crc = _read_payload(fh, length)
        if size < 14 or fh.read(4) != struct.pack("<I", crc):
            raise DatasetFormatError(f"{path}: checksum mismatch (truncated or corrupt)")
    (blob_len,) = struct.unpack_from("<I", head, 0)
    meta_end = 4 + blob_len
    try:
        meta = json.loads(head[4:meta_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DatasetFormatError(f"{path}: bad provenance block: {e}") from None
    if not isinstance(meta, dict) or "generator" not in meta:
        raise DatasetFormatError(f"{path}: provenance block has no generator config")
    try:
        cfg = GeneratorConfig(**meta["generator"])
    except (TypeError, ValueError) as e:
        raise DatasetFormatError(f"{path}: bad generator config: {e}") from None
    if meta_end + 8 > length:
        raise DatasetFormatError(f"{path}: event count lies past the payload end")
    if m is None:
        (count,) = struct.unpack_from("<Q", head, meta_end)
        raise DatasetFormatError(f"{path}: expected {count * _EVENT_WIDTH * 8} event bytes, "
                                 f"found {length - meta_end - 8}")
    finite = np.isfinite(m).all(axis=1)
    bad = ~finite | ~(m[:, CELLS] > 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        what = "a non-finite value" if not finite[i] else f"energy {m[i, CELLS]!r}, not above 0"
        raise DatasetFormatError(f"{path}: event {i} holds {what}")
    return Dataset(m, cfg, seed=meta.get("seed"))
