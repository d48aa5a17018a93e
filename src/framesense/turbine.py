"""Synthetic multi-engine vibration data with spectral-line health projection.

Four engines each radiate 7 spectral lines (2 shafts, 2 blade passes, 3
gears).  A nonnegative mixing matrix sets how loudly each engine registers
at each of the 4 sensors, white Gaussian noise is added per time sample,
failed sensors emit identically zero blocks, and every sensor block is
seen through an 8192-point DFT.  The health map keeps the magnitudes at
the 28 known line bins, giving one R^28 health image per sensor per block.

All shaft frequencies are chosen so every derived line lands exactly on a
DFT bin; blocks are then periodic and line magnitudes are time-independent
at zero noise, which keeps the downstream detection contracts exact.  It
also gives the noise-free spectrum in closed form (``line_spectrum``), so
no tone is ever synthesized, and every other bin of a noise-free block is
exactly 0.  The noise is drawn in the frequency domain too: the DFT of N
i.i.d. N(0, sigma^2) samples has independent bins, each interior bin with
independent real and imaginary parts of variance sigma^2 N / 2.  Every
command reads the 28 line bins alone, so only those bins are simulated.

Dataset generation is deterministic: each sample's noise comes from a
counter-based generator keyed on (seed, condition, sample), so parallel and
serial runs agree byte for byte.  The draw is batched per condition: one
Philox generator, re-keyed per sample through its ``state``, fills a
``(samples, 2, 4, 28)`` buffer, and one array step takes the magnitudes.

A saved dataset directory holds ``health.csv`` (the healths as shortest
round-trip decimals, for people and other tools), ``health.npy`` (the same
array in NumPy's ``.npy`` format, which is what ``load_dataset`` reads) and,
written last, ``manifest.json``, which records the model and the sha256 of
both health files.  A directory is read only as ``save_dataset`` wrote it.
"""

from __future__ import annotations

import io
import json
import numbers
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .scenario import Scenario

LINES_PER_ENGINE = 7
SENSORS = 4
# Every health must stay below this bound: the frame pipeline sums healths over
# the sensors, and the half leaves room for rounding.
MAX_HEALTH = sys.float_info.max / 2 / SENSORS

# Calibration constant of the SNR scale: at snr_db = 0 the weakest line's
# DFT magnitude sits this many dB above the per-component noise level in its
# bin.  -18 dB then puts the weakest line at the noise level.
SNR_REFERENCE_MARGIN_DB = 18.0


@dataclass(frozen=True)
class EngineModel:
    """Spectral-line model of one engine: two shafted turbines with gears.

    Each turbine contributes its shaft rotation line and a blade-pass line
    (shaft frequency times blade count); gear 1 rides turbine 1 and gears
    2-3 ride turbine 2, each contributing ratio * shaft frequency.
    """

    engine_id: int
    turbine_shaft_freqs: tuple = (40.0, 112.0)
    blade_counts: tuple = (20, 24)
    gear_ratios: tuple = (1.5, 2.25, 3.75)
    line_amplitudes: tuple = (1.0, 0.9, 0.6, 0.5, 0.7, 0.65, 0.55)

    def line_frequencies(self) -> np.ndarray:
        """The 7 line frequencies: shafts, blade passes, gears (Hz)."""
        s1, s2 = self.turbine_shaft_freqs
        b1, b2 = self.blade_counts
        r1, r2, r3 = self.gear_ratios
        return np.array([s1, s2, b1 * s1, b2 * s2, r1 * s1, r2 * s2, r3 * s2])


def default_fleet() -> tuple:
    """Four engines with staggered shaft speeds, all 28 lines distinct and on-bin."""
    return tuple(
        EngineModel(
            engine_id=e,
            turbine_shaft_freqs=(40.0 + 16.0 * (e - 1), 112.0 + 32.0 * (e - 1)),
        )
        for e in range(1, SENSORS + 1)
    )


@dataclass(frozen=True)
class FaultState:
    """Per-engine condition: normal, one amplified gear line, or dead."""

    kind: str = "normal"  # "normal" | "gear_fault" | "failure"
    gear: int | None = None  # 1-based gear index for gear_fault
    multiplier: float = 1.0

    def __post_init__(self):
        if self.kind not in ("normal", "gear_fault", "failure"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == "gear_fault" and self.gear not in (1, 2, 3):
            raise ValueError("gear_fault needs a gear index in 1..3")
        # |-k a| = k a: a negative multiplier would pass for a plausible fault.
        if not 0 <= self.multiplier < np.inf:
            raise ValueError(
                f"fault multiplier must be finite and nonnegative, got {self.multiplier!r}"
            )

    @classmethod
    def normal(cls):
        return cls()

    @classmethod
    def gear_fault(cls, gear: int, multiplier: float):
        return cls(kind="gear_fault", gear=gear, multiplier=multiplier)

    @classmethod
    def failure(cls):
        return cls(kind="failure")

    def amplitudes(self, model: EngineModel) -> np.ndarray:
        amps = np.array(model.line_amplitudes, dtype=np.float64)
        if self.kind == "failure":
            return np.zeros_like(amps)
        if self.kind == "gear_fault":
            amps[4 + self.gear - 1] *= self.multiplier
        return amps


def mixing_matrix(off_diagonal: float = 0.1) -> np.ndarray:
    """Relative volume of engine h at sensor j: nominal on the diagonal."""
    a = np.full((SENSORS, SENSORS), float(off_diagonal))
    np.fill_diagonal(a, 1.0)
    return validate_mixing(a)


def validate_mixing(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (SENSORS, SENSORS):
        raise ValueError(f"mixing matrix must be {SENSORS}x{SENSORS}")
    if not np.all(np.isfinite(a)):
        raise ValueError("mixing entries must be finite")
    if np.any(a < 0):
        raise ValueError("mixing entries must be nonnegative")
    if not np.allclose(np.diag(a), 1.0):
        raise ValueError("own-engine volume must be nominal (diagonal 1)")
    if np.any(a - np.diag(np.diag(a)) > 1.0):
        raise ValueError("cross-engine volumes cannot exceed nominal")
    return a


@dataclass(frozen=True)
class SimConfig:
    dft_size: int = 8192
    sample_rate: float = 32768.0
    snr_db: float | None = None  # None: noise-free
    failed_sensors: frozenset = frozenset()
    rng_seed: int = 20260808
    samples_per_state: int = 64

    def __post_init__(self):
        if self.dft_size <= 0 or self.dft_size & (self.dft_size - 1):
            raise ValueError("dft_size must be a power of two")
        # Bin indices are int64 and the SNR scale is float64; past int64 one
        # of them would overflow, so refuse before any work.
        if self.dft_size > np.iinfo(np.int64).max:
            raise ValueError(f"dft_size 2**{self.dft_size.bit_length() - 1} does not fit in int64")
        # NaN would pass every comparison and silently mean noise-free.
        if self.snr_db is not None and not -np.inf < self.snr_db < np.inf:
            raise ValueError(f"snr_db must be a finite number or None, got {self.snr_db!r}")
        if not isinstance(self.samples_per_state, numbers.Integral):
            raise ValueError("samples_per_state must be an integer")
        if self.samples_per_state < 1:
            raise ValueError("samples_per_state must be at least 1")
        object.__setattr__(
            self, "failed_sensors", frozenset(int(j) for j in self.failed_sensors)
        )

    @property
    def bin_width(self) -> float:
        return self.sample_rate / self.dft_size


def resolve_sigma(cfg: SimConfig, fleet) -> float:
    """Per-sample noise standard deviation realizing ``cfg.snr_db``; 0 when None.

    The scale is anchored on the weakest line in the fleet: its DFT bin
    magnitude is a_min * dft_size / 2 while per-bin noise components have
    standard deviation sigma * sqrt(dft_size / 2), and snr_db = 0 places the
    line SNR_REFERENCE_MARGIN_DB above that level.  An snr_db so extreme that
    sigma is not a finite positive number is a ValueError.
    """
    if cfg.snr_db is None:
        return 0.0
    a_min = min(min(m.line_amplitudes) for m in fleet)
    scale = float(a_min * np.sqrt(cfg.dft_size / 2.0))
    try:
        sigma = scale / 10.0 ** ((cfg.snr_db + SNR_REFERENCE_MARGIN_DB) / 20.0)
    except (OverflowError, ZeroDivisionError):  # 10 ** x overflowed or underflowed to 0
        sigma = np.nan
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"snr_db {cfg.snr_db} gives no finite positive noise level")
    return sigma


def fleet_line_bins(fleet, cfg: SimConfig) -> np.ndarray:
    """The 28 DFT bin indices, engine-major.

    Every line must be distinct, on a bin, and strictly between 0 Hz and the
    Nyquist frequency: ``line_spectrum``'s closed form holds only for the
    interior bins ``0 < b < N/2``.
    """
    bins = []
    nyquist = cfg.sample_rate / 2.0
    for model in fleet:
        for f in model.line_frequencies():
            if f <= 0:
                raise ValueError(f"line at {f} Hz is not above 0 Hz")
            if f >= nyquist:
                raise ValueError(
                    f"line at {f} Hz exceeds the Nyquist frequency {nyquist} Hz"
                )
            b = f / cfg.bin_width
            if abs(b - round(b)) > 1e-9:
                raise ValueError(f"line at {f} Hz does not land on a DFT bin")
            bins.append(int(round(b)))
    if len(set(bins)) != len(bins):
        raise ValueError("fleet spectral lines are not pairwise distinct")
    return np.array(bins, dtype=int)


def line_phases(seed: int, engine_id: int, n_lines: int = LINES_PER_ENGINE) -> np.ndarray:
    """Per-line phase offsets, fixed by the seed and independent of sampling."""
    key = np.array([seed & (2**64 - 1), (1 << 62) + engine_id], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.uniform(0.0, 2.0 * np.pi, n_lines)


def line_spectrum(fleet, states, mixing, cfg: SimConfig) -> np.ndarray:
    """Noise-free sensor DFT values at the fleet's line bins, in closed form.

    Engine h's line l, ``a_l sin(2 pi f_l t / fs + phi_l)`` with ``f_l`` on an
    interior bin b, has the rectangular-window DFT ``a_l N/2 exp(i(phi_l -
    pi/2))`` at bin b and exactly 0 at every other bin of ``0..N/2``
    (Oppenheim & Schafer, Discrete-Time Signal Processing, ch. 8).  Blocks
    start at whole multiples of N, so every block has this spectrum.  Sensor
    j hears ``mixing[j, h]`` times engine h; failed sensors hear nothing.

    Returns a (SENSORS, 28) complex array, columns ordered as
    ``fleet_line_bins``.
    """
    mixing = validate_mixing(mixing)
    fleet_line_bins(fleet, cfg)  # the closed form needs distinct interior bins
    if len(fleet) != mixing.shape[1]:
        raise ValueError("one engine per mixing column required")
    if len(states) != len(fleet):
        raise ValueError("one fault state per engine required")
    lines = np.stack(
        [
            state.amplitudes(model)
            * np.exp(1j * (line_phases(cfg.rng_seed, model.engine_id) - np.pi / 2))
            for model, state in zip(fleet, states)
        ]
    ) * (cfg.dft_size / 2)
    values = (mixing[:, :, None] * lines[None]).reshape(SENSORS, -1)
    values[sorted(cfg.failed_sensors)] = 0.0
    return values


def normal_fleet_state() -> tuple:
    return tuple(FaultState.normal() for _ in range(SENSORS))


def engine1_conditions(fault_gear: int = 1, fault_multiplier: float = 12.0) -> tuple:
    """The three standard conditions: engine 1 normal / gear fault / failed."""
    normal = normal_fleet_state()
    fault = (FaultState.gear_fault(fault_gear, fault_multiplier),) + normal[1:]
    failure = (FaultState.failure(),) + normal[1:]
    return (("normal", normal), ("fault", fault), ("failure", failure))


# Above every |Generator.standard_normal()|: NumPy's ziggurat gives |z| < r = 3.654 off its
# tail and r + x on it, where x**2 < -2 log(1 - u) for a double u <= 1 - 2**-53, so |z| < 12.23.
STANDARD_NORMAL_MAX = 12.5


def _sample_key(seed: int, condition: int, sample: int) -> np.ndarray:
    """The Philox key of sample ``sample`` of condition ``condition``."""
    return np.array(
        [seed & (2**64 - 1), ((condition & 0xFFFFFFFF) << 32) | (sample & 0xFFFFFFFF)],
        dtype=np.uint64,
    )


def _sample_rng(seed: int, condition: int, sample: int) -> np.random.Generator:
    """The generator of one sample's noise, as ``generate_dataset`` draws it."""
    return np.random.Generator(np.random.Philox(key=_sample_key(seed, condition, sample)))


@dataclass
class Dataset:
    """Labeled health images for a grid of fault conditions."""

    healths: np.ndarray  # (conditions, samples, SENSORS, 28)
    conditions: tuple  # ((name, states), ...)
    cfg: SimConfig
    mixing: np.ndarray
    fleet: tuple

    @property
    def condition_names(self) -> tuple:
        return tuple(name for name, _ in self.conditions)

    @property
    def sigma(self) -> float:
        return resolve_sigma(self.cfg, self.fleet)


def generate_dataset(fleet, mixing, cfg: SimConfig, conditions) -> Dataset:
    """Materialize the health images for every condition and sample.

    A sample's healths are the magnitudes of its condition's line spectrum
    (``line_spectrum``) plus the DFT of its white-noise block at the line
    bins; failed sensors read exactly zero.  Sample m of condition c draws
    ``z`` of shape (2, SENSORS, 28) from ``_sample_rng(seed, c, m)``, and
    its line-bin noise is ``sigma sqrt(N/2) (z[0] + i z[1])``.  Noise-free,
    every sample of a condition holds ``|line_spectrum|``.
    """
    mixing = validate_mixing(mixing)
    bins = fleet_line_bins(fleet, cfg)
    sigma = resolve_sigma(cfg, fleet)
    scale = sigma * np.sqrt(cfg.dft_size / 2)
    healths = np.empty((len(conditions), cfg.samples_per_state, SENSORS, bins.size))
    z = np.empty((cfg.samples_per_state, 2, SENSORS, bins.size))
    bitgen = np.random.Philox(key=_sample_key(cfg.rng_seed, 0, 0))
    rng = np.random.Generator(bitgen)
    # A freshly keyed state (counter 0, empty buffer): each sample re-keyed to it
    # draws exactly what its own ``_sample_rng`` generator would.
    keyed = bitgen.state
    for c, (_, states) in enumerate(conditions):
        lines = line_spectrum(fleet, states, mixing, cfg)
        if sigma == 0:
            healths[c] = np.abs(lines)
            continue
        for m in range(cfg.samples_per_state):
            keyed["state"]["key"] = _sample_key(cfg.rng_seed, c, m)
            bitgen.state = keyed
            rng.standard_normal(out=z[m])
        healths[c] = np.abs(lines + scale * (z[:, 0] + 1j * z[:, 1]))
    healths[:, :, sorted(cfg.failed_sensors)] = 0.0
    return Dataset(
        healths=healths,
        conditions=tuple(conditions),
        cfg=cfg,
        mixing=mixing,
        fleet=tuple(fleet),
    )


def health_bound(fleet, cfg: SimConfig, conditions) -> float:
    """A bound on every health ``generate_dataset`` gives here under any mixing (entries at most 1):
    amplitude N/2 plus noise sigma sqrt(N/2) sqrt(2) STANDARD_NORMAL_MAX; inf past float64."""
    peak = max(float(st.amplitudes(m).max()) for _, sts in conditions for m, st in zip(fleet, sts))
    noise = resolve_sigma(cfg, fleet) * cfg.dft_size**0.5 * STANDARD_NORMAL_MAX
    return peak * cfg.dft_size / 2 + noise


def _row_keys(conditions, samples: int) -> list:
    """The ``state,sample,sensor,`` prefix of every health.csv row, in file order."""
    return [
        f"{name},{m},{j},"
        for name, _ in conditions for m in range(samples) for j in range(SENSORS)
    ]


def _manifest(fleet, mixing, cfg: SimConfig, conditions) -> dict:
    """What ``manifest.json`` records of a dataset's model, that is all but ``files``."""
    return {
        "config": {
            **asdict(cfg),
            "failed_sensors": sorted(cfg.failed_sensors),
            "resolved_sigma": resolve_sigma(cfg, fleet),
        },
        "snr_model": {
            "reference_margin_db": SNR_REFERENCE_MARGIN_DB,
            "definition": (
                "snr_db = 0 places the weakest line's DFT magnitude "
                f"{SNR_REFERENCE_MARGIN_DB} dB above the per-component "
                "noise level in one bin"
            ),
        },
        "fleet": [
            {**asdict(m), "line_frequencies": m.line_frequencies().tolist()}
            for m in fleet
        ],
        "mixing": validate_mixing(mixing).tolist(),
        "line_bins": fleet_line_bins(fleet, cfg).tolist(),
        "conditions": [
            {"name": name, "states": [asdict(st) for st in states]}
            for name, states in conditions
        ],
    }


# The files ``save_dataset`` writes before ``manifest.json``, which records their sha256.
HEALTH_FILES = ("health.csv", "health.npy")


def _sha256(data: bytes) -> str:
    # Imported here: hashlib loads OpenSSL (about 2 MiB resident), which
    # only the commands that save or load a dataset need.
    import hashlib

    return hashlib.sha256(data).hexdigest()


def save_dataset(ds: Dataset, out_dir) -> Path:
    """Persist a dataset directory: health.csv, health.npy, then manifest.json.

    ``health.csv`` has one row per (state, sample, sensor) holding the 28
    healths as shortest round-trip decimals; ``health.npy`` holds the same
    ``(conditions, samples, SENSORS, 28)`` ``<f8`` array.  The manifest is
    written last, with the sha256 of both under ``files.sha256``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_coords = ds.healths.shape[-1]
    header = "state,sample,sensor," + ",".join(f"m{i:02d}" for i in range(n_coords))
    keys = _row_keys(ds.conditions, ds.healths.shape[1])
    rows = ds.healths.reshape(-1, n_coords).tolist()
    lines = [header] + [key + ",".join(map(repr, row)) for key, row in zip(keys, rows)]
    npy = io.BytesIO()
    np.save(npy, np.ascontiguousarray(ds.healths, dtype="<f8"), allow_pickle=False)
    digests = {}
    for name, data in zip(HEALTH_FILES, (("\n".join(lines) + "\n").encode(), npy.getvalue())):
        (out / name).write_bytes(data)
        digests[name] = _sha256(data)
    manifest = {**_manifest(ds.fleet, ds.mixing, ds.cfg, ds.conditions),
                "files": {"sha256": digests}}
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def _check_json(found, expected, obj: str, label: str) -> None:
    """Raise a ValueError at the first way JSON value ``found`` differs from ``expected``.

    Keys ``expected`` lacks are ignored; int, float and bool are distinct
    types.  A value is named ``'<object>.<field>'``: its key after its object's.
    """
    if type(expected) is dict:
        if type(found) is not dict:
            raise ValueError(f"key {label!r} is not an object")
        for key, value in expected.items():
            if key not in found:
                raise ValueError(f"key {key!r} is missing from {label!r}")
            _check_json(found[key], value, key, f"{obj}.{key}" if obj else key)
    elif type(expected) is list:
        if type(found) is not list or len(found) != len(expected):
            raise ValueError(f"key {label!r} is not a list of {len(expected)} entries")
        for f, e in zip(found, expected):
            _check_json(f, e, obj, label)
    elif type(found) is not type(expected) or found != expected:
        raise ValueError(f"key {label!r} is {found!r}, expected {expected!r}")


def load_dataset(path, fleet, mixing, cfg: SimConfig, conditions) -> Dataset:
    """Read a ``save_dataset`` directory as ``save_dataset`` wrote it.

    Its manifest must hold ``_manifest(fleet, mixing, cfg, conditions)`` as
    equal JSON, and each of ``HEALTH_FILES`` must have the sha256 the
    manifest records.  The healths come from ``health.npy``: a ``<f8``
    array of shape (states, samples_per_state, SENSORS, line bins), every
    value finite.  ``health.csv`` is checked by its digest only.
    """
    path = Path(path)
    with open(path / "manifest.json") as fh:
        found = json.load(fh)
    expected = json.loads(json.dumps(_manifest(fleet, mixing, cfg, conditions)))
    try:
        _check_json(found, expected, "", "manifest")
    except ValueError as err:
        raise ValueError(f"{path / 'manifest.json'}: {err}") from None
    blobs = {}
    for name in HEALTH_FILES:
        try:
            digest = found["files"]["sha256"][name]
        except (KeyError, TypeError):
            raise ValueError(
                f"{path / 'manifest.json'}: key 'files.sha256.{name}' is missing; "
                "a dataset from an older generate must be regenerated"
            ) from None
        blobs[name] = (path / name).read_bytes()
        if _sha256(blobs[name]) != digest:
            raise ValueError(f"{path / name}: sha256 differs from the one manifest.json "
                             "records; a dataset is read only as generate wrote it")
    npy_path = path / "health.npy"
    try:
        healths = np.load(io.BytesIO(blobs["health.npy"]), allow_pickle=False)
    except (ValueError, EOFError) as err:
        raise ValueError(f"{npy_path}: {err}") from None
    shape = (len(conditions), cfg.samples_per_state, SENSORS, len(expected["line_bins"]))
    if healths.dtype != np.dtype("<f8"):
        raise ValueError(f"{npy_path}: dtype {healths.dtype.str}, expected <f8")
    if healths.shape != shape:
        raise ValueError(f"{npy_path}: shape {healths.shape}, expected {shape}")
    if not np.all(np.isfinite(healths)):
        raise ValueError(f"{npy_path}: every health value must be finite")
    return Dataset(healths, tuple(conditions), cfg, validate_mixing(mixing), tuple(fleet))


def dataset_scenario(fleet, mixing, cfg: SimConfig, fleet_states_per_time) -> Scenario:
    """Expose noise-free sensor spectra as a sensing scenario.

    Readings are the magnitude spectra (one time index per entry of
    ``fleet_states_per_time``): ``|line_spectrum|`` at each line bin b and
    at its mirror N - b, since the sensor blocks are real, and 0 at every
    other bin.  The covering is everything, the partition gives each
    engine's line bins to its own sensor (leftover bins spread round-robin),
    and the health map selects the 28 line bins.  A cfg with ``snr_db`` set
    is a ValueError: a noisy spectrum is simulated at the line bins only.
    """
    from .scenario import HealthMap, Scenario

    if cfg.snr_db is not None:
        raise ValueError("dataset_scenario builds noise-free spectra; cfg.snr_db must be None")
    bins = fleet_line_bins(fleet, cfg)
    n = cfg.dft_size
    readings = np.zeros((SENSORS, len(fleet_states_per_time), n), dtype=np.complex128)
    for k, states in enumerate(fleet_states_per_time):
        magnitudes = np.abs(line_spectrum(fleet, states, mixing, cfg))
        readings[:, k, bins] = magnitudes
        readings[:, k, n - bins] = magnitudes
    owner = np.full(n, -1, dtype=int)
    for h in range(SENSORS):
        owner[bins[h * LINES_PER_ENGINE : (h + 1) * LINES_PER_ENGINE]] = h
    leftover = np.nonzero(owner < 0)[0]
    owner[leftover] = leftover % SENSORS
    partition = tuple(
        frozenset(np.nonzero(owner == j)[0].tolist()) for j in range(SENSORS)
    )
    covering = (frozenset(range(n)),) * SENSORS
    health = HealthMap.selection(bins.size, [(int(b), 1.0) for b in bins])
    return Scenario(covering, partition, readings, health)
