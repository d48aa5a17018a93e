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
no tone is ever synthesized.  The noise is drawn in the frequency domain
too: the DFT of N i.i.d. N(0, sigma^2) samples has independent bins, each
interior bin with independent real and imaginary parts of variance
sigma^2 N / 2, and DC and Nyquist real with variance sigma^2 N.  A sample
therefore draws noise at the 28 line bins only, and at the other bins only
when a caller reads the full spectrum.

Dataset generation is deterministic: each sample's noise comes from a
counter-based generator keyed on (seed, condition, sample), so parallel and
serial runs agree byte for byte.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .scenario import HealthMap, Scenario

LINES_PER_ENGINE = 7
SENSORS = 4

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
    line SNR_REFERENCE_MARGIN_DB above that level.
    """
    if cfg.snr_db is None:
        return 0.0
    a_min = min(min(m.line_amplitudes) for m in fleet)
    kappa = 10.0 ** ((cfg.snr_db + SNR_REFERENCE_MARGIN_DB) / 20.0)
    return float(a_min * np.sqrt(cfg.dft_size / 2.0) / kappa)


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


@dataclass(frozen=True)
class SampleRecord:
    condition: int
    condition_name: str
    sample: int
    healths: np.ndarray  # (SENSORS, 28) magnitudes at the line bins
    states: tuple
    # (SENSORS, dft_size // 2 + 1) complex DFT, bins 0..N/2; built only by
    # ``iter_samples(..., full_spectra=True)``.
    half_spectrum: np.ndarray | None = None

    @property
    def spectra(self) -> np.ndarray:
        """(SENSORS, dft_size) magnitude spectra.

        The sensor blocks are real, so ``|X[N - k]| = |X[k]|`` and the upper
        half mirrors bins ``N/2 - 1 .. 1``.
        """
        if self.half_spectrum is None:
            raise ValueError("record was streamed without full_spectra")
        mag = np.abs(self.half_spectrum)
        return np.concatenate([mag, mag[:, -2:0:-1]], axis=-1)


def _sample_rng(seed: int, condition: int, sample: int) -> np.random.Generator:
    key = np.array(
        [seed & (2**64 - 1), ((condition & 0xFFFFFFFF) << 32) | (sample & 0xFFFFFFFF)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def iter_samples(fleet, mixing, cfg: SimConfig, conditions, full_spectra: bool = False):
    """Stream deterministic samples for each (condition, sample) pair.

    A sample's sensor spectrum is the condition's closed-form line spectrum
    (``line_spectrum``) plus the DFT of that sample's white-noise block,
    drawn bin by bin in the frequency domain; failed sensors read exactly
    zero.  The sample's generator first draws ``z`` of shape (2, SENSORS,
    28), the line-bin noise ``sigma sqrt(N/2) (z[0] + i z[1])``.  With
    ``full_spectra`` it goes on to draw the remaining bins 0..N/2 in
    ascending order, so a sample's healths do not depend on whether its
    full spectrum (``SampleRecord.half_spectrum``) is built.
    """
    bins = fleet_line_bins(fleet, cfg)
    sigma = resolve_sigma(cfg, fleet)
    failed = sorted(cfg.failed_sensors)
    n = cfg.dft_size
    line_scale = sigma * np.sqrt(n / 2)
    if full_spectra:
        rest = np.setdiff1d(np.arange(n // 2 + 1), bins)
        # Interior bins: complex, each part of variance sigma^2 N/2.  DC and
        # Nyquist: real, variance sigma^2 N.
        edge = (rest == 0) | (rest == n // 2)
        re_scale = np.where(edge, sigma * np.sqrt(n), line_scale)
        im_scale = np.where(edge, 0.0, line_scale)
    for c, (name, states) in enumerate(conditions):
        lines = line_spectrum(fleet, states, mixing, cfg)
        # Every noise-free record of this condition shares these arrays.
        clean_healths = np.abs(lines)
        clean_healths.setflags(write=False)
        clean = None
        if full_spectra:
            clean = np.zeros((SENSORS, n // 2 + 1), dtype=np.complex128)
            clean[:, bins] = lines
            clean.setflags(write=False)
        for m in range(cfg.samples_per_state):
            if sigma > 0:
                rng = _sample_rng(cfg.rng_seed, c, m)
                z = rng.standard_normal((2, SENSORS, bins.size))
                values = lines + line_scale * (z[0] + 1j * z[1])
                values[failed] = 0.0
                half = None
                if full_spectra:
                    z = rng.standard_normal((2, SENSORS, rest.size))
                    half = np.empty((SENSORS, n // 2 + 1), dtype=np.complex128)
                    half[:, bins] = values
                    half[:, rest] = re_scale * z[0] + 1j * (im_scale * z[1])
                    half[failed] = 0.0
                yield SampleRecord(c, name, m, np.abs(values), states, half)
            else:
                yield SampleRecord(c, name, m, clean_healths, states, clean)


@dataclass
class Dataset:
    """Labeled health images for a grid of fault conditions."""

    healths: np.ndarray  # (conditions, samples, SENSORS, 28)
    conditions: tuple  # ((name, states), ...)
    cfg: SimConfig
    mixing: np.ndarray
    fleet: tuple
    line_bins: np.ndarray
    sigma: float
    spectra_files: dict = field(default_factory=dict)

    @property
    def condition_names(self) -> tuple:
        return tuple(name for name, _ in self.conditions)


def generate_dataset(
    fleet, mixing, cfg: SimConfig, conditions, spectra_dir: Path | None = None
) -> Dataset:
    """Materialize the health images for every condition and sample.

    When ``spectra_dir`` is given the full magnitude spectra are streamed to
    one raw little-endian float64 file per condition.
    """
    mixing = validate_mixing(mixing)
    bins = fleet_line_bins(fleet, cfg)
    healths = np.zeros(
        (len(conditions), cfg.samples_per_state, SENSORS, bins.size)
    )
    sinks = {}
    spectra_files = {}
    if spectra_dir is not None:
        spectra_dir = Path(spectra_dir)
        spectra_dir.mkdir(parents=True, exist_ok=True)
    for rec in iter_samples(
        fleet, mixing, cfg, conditions, full_spectra=spectra_dir is not None
    ):
        healths[rec.condition, rec.sample] = rec.healths
        if spectra_dir is not None:
            if rec.condition not in sinks:
                path = spectra_dir / f"spectra_{rec.condition:02d}_{rec.condition_name}.f64"
                sinks[rec.condition] = open(path, "wb")
                spectra_files[rec.condition_name] = path.name
            sinks[rec.condition].write(
                np.ascontiguousarray(rec.spectra, dtype="<f8").tobytes()
            )
    for handle in sinks.values():
        handle.close()
    return Dataset(
        healths=healths,
        conditions=tuple(conditions),
        cfg=cfg,
        mixing=mixing,
        fleet=tuple(fleet),
        line_bins=bins,
        sigma=resolve_sigma(cfg, fleet),
        spectra_files=spectra_files,
    )


def _row_keys(conditions, samples: int) -> list:
    """The ``state,sample,sensor,`` prefix of every health.csv row, in file order."""
    return [
        f"{name},{m},{j},"
        for name, _ in conditions for m in range(samples) for j in range(SENSORS)
    ]


def save_dataset(ds: Dataset, out_dir) -> Path:
    """Persist a dataset directory: manifest.json plus health.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": {
            **asdict(ds.cfg),
            "failed_sensors": sorted(ds.cfg.failed_sensors),
            "resolved_sigma": ds.sigma,
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
            for m in ds.fleet
        ],
        "mixing": ds.mixing.tolist(),
        "line_bins": ds.line_bins.tolist(),
        "conditions": [
            {"name": name, "states": [asdict(st) for st in states]}
            for name, states in ds.conditions
        ],
        "files": {"health": "health.csv", "spectra": ds.spectra_files or None},
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    n_coords = ds.healths.shape[-1]
    header = "state,sample,sensor," + ",".join(f"m{i:02d}" for i in range(n_coords))
    keys = _row_keys(ds.conditions, ds.healths.shape[1])
    rows = ds.healths.reshape(-1, n_coords).tolist()
    lines = [header] + [key + ",".join(map(repr, row)) for key, row in zip(keys, rows)]
    (out / "health.csv").write_text("\n".join(lines) + "\n")
    return out


# The JSON types save_dataset writes for each field type of SimConfig,
# EngineModel and FaultState; a type "float | None" takes either.
_JSON_TYPES = {"int": {int}, "float": {int, float}, "None": {type(None)}, "str": {str},
               "frozenset": {list}, "tuple": {list}}


def _manifest_value(doc, key: str, kind: str, name: str):
    """``doc[key]`` if it has a JSON type ``save_dataset`` writes for ``kind``."""
    value = doc[key]
    if not any(type(value) in _JSON_TYPES[t] for t in kind.split(" | ")):
        raise ValueError(f"key '{name}.{key}' has a bad value {value!r}")
    return tuple(value) if type(value) is list else value


def _manifest_fields(cls, doc, name: str) -> dict:
    """``cls``'s fields from manifest object ``doc``; other keys are ignored."""
    return {f.name: _manifest_value(doc, f.name, f.type, name) for f in fields(cls)}


def _read_manifest(doc) -> dict:
    """The Dataset fields a manifest holds: everything but the healths."""
    conditions = tuple(
        (_manifest_value(c, "name", "str", "conditions"),
         tuple(FaultState(**_manifest_fields(FaultState, st, "states")) for st in c["states"]))
        for c in doc["conditions"]
    )
    if not conditions:
        raise ValueError("key 'conditions' is empty")
    cfg = SimConfig(**_manifest_fields(SimConfig, doc["config"], "config"))
    fleet = tuple(
        EngineModel(**_manifest_fields(EngineModel, m, "fleet")) for m in doc["fleet"]
    )
    # Both are derived from config and fleet; a manifest must not contradict them.
    sigma = _manifest_value(doc["config"], "resolved_sigma", "float", "config")
    if sigma != resolve_sigma(cfg, fleet):
        raise ValueError(f"key 'config.resolved_sigma' is {sigma!r} but config and "
                         f"fleet give {resolve_sigma(cfg, fleet)!r}")
    line_bins = fleet_line_bins(fleet, cfg)
    if doc["line_bins"] != line_bins.tolist():
        raise ValueError("key 'line_bins' does not match the line bins of config and fleet")
    return dict(
        cfg=cfg,
        fleet=fleet,
        conditions=conditions,
        mixing=np.asarray(doc["mixing"], dtype=float),
        line_bins=line_bins,
        sigma=sigma,
        spectra_files=doc["files"].get("spectra") or {},
    )


def load_dataset(path) -> Dataset:
    """Read a ``save_dataset`` directory; rows must come in the order it writes them."""
    path = Path(path)
    with open(path / "manifest.json") as fh:
        manifest = json.load(fh)
    try:
        meta = _read_manifest(manifest)
    except KeyError as err:
        raise ValueError(f"{path / 'manifest.json'}: key {err} is missing") from None
    except (AttributeError, TypeError, ValueError) as err:
        raise ValueError(f"{path / 'manifest.json'}: {err}") from None
    csv_path = path / "health.csv"
    states, samples = len(meta["conditions"]), meta["cfg"].samples_per_state
    keys = _row_keys(meta["conditions"], samples)
    rows = csv_path.read_text().strip().split("\n")[1:]
    if len(rows) != len(keys):
        raise ValueError(
            f"{csv_path}: {len(rows)} rows, expected "
            f"{states} states x {samples} samples x {SENSORS} sensors"
        )
    bad = next((i for i, (r, k) in enumerate(zip(rows, keys)) if not r.startswith(k)), None)
    if bad is not None:
        raise ValueError(f"{csv_path}: data row {bad + 1} does not start with {keys[bad]!r}: "
                         "a missing, repeated, reordered or out-of-range row")
    remainders = [row[len(key):] for row, key in zip(rows, keys)]
    if "" in remainders:  # np.loadtxt would skip the empty line
        raise ValueError(f"{csv_path}: data row {remainders.index('') + 1} has no values")
    try:
        values = np.loadtxt(remainders, delimiter=",", comments=None, ndmin=2)
    except ValueError as err:
        raise ValueError(f"{csv_path}: {err}") from None
    n_coords = meta["line_bins"].size
    if values.shape != (len(keys), n_coords) or not np.all(np.isfinite(values)):
        raise ValueError(f"{csv_path}: every row needs {n_coords} finite value columns")
    return Dataset(healths=values.reshape(states, samples, SENSORS, n_coords), **meta)


def dataset_scenario(fleet, mixing, cfg: SimConfig, fleet_states_per_time) -> Scenario:
    """Expose generated sensor spectra as a sensing scenario.

    Readings are the magnitude spectra (one time index per entry of
    ``fleet_states_per_time``), the covering is everything, the partition
    gives each engine's line bins to its own sensor (leftover bins spread
    round-robin), and the health map selects the 28 line bins.
    """
    mixing = validate_mixing(mixing)
    bins = fleet_line_bins(fleet, cfg)
    conditions = [(f"t{k}", states) for k, states in enumerate(fleet_states_per_time)]
    cfg_one = replace(cfg, samples_per_state=1)
    readings = np.zeros((SENSORS, len(conditions), cfg.dft_size), dtype=np.complex128)
    for rec in iter_samples(fleet, mixing, cfg_one, conditions, full_spectra=True):
        readings[:, rec.condition, :] = rec.spectra
    owner = np.full(cfg.dft_size, -1, dtype=int)
    for h in range(SENSORS):
        owner[bins[h * LINES_PER_ENGINE : (h + 1) * LINES_PER_ENGINE]] = h
    leftover = np.nonzero(owner < 0)[0]
    owner[leftover] = leftover % SENSORS
    partition = tuple(
        frozenset(np.nonzero(owner == j)[0].tolist()) for j in range(SENSORS)
    )
    covering = (frozenset(range(cfg.dft_size)),) * SENSORS
    health = HealthMap.selection(bins.size, [(int(b), 1.0) for b in bins])
    return Scenario(covering, partition, readings, health)
