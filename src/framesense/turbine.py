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
from dataclasses import dataclass, field, replace
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

    def to_json(self):
        return {"kind": self.kind, "gear": self.gear, "multiplier": self.multiplier}

    @classmethod
    def from_json(cls, doc):
        return cls(doc["kind"], doc.get("gear"), doc.get("multiplier", 1.0))


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


def health_project(spectrum, line_bins) -> np.ndarray:
    """Magnitudes at the significant line bins: the R^28 health image."""
    spectrum = np.asarray(spectrum)
    line_bins = np.asarray(line_bins, dtype=int)
    if len(set(line_bins.tolist())) != line_bins.size:
        raise ValueError("line bins must be distinct")
    if np.any(line_bins < 0) or np.any(line_bins >= spectrum.shape[-1]):
        raise ValueError("line bin out of spectrum range")
    return np.abs(spectrum[..., line_bins])


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


def _fmt(x: float) -> str:
    return repr(float(x))


def save_dataset(ds: Dataset, out_dir) -> Path:
    """Persist a dataset directory: manifest.json plus health.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": {
            "dft_size": ds.cfg.dft_size,
            "sample_rate": ds.cfg.sample_rate,
            "snr_db": ds.cfg.snr_db,
            "resolved_sigma": ds.sigma,
            "failed_sensors": sorted(ds.cfg.failed_sensors),
            "rng_seed": ds.cfg.rng_seed,
            "samples_per_state": ds.cfg.samples_per_state,
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
            {
                "engine_id": m.engine_id,
                "turbine_shaft_freqs": list(m.turbine_shaft_freqs),
                "blade_counts": list(m.blade_counts),
                "gear_ratios": list(m.gear_ratios),
                "line_amplitudes": list(m.line_amplitudes),
                "line_frequencies": m.line_frequencies().tolist(),
            }
            for m in ds.fleet
        ],
        "mixing": ds.mixing.tolist(),
        "line_bins": ds.line_bins.tolist(),
        "conditions": [
            {"name": name, "states": [st.to_json() for st in states]}
            for name, states in ds.conditions
        ],
        "files": {"health": "health.csv", "spectra": ds.spectra_files or None},
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    n_coords = ds.healths.shape[-1]
    header = "state,sample,sensor," + ",".join(f"m{i:02d}" for i in range(n_coords))
    lines = [header]
    for c, (name, _) in enumerate(ds.conditions):
        for m in range(ds.healths.shape[1]):
            for j in range(SENSORS):
                row = ",".join(_fmt(x) for x in ds.healths[c, m, j])
                lines.append(f"{name},{m},{j},{row}")
    (out / "health.csv").write_text("\n".join(lines) + "\n")
    return out


def load_dataset(path) -> Dataset:
    path = Path(path)
    with open(path / "manifest.json") as fh:
        manifest = json.load(fh)
    cfgdoc = manifest["config"]
    # Only the SimConfig keys are read: older manifests carry one more noise
    # key, and ``resolved_sigma`` is the level the healths were drawn with.
    cfg = SimConfig(
        dft_size=cfgdoc["dft_size"],
        sample_rate=cfgdoc["sample_rate"],
        snr_db=cfgdoc["snr_db"],
        failed_sensors=frozenset(cfgdoc["failed_sensors"]),
        rng_seed=cfgdoc["rng_seed"],
        samples_per_state=cfgdoc["samples_per_state"],
    )
    fleet = tuple(
        EngineModel(
            engine_id=doc["engine_id"],
            turbine_shaft_freqs=tuple(doc["turbine_shaft_freqs"]),
            blade_counts=tuple(doc["blade_counts"]),
            gear_ratios=tuple(doc["gear_ratios"]),
            line_amplitudes=tuple(doc["line_amplitudes"]),
        )
        for doc in manifest["fleet"]
    )
    conditions = tuple(
        (doc["name"], tuple(FaultState.from_json(st) for st in doc["states"]))
        for doc in manifest["conditions"]
    )
    line_bins = np.array(manifest["line_bins"], dtype=int)
    csv_path = path / "health.csv"
    rows = csv_path.read_text().strip().split("\n")[1:]
    shape = (len(conditions), cfg.samples_per_state, SENSORS, line_bins.size)
    if len(rows) != shape[0] * shape[1] * shape[2]:
        raise ValueError(
            f"{csv_path}: {len(rows)} rows, expected "
            f"{shape[0]} states x {shape[1]} samples x {shape[2]} sensors"
        )
    # With the row count right, a repeated row leaves some cell unwritten:
    # every cell must end up finite.
    healths = np.full(shape, np.nan)
    name_to_c = {name: c for c, (name, _) in enumerate(conditions)}
    for row in rows:
        parts = row.split(",")
        if len(parts) != 3 + shape[3]:
            raise ValueError(f"{csv_path}: row {parts[:3]} has {len(parts)} columns")
        c, m, j = name_to_c.get(parts[0]), int(parts[1]), int(parts[2])
        if c is None or not (0 <= m < shape[1] and 0 <= j < shape[2]):
            raise ValueError(f"{csv_path}: unknown or out-of-range row {parts[:3]}")
        healths[c, m, j] = [float(x) for x in parts[3:]]
    if not np.all(np.isfinite(healths)):
        raise ValueError(f"{csv_path}: repeated row or non-finite health value")
    return Dataset(
        healths=healths,
        conditions=conditions,
        cfg=cfg,
        mixing=np.asarray(manifest["mixing"], dtype=float),
        fleet=fleet,
        line_bins=line_bins,
        sigma=cfgdoc["resolved_sigma"],
        spectra_files=manifest["files"].get("spectra") or {},
    )


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
