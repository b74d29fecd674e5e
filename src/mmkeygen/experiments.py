"""Experiment orchestration: config files, scenario presets, CSV tables.

Config files are line-oriented ``key = value`` text with optional
``[section]`` headers.  Values are integers, reals, quoted strings, or
comma-separated numeric arrays.  The ``scenario`` and ``master_seed`` keys
are required; everything else falls back to per-scenario defaults.

Scenario presets:

* ``fig2``  - beam-perturbation keying: bit agreement for the legitimate
  link and a co-located eavesdropper, for array cases 32x16 and 16x8 (Alice
  x Bob antennas) and both eavesdropper placements.
* ``fig3``  - angular-domain extraction vs per-entry channel quantization:
  bit disagreement over SNR for 128- and 64-element ULAs.
* ``fig4``  - multi-resolution probing vs a fixed aligned beam: key entropy
  rate of both arms per SNR with five probing beams.
* ``cascade-bench`` - reconciliation benchmark: leaked-parity fraction and
  residual mismatch per error rate.
* ``custom`` - one scheme at explicit settings from the [scheme] section.

Each session scenario is a list of cases, each a session template built
from the scenario's preset in ``_PRESETS`` with the ``[scheme]`` keys merged
in; keys that a scenario's cases set themselves warn and are ignored.
Per-trial seeds derive from ``(master_seed, scenario, case, snr, trial)``
via the stable counter-based scheme in :mod:`mmkeygen.seeds`, so tables are
byte-identical across runs.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter

import numpy as np

from . import seeds
from .channel import ArrayGeometry
from .keygen import (
    BitString,
    CascadeParams,
    QuantizerConfig,
    bar,
    cascade,
    extract_randomness,
    key_entropy_rate,
)
from .schemes import (
    SessionConfig,
    baseline_channel_quant_session,
    multires_session,
    secret_beam_session,
    virtual_angle_session,
)

SCENARIOS = ("fig2", "fig3", "fig4", "cascade-bench", "custom")

_SCENARIO_IDS = {name: i + 1 for i, name in enumerate(SCENARIOS)}

_SCENARIO_DEFAULTS = {
    "fig2": {"snr_grid": (0.0, 5.0, 10.0, 15.0, 20.0), "trials": 1000},
    "fig3": {"snr_grid": (-20.0, -15.0, -10.0, -5.0, 0.0), "trials": 500},
    "fig4": {"snr_grid": (0.0, 5.0, 10.0, 15.0, 20.0), "trials": 5000},
    "cascade-bench": {"snr_grid": (0.0,), "trials": 100},
    "custom": {"snr_grid": (0.0, 5.0, 10.0, 15.0, 20.0), "trials": 1000},
}

_SCENARIO_SUMMARY = {
    "fig2": "beam-perturbation keying vs co-located eavesdroppers: bar_legit/bar_eve "
    "over SNR for Alice x Bob antenna cases 32x16 and 16x8",
    "fig3": "angular-domain (virtual AoA/AoD) extraction vs per-entry channel "
    "quantization: bdr over SNR for 128/64-element ULAs",
    "fig4": "multi-resolution beam probing vs fixed aligned beam: key entropy "
    "rate per SNR with 5 beams",
    "cascade-bench": "reconciliation benchmark: leaked fraction and residual "
    "mismatch per error rate (n=4096)",
    "custom": "one scheme at explicit [scheme] settings",
}

_SECRET_BEAM = SessionConfig(rounds=3, delta_max=float(np.radians(3.0)))
_MULTIRES = SessionConfig(
    scheme="multires",
    alice=ArrayGeometry(1, 64),
    bob=ArrayGeometry(1, 32),
    num_paths=8,
    levels=4,
    temporal_rho=0.5,
)
_VIRTUAL = replace(_SECRET_BEAM, scheme="virtual", alice=ArrayGeometry(1, 128), bob=ArrayGeometry(1, 128))

# session defaults of each session scenario; custom has one per scheme.
# A multires session runs ``trials`` coherence blocks in place of ``rounds``.
_PRESETS = {
    "fig2": _SECRET_BEAM,
    # one beamspace channel per trial: grid-aligned sines, equal-power paths
    "fig3": replace(_VIRTUAL, rounds=1, num_paths=3, nlos_offset_db=0.0, grid_angles=True),
    "fig4": _MULTIRES,
    "custom": {
        "secret_beam": _SECRET_BEAM,
        "virtual": _VIRTUAL,
        "baseline": replace(_VIRTUAL, scheme="baseline"),
        "multires": _MULTIRES,
    },
}


class ConfigError(ValueError):
    """Config parsing or validation failure; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class SchemeOverrides:
    """Optional per-scheme knobs; ``None`` means use the scenario preset."""

    scheme: str | None = None
    alice_rows: int | None = None
    alice_cols: int | None = None
    bob_rows: int | None = None
    bob_cols: int | None = None
    num_paths: int | None = None
    nlos_offset_db: float | None = None
    levels: int | None = None
    num_beams: int | None = None
    temporal_rho: float | None = None
    eve: str | None = None
    window_db: float | None = None
    delta_max_deg: float | None = None
    rounds_per_trial: int | None = None
    codebook_depth: int | None = None
    grid_angles: int | None = None


@dataclass(frozen=True)
class CascadeBench:
    error_rates: tuple[float, ...] = (0.02, 0.05, 0.10, 0.15)
    block_bits: int = 4096
    passes: int = 4


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    master_seed: int
    trials: int
    snr_grid: tuple[float, ...]
    output_path: str | None = None
    scheme: SchemeOverrides = field(default_factory=SchemeOverrides)
    cascade: CascadeBench = field(default_factory=CascadeBench)

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not self.snr_grid:
            raise ConfigError("snr_grid must be nonempty")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError(f"master_seed must be an unsigned 64-bit value, got {self.master_seed}")
        if self.scenario == "fig4" and self.trials < 2000:
            # the least number of coherence blocks key_entropy_rate scores
            raise ConfigError(f"fig4 needs trials >= 2000 for its entropy rates, got {self.trials}")
        if any(not 0.0 < p < 0.5 for p in self.cascade.error_rates):
            raise ConfigError("cascade error_rates must lie in (0, 0.5)")
        if self.cascade.passes < 1:
            raise ConfigError(f"cascade passes must be >= 1, got {self.cascade.passes}")
        if self.cascade.block_bits < 1:
            raise ConfigError(f"cascade block_bits must be >= 1, got {self.cascade.block_bits}")
        try:
            # a scenario ignores the keys its cases fix, but a scheme or eve
            # that no session accepts is an error in every scenario
            _merge(SessionConfig(), SchemeOverrides(scheme=self.scheme.scheme, eve=self.scheme.eve))
            if self.scenario != "cascade-bench":
                _cases(self)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Config file parsing
# ---------------------------------------------------------------------------

_TOP_KEYS = {"scenario", "master_seed", "trials", "snr_grid", "output_path"}
_SCHEME_KEYS = tuple(f.name for f in fields(SchemeOverrides))
_CASCADE_KEYS = {f.name for f in fields(CascadeBench)}
# [scheme] keys that map one to one onto SessionConfig fields
_SESSION_KEYS = tuple(k for k in _SCHEME_KEYS if k in {f.name for f in fields(SessionConfig)})
_GEOMETRY_KEYS = ("alice_rows", "alice_cols", "bob_rows", "bob_cols")
_FIXED_KEYS = {
    "fig2": ("scheme", *_GEOMETRY_KEYS, "eve"),
    "fig3": ("scheme", *_GEOMETRY_KEYS, "num_paths", "rounds_per_trial"),
    "fig4": ("scheme", "rounds_per_trial"),
    "cascade-bench": _SCHEME_KEYS,
    "custom": (),
}


def _fixed_keys(scenario: str, scheme: object) -> tuple[str, ...]:
    """The [scheme] keys that the scenario's cases set themselves."""
    if scenario == "custom" and scheme == "multires":
        return ("rounds_per_trial",)
    return _FIXED_KEYS[scenario]


def _parse_value(raw: str, line_no: int):
    raw = raw.strip()
    if not raw:
        raise ConfigError("empty value", line_no)
    if raw.startswith('"'):
        if not (raw.endswith('"') and len(raw) >= 2):
            raise ConfigError("unterminated string", line_no)
        return raw[1:-1]
    if "," in raw:
        try:
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
        except ValueError:
            raise ConfigError(f"bad numeric array {raw!r}", line_no) from None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"cannot parse value {raw!r}", line_no) from None


def _parse_lines(text: str) -> dict[tuple[str, str], object]:
    entries: dict[tuple[str, str], object] = {}
    section = ""
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError(f"malformed section header {line!r}", line_no)
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError("missing key before '='", line_no)
        entries[(section, key)] = _parse_value(value, line_no)
    return entries


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text; unknown keys warn, missing required keys error."""
    entries = _parse_lines(text)

    top: dict[str, object] = {}
    scheme: dict[str, object] = {}
    casc: dict[str, object] = {}
    for (section, key), value in entries.items():
        if section in ("", "run") and key in _TOP_KEYS:
            top[key] = value
        elif section in ("", "scheme") and key in _SCHEME_KEYS:
            scheme[key] = value
        elif section in ("", "cascade") and key in _CASCADE_KEYS:
            casc[key] = value
        else:
            warnings.warn(f"ignoring unknown config key {key!r} in section [{section}]", stacklevel=2)

    missing = [k for k in ("scenario", "master_seed") if k not in top]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))

    scenario = str(top["scenario"])
    if scenario not in _SCENARIO_DEFAULTS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    defaults = _SCENARIO_DEFAULTS[scenario]
    for key in scheme:
        if key in _fixed_keys(scenario, scheme.get("scheme")):
            warnings.warn(f"ignoring [scheme] key {key!r}: the {scenario} cases fix it", stacklevel=2)

    snr_grid = top.get("snr_grid", defaults["snr_grid"])
    if isinstance(snr_grid, (int, float)):
        snr_grid = (float(snr_grid),)
    error_rates = casc.get("error_rates", CascadeBench.error_rates)
    if isinstance(error_rates, (int, float)):
        error_rates = (float(error_rates),)

    cfg = ExperimentConfig(
        scenario=scenario,
        master_seed=int(top["master_seed"]),
        trials=int(top.get("trials", defaults["trials"])),
        snr_grid=tuple(float(s) for s in snr_grid),
        output_path=top.get("output_path"),
        scheme=SchemeOverrides(**scheme),
        cascade=CascadeBench(
            error_rates=tuple(float(p) for p in error_rates),
            block_bits=int(casc.get("block_bits", CascadeBench.block_bits)),
            passes=int(casc.get("passes", CascadeBench.passes)),
        ),
    )
    cfg.validate()
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a config that parses back to an equal ExperimentConfig."""
    # repr keeps full float precision so round trips are exact
    out = [
        f'scenario = "{cfg.scenario}"',
        f"master_seed = {cfg.master_seed}",
        f"trials = {cfg.trials}",
        "snr_grid = " + ", ".join(repr(float(s)) for s in cfg.snr_grid),
    ]
    if cfg.output_path is not None:
        out.append(f'output_path = "{cfg.output_path}"')
    scheme_lines = []
    for f in fields(SchemeOverrides):
        value = getattr(cfg.scheme, f.name)
        if value is None:
            continue
        if isinstance(value, str):
            scheme_lines.append(f'{f.name} = "{value}"')
        elif isinstance(value, float):
            scheme_lines.append(f"{f.name} = {value!r}")
        else:
            scheme_lines.append(f"{f.name} = {value}")
    if scheme_lines:
        out.append("")
        out.append("[scheme]")
        out.extend(scheme_lines)
    out.append("")
    out.append("[cascade]")
    out.append("error_rates = " + ", ".join(repr(float(p)) for p in cfg.cascade.error_rates))
    out.append(f"block_bits = {cfg.cascade.block_bits}")
    out.append(f"passes = {cfg.cascade.passes}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Result tables
# ---------------------------------------------------------------------------

TABLE_COLUMNS = ("scenario", "scheme", "snr_db", "metric", "value", "stderr", "trials", "seed")

METRICS = (
    "bar_legit",
    "bar_eve",
    "bdr",
    "ker_multires",
    "ker_fixed",
    "leak_fraction",
    "residual_mismatch",
)


@dataclass(frozen=True)
class ResultRow:
    scenario: str
    scheme: str
    snr_db: float
    metric: str
    value: float
    stderr: float
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {self.metric!r}")


@dataclass(frozen=True)
class ResultTable:
    rows: tuple[ResultRow, ...]

    @property
    def columns(self) -> tuple[str, ...]:
        return TABLE_COLUMNS

    def __len__(self) -> int:
        return len(self.rows)


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def table_to_csv(table: ResultTable) -> bytes:
    lines = [",".join(TABLE_COLUMNS)]
    for r in table.rows:
        lines.append(
            ",".join(
                (
                    r.scenario,
                    r.scheme,
                    _fmt(r.snr_db),
                    r.metric,
                    _fmt(r.value),
                    _fmt(r.stderr),
                    str(r.trials),
                    str(r.seed),
                )
            )
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_csv(table: ResultTable, path: str) -> None:
    data = table_to_csv(table)
    try:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def read_csv(path: str) -> ResultTable:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].split(",") != list(TABLE_COLUMNS):
        raise ValueError(f"{path}: not a mmkeygen result table")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(TABLE_COLUMNS):
            raise ValueError(f"{path}: malformed row {line!r}")
        rows.append(
            ResultRow(
                scenario=parts[0],
                scheme=parts[1],
                snr_db=float(parts[2]),
                metric=parts[3],
                value=float(parts[4]),
                stderr=float(parts[5]),
                trials=int(parts[6]),
                seed=int(parts[7]),
            )
        )
    return ResultTable(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------------


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    if values.size <= 1:
        return float(values.mean()), 0.0
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size))


def _trial_seed(cfg: ExperimentConfig, case_idx: int, snr_idx: int, trial_idx: int) -> int:
    return seeds.derive_seed(
        cfg.master_seed,
        seeds.STREAM_TRIAL,
        _SCENARIO_IDS[cfg.scenario],
        case_idx,
        snr_idx,
        trial_idx,
    )


def _merge(preset: SessionConfig, ov: SchemeOverrides) -> SessionConfig:
    """The preset with every [scheme] key that is set applied to it."""
    changes = {name: getattr(ov, name) for name in _SESSION_KEYS if getattr(ov, name) is not None}
    if ov.rounds_per_trial is not None:
        changes["rounds"] = ov.rounds_per_trial
    if ov.delta_max_deg is not None:
        changes["delta_max"] = float(np.radians(ov.delta_max_deg))
    if ov.eve is not None:
        changes["eve"] = None if ov.eve == "none" else ov.eve
    if ov.grid_angles is not None:
        changes["grid_angles"] = bool(ov.grid_angles)
    for side in ("alice", "bob"):
        geom = getattr(preset, side)
        rows, cols = getattr(ov, f"{side}_rows"), getattr(ov, f"{side}_cols")
        changes[side] = ArrayGeometry(geom.rows if rows is None else rows, geom.cols if cols is None else cols)
    return replace(preset, **changes)


def _cases(cfg: ExperimentConfig) -> list[tuple[tuple[tuple[str, str], ...], SessionConfig, int]]:
    """Each case of a session scenario: its (label, metric) rows, session template and trials.

    Raises ValueError (TypeError for a value of the wrong type) when the
    [scheme] keys make an invalid session.
    """
    ov = replace(cfg.scheme, **dict.fromkeys(_fixed_keys(cfg.scenario, cfg.scheme.scheme), None))
    if cfg.scenario == "fig2":
        base = _merge(_PRESETS["fig2"], ov)
        cases = []
        for dims, a, b in (("32x16", 32, 16), ("16x8", 16, 8)):
            for eve in ("alice", "bob"):
                label = f"secret_beam_{dims}_eve_{eve}"
                session = replace(base, alice=ArrayGeometry(1, a), bob=ArrayGeometry(1, b), eve=eve)
                cases.append((((label, "bar_legit"), (label, "bar_eve")), session, cfg.trials))
        return cases
    if cfg.scenario == "fig3":
        base = _merge(_PRESETS["fig3"], ov)
        cases = []
        for label, scheme, n, L, trials in (
            ("virtual_128x128_L3", "virtual", 128, 3, cfg.trials),
            ("virtual_64x64_L3", "virtual", 64, 3, cfg.trials),
            ("virtual_128x128_L2", "virtual", 128, 2, cfg.trials),
            ("baseline_128x128_L3", "baseline", 128, 3, max(5, cfg.trials // 10)),
        ):
            geom = ArrayGeometry(1, n)
            session = replace(base, scheme=scheme, alice=geom, bob=geom, num_paths=L)
            cases.append((((label, "bdr"),), session, trials))
        return cases
    if cfg.scenario == "fig4":
        session = _merge(_PRESETS["fig4"], ov)
        return [((("multires_P5", "ker_multires"), ("fixed_beam", "ker_fixed")), session, cfg.trials)]
    session = _merge(_PRESETS["custom"][ov.scheme or "secret_beam"], ov)
    metrics = {
        "secret_beam": ("bar_legit", "bar_eve") if session.eve else ("bar_legit",),
        "multires": ("ker_multires", "ker_fixed"),
    }.get(session.scheme, ("bdr",))
    return [(tuple((session.scheme, m) for m in metrics), session, cfg.trials)]


def _jackknife_stderr(samples: np.ndarray, estimator, sections: int = 10) -> float:
    T = samples.shape[1]
    if T < sections * 2:
        return 0.0
    edges = np.linspace(0, T, sections + 1, dtype=int)
    estimates = []
    for j in range(sections):
        keep = np.concatenate([samples[:, : edges[j]], samples[:, edges[j + 1] :]], axis=1)
        estimates.append(estimator(keep))
    estimates = np.asarray(estimates)
    return float(np.sqrt((sections - 1) / sections * ((estimates - estimates.mean()) ** 2).sum()))


def _multires_point(session: SessionConfig) -> list[tuple[float, float]]:
    """Both entropy rates of one multires session, each with its jackknife stderr."""
    result = multires_session(session)
    quantizer = QuantizerConfig(levels=session.levels)

    def ker_of(samples: np.ndarray) -> float:
        rows_centered = np.stack([extract_randomness(r) for r in samples])
        return key_entropy_rate(rows_centered, quantizer, min_trials=min(2000, samples.shape[1]))

    return [
        (result.ker_multires, _jackknife_stderr(result.samples_multires, ker_of)),
        (result.ker_fixed, _jackknife_stderr(result.samples_fixed, ker_of)),
    ]


def _run_sessions(cfg: ExperimentConfig) -> list[ResultRow]:
    rows: list[ResultRow] = []
    for case_idx, (outputs, template, trials) in enumerate(_cases(cfg)):
        metrics = [metric for _, metric in outputs]
        for snr_idx, snr in enumerate(cfg.snr_grid):
            session = replace(template, snr_db=snr)
            if session.scheme == "multires":
                # one long session of `trials` coherence blocks per point
                seed = _trial_seed(cfg, case_idx, snr_idx, 0)
                stats = _multires_point(replace(session, rounds=trials, master_seed=seed))
            else:
                run = {
                    "secret_beam": secret_beam_session,
                    "virtual": virtual_angle_session,
                    "baseline": baseline_channel_quant_session,
                }[session.scheme]
                # keep only the metric floats: a session's result is freed
                # before the next trial's session runs
                floats = attrgetter(*metrics)
                values = np.empty((trials, len(metrics)))
                for trial_idx in range(trials):
                    seed = _trial_seed(cfg, case_idx, snr_idx, trial_idx)
                    values[trial_idx] = floats(run(replace(session, master_seed=seed)))
                stats = [_mean_stderr(column) for column in values.T]
            rows.extend(
                ResultRow(cfg.scenario, label, snr, metric, value, stderr, trials, cfg.master_seed)
                for (label, metric), (value, stderr) in zip(outputs, stats)
            )
    return rows


def _run_cascade_bench(cfg: ExperimentConfig) -> list[ResultRow]:
    n = cfg.cascade.block_bits
    rows: list[ResultRow] = []
    for case_idx, p in enumerate(cfg.cascade.error_rates):
        outcomes = np.empty((cfg.trials, 2))
        for trial_idx in range(cfg.trials):
            seed = _trial_seed(cfg, case_idx, 0, trial_idx)
            rng = seeds.generator(seed, seeds.STREAM_BENCH_DATA)
            a = BitString(bits=rng.integers(0, 2, n, dtype=np.uint8))
            flips = (rng.random(n) < p).astype(np.uint8)
            b = BitString(bits=a.bits ^ flips)
            corrected, leaked = cascade(a, b, CascadeParams(passes=cfg.cascade.passes, seed=seed))
            outcomes[trial_idx] = leaked / n, 1.0 - bar(a, corrected)
        label = f"cascade_n{n}_p{p:g}"
        for metric, column in (("leak_fraction", 0), ("residual_mismatch", 1)):
            value, stderr = _mean_stderr(outcomes[:, column])
            rows.append(ResultRow(cfg.scenario, label, 0.0, metric, value, stderr, cfg.trials, cfg.master_seed))
    return rows


def run_scenario(cfg: ExperimentConfig) -> ResultTable:
    """Execute a scenario preset and return its (deterministic) table."""
    cfg.validate()
    runner = _run_cascade_bench if cfg.scenario == "cascade-bench" else _run_sessions
    try:
        rows = runner(cfg)
    except Exception as exc:
        raise RuntimeError(f"scenario {cfg.scenario!r} failed: {exc}") from exc
    return ResultTable(rows=tuple(rows))


def scenario_summaries() -> list[tuple[str, str]]:
    return [(name, _SCENARIO_SUMMARY[name]) for name in SCENARIOS]
