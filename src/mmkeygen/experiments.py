"""Experiment orchestration: config files, scenario presets, CSV tables.

Config files are line-oriented ``key = value`` text with optional
``[section]`` headers.  Values are integers, reals, quoted strings, or
comma-separated numeric arrays.  The ``scenario`` and ``master_seed`` keys
are required; everything else falls back to per-scenario defaults.

The scenarios (``fig2``, ``fig3``, ``fig4``, ``cascade-bench`` and
``custom``) are declared in ``_SCENARIOS``, each with its summary, default
SNR grid and trials, and the [scheme] keys its cases fix.  Each session
scenario is a list of cases, each a session template built from the
scenario's preset in ``_PRESETS`` with the ``[scheme]`` keys merged in; keys
that a scenario's cases set themselves warn and are ignored.
Per-trial seeds derive from ``(master_seed, scenario, case, snr, trial)``
via the stable counter-based scheme in :mod:`mmkeygen.seeds`, so tables are
byte-identical across runs.
"""

from __future__ import annotations

import math
import os
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType

import numpy as np

from . import seeds
from .channel import ArrayGeometry, _noise_sigma
from .keygen import (
    BitString,
    CascadeParams,
    bar,
    cascade,
)
from .schemes import SessionConfig, batch

_GEOMETRY_KEYS = ("alice_rows", "alice_cols", "bob_rows", "bob_cols")
# every [scheme] key and the type of its value; the scenario's presets
# fill in the keys a config leaves out
_SCHEME_KEYS = {
    **dict.fromkeys(("scheme", "eve"), str),
    **dict.fromkeys(("nlos_offset_db", "temporal_rho", "window_db", "delta_max_deg"), float),
    **dict.fromkeys((*_GEOMETRY_KEYS, "num_paths", "levels", "num_beams"), int),
    **dict.fromkeys(("rounds_per_trial", "codebook_depth", "grid_angles"), int),
}
# the keys of each section; a key before the first section header may be a
# key of any of them
_SECTIONS = {
    "run": {"scenario": str, "master_seed": int, "trials": int, "snr_grid": tuple, "output_path": str},
    "scheme": _SCHEME_KEYS,
    "cascade": {"error_rates": tuple, "block_bits": int, "passes": int},
}


@dataclass(frozen=True)
class _Scenario:
    """A scenario: its summary, its default SNR grid and trials, and the [scheme] keys its cases fix."""

    summary: str
    snr_grid: tuple[float, ...]
    trials: int
    fixed_keys: tuple[str, ...] = ()


_GRID_0_20 = (0.0, 5.0, 10.0, 15.0, 20.0)

# in the order of their ids in the trial seeds
_SCENARIOS = {
    "fig2": _Scenario(
        "beam-perturbation keying vs co-located eavesdroppers: bar_legit/bar_eve "
        "over SNR for Alice x Bob antenna cases 32x16 and 16x8",
        _GRID_0_20,
        1000,
        ("scheme", *_GEOMETRY_KEYS, "eve"),
    ),
    "fig3": _Scenario(
        "angular-domain (virtual AoA/AoD) extraction vs per-entry channel "
        "quantization: bdr over SNR for 128/64-element ULAs",
        (-20.0, -15.0, -10.0, -5.0, 0.0),
        500,
        ("scheme", *_GEOMETRY_KEYS, "num_paths", "rounds_per_trial"),
    ),
    "fig4": _Scenario(
        "multi-resolution beam probing vs fixed aligned beam: key entropy rate per SNR with 5 beams",
        _GRID_0_20,
        5000,
        ("scheme", "rounds_per_trial"),
    ),
    "cascade-bench": _Scenario(
        "reconciliation benchmark: leaked fraction and residual mismatch per error rate (n=4096)",
        (0.0,),
        100,
        tuple(_SCHEME_KEYS),
    ),
    "custom": _Scenario("one scheme at explicit [scheme] settings", _GRID_0_20, 1000),
}
SCENARIOS = tuple(_SCENARIOS)

_SCENARIO_IDS = {name: i + 1 for i, name in enumerate(SCENARIOS)}

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
class CascadeBench:
    error_rates: tuple[float, ...] = (0.02, 0.05, 0.10, 0.15)
    block_bits: int = 4096
    passes: int = 4


@dataclass(frozen=True)
class ExperimentConfig:
    """A run: its scenario, seed, trials and grid, and the [scheme] and [cascade] settings.

    ``scheme`` holds the [scheme] keys the config sets, as a read-only copy.
    """

    scenario: str
    master_seed: int
    trials: int
    snr_grid: tuple[float, ...]
    output_path: str | None = None
    scheme: Mapping[str, object] = field(default_factory=dict)
    cascade: CascadeBench = field(default_factory=CascadeBench)

    def __post_init__(self) -> None:
        object.__setattr__(self, "scheme", MappingProxyType(dict(self.scheme)))

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
        # a config built in code gets the checks that parsing makes
        for key, value in self.scheme.items():
            if key not in _SCHEME_KEYS:
                raise ConfigError(f"unknown [scheme] key {key!r}")
            _typed(key, _SCHEME_KEYS[key], value)
        try:
            # a scenario ignores the keys its cases fix, but a scheme or eve
            # that no session accepts is an error in every scenario
            _merge(SessionConfig(), {k: v for k, v in self.scheme.items() if k in ("scheme", "eve")})
            for snr in self.snr_grid:
                _noise_sigma(snr)
            if self.scenario != "cascade-bench":
                _cases(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Config file parsing
# ---------------------------------------------------------------------------

_TYPE_NAMES = {
    str: "a quoted string",
    tuple: "a number or a comma-separated list of numbers",
    int: "an integer",
    float: "a number",
}


def _typed(key: str, kind: type, value: object, line_no: int | None = None) -> object:
    """``value`` checked against the type ``kind`` that ``key`` takes; one number is an array of one."""
    if kind is tuple and isinstance(value, (int, float)):
        value = (float(value),)
    if not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"{key} must be {_TYPE_NAMES[kind]}, got {value!r}", line_no)
    # nan and inf parse as reals, and no key takes one
    if kind is not str and not all(map(math.isfinite, value if kind is tuple else (value,))):
        raise ConfigError(f"{key} must be finite, got {value!r}", line_no)
    return value


def _fixed_keys(scenario: str, scheme: object) -> tuple[str, ...]:
    """The [scheme] keys that the scenario's cases set themselves."""
    if scenario == "custom" and scheme == "multires":
        return ("rounds_per_trial",)
    return _SCENARIOS[scenario].fixed_keys


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


def _parse_lines(text: str) -> dict[tuple[str, str], tuple[object, int]]:
    """Each (section, key) with its value and line number; a repeated key keeps its last line."""
    entries: dict[tuple[str, str], tuple[object, int]] = {}
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
        entries[(section, key)] = _parse_value(value, line_no), line_no
    return entries


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text; unknown keys warn, missing required keys error."""
    groups: dict[str, dict[str, object]] = {name: {} for name in _SECTIONS}
    for (section, key), (value, line_no) in _parse_lines(text).items():
        name = next((name for name, keys in _SECTIONS.items() if section in ("", name) and key in keys), None)
        if name is None:
            warnings.warn(f"ignoring unknown config key {key!r} in section [{section}]", stacklevel=2)
            continue
        groups[name][key] = _typed(key, _SECTIONS[name][key], value, line_no)
    top, scheme = groups["run"], groups["scheme"]

    missing = [k for k in ("scenario", "master_seed") if k not in top]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))

    scenario = top["scenario"]
    if scenario not in _SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    for key in scheme:
        if key in _fixed_keys(scenario, scheme.get("scheme")):
            warnings.warn(f"ignoring [scheme] key {key!r}: the {scenario} cases fix it", stacklevel=2)

    cfg = ExperimentConfig(
        scenario=scenario,
        master_seed=top["master_seed"],
        trials=top.get("trials", _SCENARIOS[scenario].trials),
        snr_grid=top.get("snr_grid", _SCENARIOS[scenario].snr_grid),
        output_path=top.get("output_path"),
        scheme=scheme,
        cascade=CascadeBench(**groups["cascade"]),
    )
    cfg.validate()
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    return parse_config(text)


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


# ---------------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------------


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    if values.size <= 1:
        return float(values.mean()), 0.0
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size))


def _trial_seeds(cfg: ExperimentConfig, case_idx: int, snr_idx, trials: int) -> np.ndarray:
    """The u64 seeds of trials ``0 .. trials-1`` of one (case, SNR) point, or of a sequence of points in turn."""
    points = np.asarray(snr_idx, dtype=np.uint64).reshape(-1, 1)
    case = (cfg.master_seed, seeds.STREAM_TRIAL, _SCENARIO_IDS[cfg.scenario], case_idx)
    return seeds.derive_seeds(*case, points, np.arange(trials, dtype=np.uint64)).reshape(-1)


# [scheme] keys that map one to one onto SessionConfig fields
_SESSION_KEYS = _SCHEME_KEYS.keys() & {f.name for f in fields(SessionConfig)}


def _merge(preset: SessionConfig, keys: Mapping[str, object]) -> SessionConfig:
    """The preset with the [scheme] ``keys`` applied to it."""
    changes = {name: value for name, value in keys.items() if name in _SESSION_KEYS}
    if "rounds_per_trial" in keys:
        changes["rounds"] = keys["rounds_per_trial"]
    if "delta_max_deg" in keys:
        changes["delta_max"] = float(np.radians(keys["delta_max_deg"]))
    if "eve" in keys:
        changes["eve"] = None if keys["eve"] == "none" else keys["eve"]
    if "grid_angles" in keys:
        changes["grid_angles"] = bool(keys["grid_angles"])
    for side in ("alice", "bob"):
        geom = getattr(preset, side)
        changes[side] = ArrayGeometry(keys.get(f"{side}_rows", geom.rows), keys.get(f"{side}_cols", geom.cols))
    return replace(preset, **changes)


def _cases(cfg: ExperimentConfig) -> list[tuple[tuple[tuple[str, str], ...], SessionConfig, int, int]]:
    """Each case of a session scenario: its (label, metric) rows, session template, trials and records per point.

    A multires point is one record: one session of ``trials`` coherence blocks.

    Raises ValueError when the [scheme] keys make an invalid session.
    """
    fixed = _fixed_keys(cfg.scenario, cfg.scheme.get("scheme"))
    keys = {key: value for key, value in cfg.scheme.items() if key not in fixed}
    if cfg.scenario == "fig2":
        base = _merge(_PRESETS["fig2"], keys)
        cases = []
        for dims, a, b in (("32x16", 32, 16), ("16x8", 16, 8)):
            for eve in ("alice", "bob"):
                label = f"secret_beam_{dims}_eve_{eve}"
                session = replace(base, alice=ArrayGeometry(1, a), bob=ArrayGeometry(1, b), eve=eve)
                cases.append((((label, "bar_legit"), (label, "bar_eve")), session, cfg.trials, cfg.trials))
        return cases
    if cfg.scenario == "fig3":
        base = _merge(_PRESETS["fig3"], keys)
        cases = []
        for label, scheme, n, L, trials in (
            ("virtual_128x128_L3", "virtual", 128, 3, cfg.trials),
            ("virtual_64x64_L3", "virtual", 64, 3, cfg.trials),
            ("virtual_128x128_L2", "virtual", 128, 2, cfg.trials),
            ("baseline_128x128_L3", "baseline", 128, 3, max(5, cfg.trials // 10)),
        ):
            geom = ArrayGeometry(1, n)
            session = replace(base, scheme=scheme, alice=geom, bob=geom, num_paths=L)
            cases.append((((label, "bdr"),), session, trials, trials))
        return cases
    if cfg.scenario == "fig4":
        session = _merge(_PRESETS["fig4"], keys)
        outputs = (("multires_P5", "ker_multires"), ("fixed_beam", "ker_fixed"))
    else:
        session = _merge(_PRESETS["custom"][keys.get("scheme", "secret_beam")], keys)
        metrics = {
            "secret_beam": ("bar_legit", "bar_eve") if session.eve else ("bar_legit",),
            "multires": ("ker_multires", "ker_fixed"),
        }.get(session.scheme, ("bdr",))
        outputs = tuple((session.scheme, m) for m in metrics)
    if session.scheme == "multires":
        return [(outputs, replace(session, rounds=cfg.trials), cfg.trials, 1)]
    return [(outputs, session, cfg.trials, cfg.trials)]


def _score(cfg: ExperimentConfig, outputs, trials: int, records, per_point: int) -> list[ResultRow]:
    """The rows of one case from its records, ``per_point`` to each SNR point, in grid order.

    Records are read one at a time, and only each trial's metric values are
    kept.  ``bar_legit``, ``bar_eve`` and ``bdr`` come from each record's
    key agreement: a point's value is their mean over its trials, with the
    stderr of that mean.  A KER is scored by its scheme: a multires point is
    one record, whose KERs come with their jackknife stderrs.
    """
    rows = []
    for snr in cfg.snr_grid:
        values = np.empty((per_point, len(outputs)))
        for row, record in zip(values, records):
            bar_legit, bar_eve = record.agreement()
            scores = {
                "bar_legit": bar_legit,
                "bar_eve": bar_eve,
                "bdr": 1.0 - bar_legit,
                "ker_multires": record.ker_multires,
                "ker_fixed": record.ker_fixed,
            }
            row[:] = [scores[metric] for _, metric in outputs]
        for (label, metric), column in zip(outputs, values.T):
            value, stderr = _mean_stderr(column)
            if metric in ("ker_multires", "ker_fixed"):
                stderr = getattr(record, f"{metric}_stderr")
            rows.append(ResultRow(cfg.scenario, label, snr, metric, value, stderr, trials, cfg.master_seed))
    return rows


def _run_sessions(cfg: ExperimentConfig) -> list[ResultRow]:
    rows: list[ResultRow] = []
    for case_idx, (outputs, template, trials, per_point) in enumerate(_cases(cfg)):
        # all points' trials run as one stream
        trial_seeds = _trial_seeds(cfg, case_idx, range(len(cfg.snr_grid)), per_point)
        records = batch(template, trial_seeds, np.repeat(cfg.snr_grid, per_point).tolist())
        rows.extend(_score(cfg, outputs, trials, records, per_point))
    return rows


def _run_cascade_bench(cfg: ExperimentConfig) -> list[ResultRow]:
    n = cfg.cascade.block_bits
    rows: list[ResultRow] = []
    for case_idx, p in enumerate(cfg.cascade.error_rates):
        trial_seeds = _trial_seeds(cfg, case_idx, 0, cfg.trials)
        # every trial's data stream, seeded at once
        stream = seeds.sampler_streams(seeds.stream_lanes(trial_seeds, seeds.STREAM_BENCH_DATA))
        outcomes = np.empty((cfg.trials, 2))
        for trial_idx, seed in enumerate(trial_seeds.tolist()):
            rng = stream(trial_idx)
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
    return [(name, scenario.summary) for name, scenario in _SCENARIOS.items()]
