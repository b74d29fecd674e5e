"""Span tracer for the traced benchmark run.

The tracer wraps every public function of the mmkeygen layer modules and
rebinds the name in every mmkeygen module that holds it, so calls made
through ``from .channel import evolve`` are traced as well as calls made
through the defining module.  Each call appends one span (name, parent,
start, end) to flat arrays kept in memory; a layer's self time is the time
of its spans minus the time of their child spans.  Nothing is added to the
program itself.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("seeds", "channel", "beamforming", "probing", "keygen", "schemes", "experiments")

SESSIONS = (
    "schemes.secret_beam_session",
    "schemes.virtual_angle_session",
    "schemes.baseline_channel_quant_session",
    "schemes.multires_session",
)

# (metric, unit); "calls" are per traced round, "self_s" seconds per round
PER_LAYER = (
    ("seeds.generator.calls", "count"),
    ("seeds.self_s", "s"),
    ("channel.self_s", "s"),
    ("channel.array_response.calls", "count"),
    ("channel.evolve.calls", "count"),
    ("channel.evolve.self_s", "s"),
    ("channel.noise_like.calls", "count"),
    ("channel.dft_matrix.calls", "count"),
    ("channel.virtual_channel.self_s", "s"),
    ("beamforming.self_s", "s"),
    ("beamforming.steering_beamformer.calls", "count"),
    ("beamforming.beam_gain.calls", "count"),
    ("beamforming.hierarchical_codebook.self_s", "s"),
    ("beamforming.select_beams.calls", "count"),
    ("beamforming.select_beams.feasible_ratio", "ratio"),
    ("probing.self_s", "s"),
    ("probing.bidirectional_probe.calls", "count"),
    ("keygen.self_s", "s"),
    ("keygen.cascade.calls", "count"),
    ("keygen.cascade.self_s", "s"),
    ("keygen.cascade.leak_per_bit", "bit/bit"),
    ("keygen.cascade.corrected_ratio", "ratio"),
    ("keygen.key_entropy_rate.calls", "count"),
    ("keygen.key_entropy_rate.self_s", "s"),
    ("keygen.quantize.self_s", "s"),
    ("schemes.sessions", "count"),
    ("schemes.self_s", "s"),
    ("schemes.estimate_channel.self_s", "s"),
    ("experiments.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_coverage", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    # 0 when the function never ran on this workload; its calls say so
    return num / den if den else 0.0


class Tracer:
    """Records spans for calls into the layer modules while installed."""

    def __init__(self) -> None:
        from mmkeygen.beamforming import SelectionInfeasibleError

        self._infeasible_error = SelectionInfeasibleError
        self.names: list[str] = []
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._name = array("q")
        self._stack = [-1]
        self._wrappers: dict[int, tuple[object, object]] = {}
        self._rebound: list[tuple[object, str, object]] = []
        self.reset()
        for layer in LAYERS:
            module = sys.modules[f"mmkeygen.{layer}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))

    def reset(self) -> None:
        for arr in (self._start, self._end, self._parent, self._name):
            del arr[:]
        self.select_infeasible = 0
        self.cascade_leaked = 0
        self.cascade_bits = 0
        self.cascade_equal = 0

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        start, end, parent, name, stack = self._start, self._end, self._parent, self._name, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1])
            name.append(nid)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        if qualname == "beamforming.select_beams":
            return self._count_infeasible(traced)
        if qualname == "keygen.cascade":
            return self._count_cascade(traced)
        return traced

    def _count_infeasible(self, traced):
        @functools.wraps(traced)
        def counted(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            except self._infeasible_error:
                self.select_infeasible += 1
                raise

        return counted

    def _count_cascade(self, traced):
        @functools.wraps(traced)
        def counted(*args, **kwargs):
            corrected, leaked = traced(*args, **kwargs)
            a = args[0] if args else kwargs["a"]
            self.cascade_leaked += leaked
            self.cascade_bits += len(a)
            self.cascade_equal += corrected.equals(a)
            return corrected, leaked

        return counted

    def install(self) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "mmkeygen" and not mod_name.startswith("mmkeygen."):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._rebound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self._rebound:
            setattr(module, attr, value)
        self._rebound.clear()

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays; ``parent`` is -1 for a root span."""
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self._name, dtype=np.int64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def round_summary(self) -> dict[str, dict[str, float]]:
        """Calls and self seconds per function name over the recorded spans."""
        s = self.spans()
        dur = s["end"] - s["start"]
        n, k = dur.size, len(self.names)
        child = s["parent"] >= 0
        self_t = dur - np.bincount(s["parent"][child], weights=dur[child], minlength=n)
        calls = np.bincount(s["name"], minlength=k)
        selfs = np.bincount(s["name"], weights=self_t, minlength=k)
        return {
            "calls": {nm: int(calls[i]) for i, nm in enumerate(self.names)},
            "self_s": {nm: float(selfs[i]) for i, nm in enumerate(self.names)},
            "counters": {
                "select_infeasible": self.select_infeasible,
                "cascade_leaked": self.cascade_leaked,
                "cascade_bits": self.cascade_bits,
                "cascade_equal": self.cascade_equal,
            },
        }


def layer_metrics(rounds: list[dict], traced_walls: list[float], untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics from the traced rounds of one run.

    Counts and ratios come from the first traced round, which every run at
    one seed repeats exactly; self times are medians over traced rounds.
    """
    first = rounds[0]
    calls = Counter(first["calls"])  # 0 for a function the program no longer has
    counters = first["counters"]

    def self_s(prefix: str) -> float:
        return statistics.median(
            sum(v for nm, v in r["self_s"].items() if nm == prefix or nm.startswith(prefix + "."))
            for r in rounds
        )

    select_calls = calls["beamforming.select_beams"]
    return {
        "seeds.generator.calls": calls["seeds.generator"],
        "seeds.self_s": self_s("seeds"),
        "channel.self_s": self_s("channel"),
        "channel.array_response.calls": calls["channel.array_response"],
        "channel.evolve.calls": calls["channel.evolve"],
        "channel.evolve.self_s": self_s("channel.evolve"),
        "channel.noise_like.calls": calls["channel.noise_like"],
        "channel.dft_matrix.calls": calls["channel.dft_matrix"],
        "channel.virtual_channel.self_s": self_s("channel.virtual_channel"),
        "beamforming.self_s": self_s("beamforming"),
        "beamforming.steering_beamformer.calls": calls["beamforming.steering_beamformer"],
        "beamforming.beam_gain.calls": calls["beamforming.beam_gain"],
        "beamforming.hierarchical_codebook.self_s": self_s("beamforming.hierarchical_codebook"),
        "beamforming.select_beams.calls": select_calls,
        "beamforming.select_beams.feasible_ratio": _ratio(select_calls - counters["select_infeasible"], select_calls),
        "probing.self_s": self_s("probing"),
        "probing.bidirectional_probe.calls": calls["probing.bidirectional_probe"],
        "keygen.self_s": self_s("keygen"),
        "keygen.cascade.calls": calls["keygen.cascade"],
        "keygen.cascade.self_s": self_s("keygen.cascade"),
        "keygen.cascade.leak_per_bit": _ratio(counters["cascade_leaked"], counters["cascade_bits"]),
        "keygen.cascade.corrected_ratio": _ratio(counters["cascade_equal"], calls["keygen.cascade"]),
        "keygen.key_entropy_rate.calls": calls["keygen.key_entropy_rate"],
        "keygen.key_entropy_rate.self_s": self_s("keygen.key_entropy_rate"),
        "keygen.quantize.self_s": self_s("keygen.quantize"),
        "schemes.sessions": sum(calls[nm] for nm in SESSIONS),
        "schemes.self_s": self_s("schemes"),
        "schemes.estimate_channel.self_s": self_s("schemes.estimate_channel"),
        "experiments.self_s": self_s("experiments"),
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(untraced_walls),
        "trace.self_coverage": statistics.median(
            sum(r["self_s"].values()) / wall for r, wall in zip(rounds, traced_walls)
        ),
    }
