"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions of the geomgate modules with
timing wrappers, by assigning module attributes; ``uninstall`` restores the
originals. Nothing under ``src/`` is edited. Only coarse boundaries are
wrapped. The hot per-gate channel lookup (``GateChannelCache.for_spec``,
1.17 M calls per rb_exact repetition) is not: lookups, gate applications and
RK4 steps are derived from the wrapped calls' arguments and results instead.

A span's self time is its duration minus the durations of the spans it
encloses. Spans are aggregated in memory by name, per repetition.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import defaultdict

# self-time metric -> (module, function) pairs wrapped under that name
SPANS = {
    "cli.main": [("cli", "main")],
    "pulse.synthesize": [("pulse", "synthesize"), ("channels", "synthesize")],
    "evolution.evolve_unitary": [("evolution", "evolve_unitary")],
    "evolution.phase_decomposition": [("evolution", "phase_decomposition")],
    "channels.compile": [("channels", "gate_superop")],
    "tomography.run_qpt": [("tomography", "run_qpt")],
    "tomography.measure": [("tomography", "measure_expectations")],
    "tomography.reconstruct_chi": [("tomography", "reconstruct_chi")],
    "benchmarking.execute": [("benchmarking", "run_reference_rb"),
                             ("benchmarking", "run_interleaved_rb")],
    "benchmarking.sample": [("benchmarking", "sample_sequence")],
    "benchmarking.fit": [("benchmarking", "fit_decay")],
    "cli.write": [("cli", "_write_json"), ("pulse", "save_schedule"),
                  ("evolution", "trajectory_to_csv"),
                  ("evolution", "bloch_path_to_csv"),
                  ("tomography", "chi_to_csv"),
                  ("benchmarking", "decay_to_csv")],
}

COUNTS = ("pulse.synthesize_calls", "evolution.rk4_steps", "channels.compiles",
          "channels.rk4_steps", "channels.lookups", "tomography.projected",
          "benchmarking.sequences", "benchmarking.gate_applications",
          "benchmarking.fit_iterations", "cli.bytes_written")

# channel lookups per run_qpt call with a device: the gate plus 4 preparations
QPT_LOOKUPS = 5


def _arguments(signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Wraps geomgate functions and accumulates self times and counts."""

    def __init__(self, modules: dict):
        self.modules = modules
        self._originals: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []
        self._interleaved = False
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)

    def snapshot(self) -> dict[str, float]:
        """Self times (``<span>_s``) and counts accumulated since reset."""
        out = {f"{name}_s": self.self_s.get(name, 0.0) for name in SPANS}
        out.update(self.counts)
        return out

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for name, targets in SPANS.items():
            for mod_name, attr in targets:
                module = self.modules[mod_name]
                original = getattr(module, attr)
                # one wrapper per function object, so an alias shares it
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(name, original)
                self._originals.append((module, attr, original))
                setattr(module, attr, wrapped[id(original)])

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        observe = getattr(self, "_on_" + fn.__name__, None)
        signature = inspect.signature(fn)
        interleaved = fn.__name__ == "run_interleaved_rb"
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            outer = self._interleaved
            self._interleaved = outer or interleaved
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self._interleaved = outer
                stack.pop()
                self.self_s[name] += dur - children[0]
                if stack:
                    stack[-1][0] += dur
            if observe is not None:
                observe(lambda: _arguments(signature, args, kwargs), result)
            return result

        return wrapper

    # -- counts derived from arguments and results -------------------------

    def _on_synthesize(self, bound, result):
        self.counts["pulse.synthesize_calls"] += 1

    def _on_evolve_unitary(self, bound, result):
        self.counts["evolution.rk4_steps"] += len(result.times) - 1

    def _on_gate_superop(self, bound, result):
        self.counts["channels.compiles"] += 1
        args = bound()
        if isinstance(args["noise"], self.modules["evolution"].DeviceParams):
            # three segments of round(T / dt) RK4 steps each
            steps = max(1, round(args["segment_duration"] / args["dt"]))
            self.counts["channels.rk4_steps"] += 3 * steps

    def _on_run_qpt(self, bound, result):
        self.counts["tomography.projected"] += result.projected_count
        self.counts["channels.lookups"] += (
            QPT_LOOKUPS if bound()["device"] is not None else 1)

    def _on_run_interleaved_rb(self, bound, result):
        if bound()["target_superop"] is None:
            self.counts["channels.lookups"] += 1  # the target channel

    def _on_sample_sequence(self, bound, result):
        m = len(result[0])
        self.counts["benchmarking.sequences"] += 1
        # m Cliffords plus the recovery come from the channel cache; an
        # interleaved sequence also applies the target after each Clifford
        self.counts["channels.lookups"] += m + 1
        self.counts["benchmarking.gate_applications"] += (
            2 * m + 1 if self._interleaved else m + 1)

    def _on_fit_decay(self, bound, result):
        self.counts["benchmarking.fit_iterations"] += result.iterations

    def _on_write(self, bound, result):
        self.counts["cli.bytes_written"] += os.path.getsize(bound()["path"])

    _on__write_json = _on_save_schedule = _on_write
    _on_trajectory_to_csv = _on_bloch_path_to_csv = _on_write
    _on_chi_to_csv = _on_decay_to_csv = _on_write
