"""Timing spans around the public functions of each stokes_lab layer.

The program has no tracing of its own, so the benchmark installs it from
outside: every layer function listed in LAYERS is replaced, in each
stokes_lab module that holds a reference to it, by a wrapper that records
a span (name, start, end, parent) plus a few exact counts.  `uninstall`
puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = (
    "tomography.choose_directions",
    "tomography.outcome_distribution",
    "tomography.simulate_measurement",
    "tomography.estimate_moments",
    "tomography.solve_moment_components",
    "tomography.assemble_all_tensors",
    "tomography.reconstruct_density",
    "tomography.run_tomography",
    "serialize.state_from_json",
    "serialize.result_to_json",
    "serialize.dumps",
    "moments.averaged_components",
    "moments.polarization_tensor",
    "cli.main",
)

# Span-sum identities hold up to float rounding of perf_counter differences.
SUM_TOL_S = 1e-9


def _blocks_of(args, kwargs, result):
    # populated manifolds with N > 0 are the ones that cost an eigh
    state = args[0] if args else kwargs["state"]
    blocks = getattr(state, "blocks", None)
    ns = [state.n_photons] if blocks is None else [n for n, _, _ in blocks]
    return {"blocks": tuple(n for n in ns if n > 0)}


def _direction_key(args, kwargs, result):
    return {"key": (result.label, tuple((d.x, d.y, d.z) for d in result.directions))}


def _shots_of(args, kwargs, result):
    setting = args[1] if len(args) > 1 else kwargs["setting"]
    return {"shots": setting.shots}


def _reconstructed(args, kwargs, result):
    return {"reconstructed": frozenset(result.manifolds)}


def _dumped_bytes(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


# Exact counts recorded after the span closes, from the call and its result.
_ANNOTATE = {
    "tomography.outcome_distribution": _blocks_of,
    "tomography.choose_directions": _direction_key,
    "tomography.simulate_measurement": _shots_of,
    "tomography.run_tomography": _reconstructed,
    "serialize.dumps": _dumped_bytes,
}


class Tracer:
    """In-memory span recorder; spans are (name, start, end, parent, data)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def _wrap(self, name: str, func):
        annotate = _ANNOTATE.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = [name, time.perf_counter(), None, parent, {}]
            self.spans.append(span)
            self._stack.append(index)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if annotate is not None and result is not None:
                    span[4] = annotate(args, kwargs, result)

        return wrapper

    def install(self) -> None:
        """Replace every reference to a layer function inside stokes_lab."""
        modules = [m for key, m in list(sys.modules.items()) if key == "stokes_lab" or key.startswith("stokes_lab.")]
        for name in LAYERS:
            module_name, attr = name.split(".")
            original = getattr(sys.modules[f"stokes_lab.{module_name}"], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched = []


def analyze_round(spans, round_start: float, round_end: float) -> dict:
    """Per-layer self time and counts for one round, with the sum check.

    A span's self time is its duration minus its children's durations;
    `other` is the round time that no top-level span covers.  Raises
    ValueError when spans are unclosed, overlap their parent, or fall
    outside the round, since the layer times would then not add up.
    """
    child_time = [0.0] * len(spans)
    top_time = 0.0
    for name, start, end, parent, _ in spans:
        if end is None:
            raise ValueError(f"span {name} never closed")
        if parent is None:
            if start < round_start or end > round_end:
                raise ValueError(f"span {name} lies outside its round")
            top_time += end - start
        else:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start or end > p_end:
                raise ValueError(f"span {name} is not nested in {spans[parent][0]}")
            child_time[parent] += end - start

    self_s = {name: 0.0 for name in LAYERS}
    calls = {name: 0 for name in LAYERS}
    for i, (name, start, end, _, _) in enumerate(spans):
        own = (end - start) - child_time[i]
        if own < -SUM_TOL_S:
            raise ValueError(f"span {name} has negative self time {own:.3e} s")
        self_s[name] += own
        calls[name] += 1

    round_s = round_end - round_start
    other = round_s - top_time
    if other < -SUM_TOL_S or abs(sum(self_s.values()) + other - round_s) > SUM_TOL_S:
        raise ValueError("layer self times plus other do not add up to the round time")

    run_of = {}
    for i, (name, _, _, parent, _) in enumerate(spans):
        run_of[i] = i if name == "tomography.run_tomography" else (None if parent is None else run_of[parent])
    blocks = useful = shots = dumped = 0
    direction_sets = []
    for i, (name, _, _, _, data) in enumerate(spans):
        if name == "tomography.outcome_distribution" and data:
            run = run_of[i]
            kept = spans[run][4].get("reconstructed", frozenset()) if run is not None else frozenset()
            blocks += len(data["blocks"])
            useful += sum(1 for n in data["blocks"] if n in kept)
        elif name == "tomography.choose_directions" and data:
            direction_sets.append(data["key"])
        elif name == "tomography.simulate_measurement" and data:
            shots += data["shots"]
        elif name == "serialize.dumps" and data:
            dumped += data["bytes"]

    return {
        "round_s": round_s,
        "self_s": self_s,
        "other_s": other,
        "counts": {
            **{f"{name}.calls": calls[name] for name in LAYERS},
            "tomography.outcome_distribution.blocks": blocks,
            "tomography.outcome_distribution.useful_blocks": useful,
            "tomography.choose_directions.distinct": len(set(direction_sets)),
            "tomography.simulate_measurement.shots": shots,
            "serialize.dumps.bytes": dumped,
        },
    }
