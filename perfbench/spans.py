"""In-memory span recorder and the per-module wrappers of the traced run.

A span is (name, start, end, parent).  Spans are appended to flat arrays
while the workload runs, so recording allocates no Python object per call,
and are written out once at the end.  Wrappers are installed from outside
the package: each listed function is replaced at every place the package
binds it (module attributes, class attributes and the harness check
tuple) and restored afterwards, so the untraced cycles of a traced run
execute the original functions.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Module -> public functions (or Class.method) timed in the traced run.
# The harness command functions that are not reported by name are wrapped
# too, so that ``main``'s self time is argument parsing and stdout only.
TRACED = {
    "wavepacket": ("make_plateau", "AmplitudeProfile.normalized",
                   "AmplitudeProfile.restrict", "overlap", "mass_in_interval"),
    "measurement": ("bob_outcome_distribution", "eve_outcome_distribution"),
    "adversary": ("apply_resend", "instrument_contraction_check", "optimal_delay"),
    "distill": ("run_session", "estimate_error", "majority_decode",
                "form_parity_bits", "hash_rounds", "Transcript.to_text",
                "Transcript.from_text", "replay_keys"),
    "security": ("solve_parameters", "build_report", "parity_count"),
    "harness": ("load_campaign", "cmd_distill", "cmd_simulate", "cmd_verify",
                "simulate_intercept_resend", "check_parity_identity",
                "check_parity_cosine", "check_delay_bound",
                "check_instrument_bound", "check_hash_calibration",
                "check_majority_tail"),
    "cli": ("main",),
}


class Recorder:
    """Flat span store; one recorder per traced run, timed with ``clock``."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = [-1]

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records one span."""
        nid = self.intern(name)
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def run(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a root span (one workload op)."""
        return self.span(name, fn)(*args)

    def arrays(self):
        names = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parents = np.frombuffer(self.parent, dtype=np.int32).copy()
        starts = np.frombuffer(self.start, dtype=np.float64).copy()
        ends = np.frombuffer(self.end, dtype=np.float64).copy()
        return names, parents, starts, ends

    def save(self, path: str):
        names, parents, starts, ends = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=names,
                            parent=parents, start=starts, end=ends)


class Patches:
    """Install a recorder's wrappers at every binding site, and undo them."""

    def __init__(self, recorder: Recorder):
        self._recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "relqkd" or name.startswith("relqkd.")}
        wrapped = {}
        for short, targets in TRACED.items():
            home = mods[f"relqkd.{short}"]
            for target in targets:
                if "." in target:
                    self._patch_method(getattr(home, target.split(".")[0]), target)
                else:
                    fn = getattr(home, target)
                    wrapped[id(fn)] = self._patch_function(mods, fn, target)
        harness = mods["relqkd.harness"]
        self._set(harness, "DEFAULT_CHECKS",
                  tuple(wrapped.get(id(c), c) for c in harness.DEFAULT_CHECKS))

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, mods, fn, name):
        new = self._recorder.span(name, fn)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, new)
        return new

    def _patch_method(self, cls, qualname):
        attr = qualname.split(".")[1]
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._recorder.span(qualname, raw.__func__))
        else:
            new = self._recorder.span(qualname, raw)
        self._set(cls, attr, new)


def self_times(recorder: Recorder):
    """Per-span duration and self time (duration minus child-span time)."""
    names, parents, starts, ends = recorder.arrays()
    dur = ends - starts
    child = np.zeros_like(dur)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    return names, parents, dur, dur - child


def enclosing(recorder: Recorder, parents, names, wanted: set[str]) -> np.ndarray:
    """Index of the nearest enclosing span whose name is in ``wanted`` (or -1)."""
    wanted_ids = {i for i, name in enumerate(recorder.names) if name in wanted}
    nid = names.tolist()
    out = []
    for p in parents.tolist():   # a parent always precedes its children
        out.append(-1 if p < 0 else p if nid[p] in wanted_ids else out[p])
    return np.array(out, dtype=np.int64)
