"""Span tracer for the scg benchmark, installed from outside the package.

`Tracer.install` wraps every public function defined in the eight scg
modules, plus the two per-call methods `GameInstance.validate_profile` and
`GeneralizedGame.utility_in_profile`.  A wrapper is written into every scg
module attribute that holds the original function, so calls through
`from .model import player_utility` bindings, module-attribute calls in the
CLI and the package re-exports are all seen.  `uninstall` puts every
original back.  Nothing under `src/` is edited.

Each call records a span (job id, function, start, end, parent function).
Per function the tracer keeps call counts, self time (span time minus the
time of the spans nested directly inside it) and inclusive time.  A few
layers also get work counts read from arguments and results, such as
dynamics moves and enumerated profiles.  Spans stay in memory, up to
`SPAN_CAP` of them, and `write_spans` writes them out when the run ends.
Spans past the cap are counted in `spans_dropped` but not kept; the call
counts and times above cover every call either way.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import sys
import time

LAYERS = ("rationals", "model", "dynamics", "analysis", "potentials",
          "generalized", "generators", "cli")

#: Spans kept in memory; on the kernel-heavy workloads this is about the
#: first job's worth.  Later spans only count in `spans_dropped`.
SPAN_CAP = 100_000

#: (module, class, method) wrapped in addition to the module functions.
METHODS = (("model", "GameInstance", "validate_profile"),
           ("generalized", "GeneralizedGame", "utility_in_profile"))


def _space(game):
    return game.m ** game.n


def _lex_rank(profile, m):
    """1-based position of a profile in itertools.product order."""
    rank = 0
    for s in profile:
        rank = rank * m + (s - 1)
    return rank + 1


def _on_run_dynamics(tracer, args, result):
    tracer.add("dynamics.moves", len(result.moves))


def _on_one_shot(tracer, args, result):
    tracer.add("dynamics.moves", len(result[1].moves))


def _on_census(tracer, args, result):
    space = _space(args[0])
    tracer.add("analysis.profiles_enumerated", space)
    tracer.add("analysis.census_profiles", space)
    tracer.add("analysis.census_equilibria", len(result.equilibria))


def _on_optimum(tracer, args, result):
    tracer.add("analysis.profiles_enumerated", _space(args[0]))


def _on_strong(tracer, args, result):
    game = args[0]
    # the scan stops at the first violating profile
    done = (_space(game) if result.witness_profile is None
            else _lex_rank(result.witness_profile, game.m))
    tracer.add("analysis.profiles_enumerated", done)


def _on_audit(tracer, args, result):
    tracer.add("potentials.audit_trials", result.trials)


def _on_degree(tracer, args, result):
    per_player = collections.Counter(key[0] for key in args[0].tables)
    tracer.add("generalized.table_pairs",
               sum(c * c for c in per_player.values()))


def _on_cli_main(tracer, args, result):
    if result != 0:
        tracer.add("cli.unexpected_exit", 1)


#: Work counters derived from a wrapped function's arguments and result.
HOOKS = {
    "dynamics.run_dynamics": _on_run_dynamics,
    "dynamics.one_shot_alpha_br": _on_one_shot,
    "analysis.equilibrium_census": _on_census,
    "analysis.brute_force_optimum": _on_optimum,
    "analysis.verify_approx_strong": _on_strong,
    "potentials.ordinal_audit": _on_audit,
    "generalized.supermodularity_degree": _on_degree,
    "cli.main": _on_cli_main,
}


class Tracer:
    """Wraps scg functions while installed and aggregates their spans."""

    def __init__(self):
        self.job = None  # id shared by every span of the current job
        self.names = []  # function id -> "layer.function"
        self.calls = []
        self.errors = []
        self.self_s = []
        self.total_s = []
        self.counts = collections.Counter()
        self.spans = []
        self.spans_dropped = 0
        self._stack = []
        self._wrappers = {}  # id(original) -> (original, wrapper)
        self._restore = []  # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the scg functions; the package must already be imported."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        if not self._wrappers:
            self._build_wrappers()
        for modname, mod in list(sys.modules.items()):
            if modname != "scg" and not modname.startswith("scg."):
                continue
            for attr, value in list(vars(mod).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, entry[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"scg.{layer}"], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrappers[id(original)][1])

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _build_wrappers(self):
        for layer in LAYERS:
            mod = sys.modules[f"scg.{layer}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                self._add_wrapper(f"{layer}.{attr}", fn)
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"scg.{layer}"], cls_name)
            self._add_wrapper(f"{layer}.{meth}", cls.__dict__[meth])

    def _add_wrapper(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.errors.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        hook = HOOKS.get(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        calls, errors = self.calls, self.errors
        self_s, total_s = self.self_s, self.total_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, fid]  # [time of nested spans, function id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[fid] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[fid] += 1
                self_s[fid] += dur - frame[0]
                total_s[fid] += dur
                if parent is not None:
                    parent[0] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((self.job, fid, start, end,
                                  -1 if parent is None else parent[1]))
                else:
                    self.spans_dropped += 1
            if hook is not None:
                hook(self, args, result)
            return result

        self._wrappers[id(fn)] = (fn, wrapper)

    # -- results ----------------------------------------------------------

    def add(self, counter, amount):
        self.counts[counter] += amount

    def _ids(self, name):
        return [fid for fid, n in enumerate(self.names)
                if n == name or n.startswith(name + ".")]

    def n_calls(self, name):
        return sum(self.calls[f] for f in self._ids(name))

    def n_errors(self, name):
        return sum(self.errors[f] for f in self._ids(name))

    def self_time(self, name):
        """Self time of one function, or summed over a whole layer."""
        return sum(self.self_s[f] for f in self._ids(name))

    def total_time(self, name):
        return sum(self.total_s[f] for f in self._ids(name))

    def call_counts(self):
        return {name: self.calls[fid] for fid, name in enumerate(self.names)}

    def write_spans(self, path):
        """Write the names table and the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "spans_dropped": self.spans_dropped}) + "\n")
            for job, fid, start, end, parent in self.spans:
                fh.write(json.dumps([job, fid, start, end, parent]) + "\n")
