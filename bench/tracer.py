"""Outside-in tracing of the engine's public functions.

``Tracer.install`` replaces each traced function by a timing wrapper in
every ``shirshov`` module that holds it (the modules import helpers such
as ``apply_D`` and ``leading`` by name, so patching the defining module
alone would miss most calls), and wraps traced methods on their class.
``uninstall`` puts the originals back.

Each wrapper keeps a stack frame of the time its traced children took, so
a layer's self time is its own duration minus the time spent in traced
callees.  Recursive functions count only their outermost call: an inner
call made while the outermost one is running goes straight to the
original.  Hot leaf functions are aggregated into call counts and self
time; every other traced call also leaves a span
``(id, parent id, name, start, end)`` in memory.
"""

from __future__ import annotations

import sys
import time


class Stat:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra = {}

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value


# (metric prefix, module, attribute, recursive, hot)
FUNCTIONS = (
    ("words.occurrences", "words", "occurrences", True, True),
    ("algebra.apply_D", "algebra", "apply_D", False, True),
    ("algebra.leading", "algebra", "leading", False, True),
    ("algebra.lie_expand", "algebra", "lie_expand", True, True),
    ("lyndon.special_expand", "lyndon", "special_expand", False, True),
    ("lyndon.shirshov_bracket", "lyndon", "shirshov_bracket", True, True),
    ("lyndon.is_alsw_hereditary", "lyndon", "is_alsw_hereditary", True, True),
    ("syntax.parse_term", "syntax", "parse_term", False, False),
    ("syntax.format_term", "syntax", "format_term", False, False),
    ("rota_baxter.drbl_nf", "rota_baxter", "drbl_nf", False, False),
    ("rota_baxter.enumerate_basis", "rota_baxter", "enumerate_basis", False, False),
    ("reference.oracle_quotient_dim", "reference", "oracle_quotient_dim", False, False),
)

# (metric prefix, module, class, method, recursive, hot)
METHODS = (
    ("words.key", "words", "Alphabet", "key", True, True),
    ("rewriting.build", "rewriting", "RewriteSystem", "__init__", False, False),
    ("rewriting.find_ambiguities", "rewriting", "RewriteSystem", "find_ambiguities", False, False),
    ("rewriting.composition", "rewriting", "RewriteSystem", "composition", False, False),
    ("rewriting.reduce", "rewriting", "RewriteSystem", "reduce", False, False),
    ("rewriting.match", "rewriting", "RewriteSystem", "match", False, True),
    ("rota_baxter.section_rule", "rota_baxter", "DrblSystem", "section_rule", False, False),
    ("rota_baxter.rota_baxter_rule", "rota_baxter", "DrblSystem", "rota_baxter_rule", False, False),
)


def _log_steps(log_position):
    """Hook pair that counts steps through the function's ``log=`` argument."""

    def before(args, kwargs):
        if len(args) > log_position:
            log = args[log_position]
        else:
            log = kwargs.get("log")
        if log is None:
            log = kwargs["log"] = []
        return log, len(log)

    def after(stat, state, args, result):
        log, start = state
        stat.add("steps", len(log) - start)

    return before, after


def _terms_out(stat, state, args, result):
    stat.add("terms_out", len(result.terms))


def _match_hits(stat, state, args, result):
    stat.add("hits", result is not None)


def _ambiguities(stat, state, args, result):
    stat.add("ambiguities", len(result))
    stat.add("lifts_squared", len(args[0].lifted) ** 2)


def _built(stat, state, args, result):
    engine = args[0]
    stat.add("rules", len(engine.rules))
    stat.add("lifts", len(engine.lifted))


# Positions count ``self`` for methods: reduce(self, p, mode, strategy, log).
HOOKS = {
    "algebra.apply_D": (None, _terms_out),
    "rewriting.match": (None, _match_hits),
    "rewriting.find_ambiguities": (None, _ambiguities),
    "rewriting.build": (None, _built),
    "rewriting.reduce": _log_steps(4),
    "rota_baxter.drbl_nf": _log_steps(3),
}


class Tracer:
    """Installs timing wrappers and accumulates per-name statistics."""

    def __init__(self, package: str = "shirshov"):
        self.package = package
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self._stack = [[0.0, 0]]
        self._patches: list[tuple] = []

    def reset(self):
        """Forget statistics and spans; wrappers stay installed."""
        for name in self.stats:
            self.stats[name] = Stat()
        self.spans.clear()
        self._stack[:] = [[0.0, 0]]

    def _modules(self):
        prefix = self.package + "."
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(prefix))
        ]

    def _wrap(self, name, fn, recursive, hot):
        self.stats[name] = Stat()
        stats = self.stats
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        before, after = HOOKS.get(name, (None, None))
        active = [False]

        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            parent = stack[-1]
            if hot:
                frame = [0.0, parent[1]]
            else:
                spans.append(None)
                frame = [0.0, len(spans)]
            stack.append(frame)
            active[0] = recursive
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[0] = False
                stack.pop()
                duration = end - start
                parent[0] += duration
                stat = stats[name]
                stat.calls += 1
                stat.self_s += duration - frame[0]
                if not hot:
                    spans[frame[1] - 1] = (frame[1], parent[1], name, start, end)
            if after is not None:
                after(stats[name], state, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for name, module, attr, recursive, hot in FUNCTIONS:
            home = sys.modules["%s.%s" % (self.package, module)]
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, recursive, hot)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)
        for name, module, cls_name, attr, recursive, hot in METHODS:
            cls = getattr(sys.modules["%s.%s" % (self.package, module)], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, recursive, hot))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def snapshot(self) -> dict:
        """Per-name totals since the last reset, as plain numbers."""
        out = {}
        for name, stat in self.stats.items():
            entry = {"calls": stat.calls, "self_s": stat.self_s}
            entry.update(stat.extra)
            out[name] = entry
        return out
