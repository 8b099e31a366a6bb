"""In-memory spans around drpkit's public functions, attached from outside the package.

A :class:`Tracer` records one span per call of each wrapped function: name,
start, end, parent span and an optional label computed from the call's
arguments. Wrappers are attached by dotted name (``drpkit.numerics.cholesky``,
``drpkit.numerics.SeededRng.substream``) and restored afterwards. A module-level
function is replaced in every ``drpkit`` module that holds a reference to it,
because ``from .numerics import cholesky`` gives ``drpkit.lensing`` its own
name to look up. A name that no longer resolves is reported as absent instead
of raising, so the benchmark keeps running when a refactor deletes or merges
functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

# span record fields, stored as lists for speed: [name, start, end, parent, label]
NAME, START, END, PARENT, LABEL = range(5)


def resolve(dotted: str):
    """(owner, attribute, value) for a dotted name, or None when it does not exist.

    The longest importable prefix is the module; the rest is an attribute
    chain, so ``pkg.mod.Class.method`` resolves to (Class, "method", function).
    """
    parts = dotted.split(".")
    for i in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        try:
            for p in parts[i:-1]:
                owner = getattr(owner, p)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            return None
    return None


def _namespaces(package: str):
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


@dataclass
class Tracer:
    """Records spans in memory; ``install`` attaches wrappers, ``restore`` removes them."""

    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def wrap(self, name: str, fn, label=None):
        """A function that calls ``fn`` inside a span called ``name``.

        ``label(bound_arguments)`` may return a value stored with the span,
        such as a path or a sampler kind; it runs inside the span.
        """
        sig = inspect.signature(fn) if label is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, self.clock(), 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                if label is not None:
                    try:
                        rec[LABEL] = label(sig.bind(*args, **kwargs).arguments)
                    except (TypeError, KeyError, AttributeError):
                        rec[LABEL] = None
                return fn(*args, **kwargs)
            finally:
                rec[END] = self.clock()
                self._stack.pop()

        return wrapper

    def install(self, targets: dict, package: str = "drpkit"):
        """Wrap each ``{span name: (dotted name, label or None)}`` target.

        Returns the span names whose dotted name did not resolve.
        """
        absent = []
        for span_name, (dotted, label) in targets.items():
            found = resolve(dotted)
            if found is None:
                absent.append(span_name)
                continue
            owner, attr, original = found
            wrapper = self.wrap(span_name, original, label)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
            else:
                for module in _namespaces(package):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
        return absent

    def _patch(self, owner, attr, wrapper):
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def take(self) -> list:
        """The recorded spans; the tracer starts a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    out = []
    for rec, kids in zip(spans, children):
        dur = rec[END] - rec[START]
        if kids:
            dur -= _covered((max(s, rec[START]), min(e, rec[END])) for s, e in kids)
        out.append(dur)
    return out


def busy_time(spans, names) -> float:
    """Wall time during which at least one span with one of ``names`` was open."""
    return _covered((r[START], r[END]) for r in spans if r[NAME] in names)
