"""Layer spans for the benchmark's traced runs, recorded from outside the program.

A :class:`Tracer` wraps public functions of the program's layers (by patching
the attributes callers look them up through) and keeps, per layer, the call
count and the *self* time: a span's duration minus the time its wrapped
children took.  Nothing is written while a run is measured; the totals are
read at the end.  :func:`uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Optional


class Tracer:
    """Nested spans with self-time accounting, keyed by layer name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack: list[list] = []  # [layer, start, time spent in children]
        self._undo: list[tuple[object, object, object]] = []
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: Inclusive time of outermost spans: the time named layers cover.
        self.covered_seconds = 0.0

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def enter(self, layer: str) -> None:
        self._stack.append([layer, self._clock(), 0.0])

    def exit(self) -> None:
        layer, start, children = self._stack.pop()
        duration = self._clock() - start
        self.self_seconds[layer] += duration - children
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.covered_seconds += duration

    @contextmanager
    def span(self, layer: str):
        self.enter(layer)
        try:
            yield
        finally:
            self.exit()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def wrap(
        self,
        layer: str,
        fn: Callable,
        after: Optional[Callable[[object], None]] = None,
        when: Optional[Callable[..., bool]] = None,
    ) -> Callable:
        """``fn`` inside a ``layer`` span; ``after`` sees each result.

        ``when`` filters calls by their arguments: calls it rejects run
        untraced (how an inherited base-class method is traced for one
        subclass only).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return fn(*args, **kwargs)
            self.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(result)
            return result

        return traced

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def patch(self, owner: object, name: str, layer: str, **options) -> None:
        """Replace ``owner.name`` (class, module or mapping) by its traced form."""
        if isinstance(owner, dict):
            original = owner[name]
            owner[name] = self.wrap(layer, original, **options)
        elif isinstance(owner, type):
            original = owner.__dict__[name]
            if isinstance(original, staticmethod):
                setattr(owner, name, staticmethod(self.wrap(layer, original.__func__, **options)))
            else:
                setattr(owner, name, self.wrap(layer, original, **options))
        else:
            original = getattr(owner, name)
            setattr(owner, name, self.wrap(layer, original, **options))
        self._undo.append((owner, name, original))

    def patch_everywhere(self, modules, fn: Callable, layer: str, **options) -> None:
        """Trace ``fn`` under every module-level name that refers to it."""
        traced = self.wrap(layer, fn, **options)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, name, traced)
                    self._undo.append((module, name, fn))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
