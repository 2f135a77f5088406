"""In-memory span tracer that times a program's layers from outside it.

The tracer replaces chosen functions and methods with wrappers that record
one span per call: a parent id, the thread, wall-clock start and end, and
the thread CPU time spent inside.  Nothing in the traced program changes;
`Tracer.uninstall` puts every original object back.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    cpu: float  # thread CPU seconds between start and end

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass
class Target:
    """One name to wrap.

    `attr` is a module attribute (`gamma`) or a class attribute
    (`Arrangements.__init__`).  Methods are wrapped on the class, never the
    class itself, because the program calls `isinstance` on its classes.
    Each entry of `counts` maps a counter name to a function of the call's
    positional arguments and its result that says how much to add.
    """

    module: str
    attr: str
    metric: str
    counts: dict[str, Callable] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


class Tracer:
    """Records spans; a span's parent is the innermost open span of its thread.

    A span opened in a thread with no open span, such as a pool worker,
    takes as parent the innermost open span of the thread that created the
    tracer.  That is the caller waiting on the pool, because the benchmark
    runs one job at a time.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self.absent: list[str] = []
        self.metric_of: dict[str, str] = {}  # span name -> metric
        self._ids = itertools.count(1)
        self._home = threading.get_ident()
        self._home_stack: list[int] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self._count_lock = threading.Lock()

    # -- recording ------------------------------------------------------------

    def _open(self):
        ident = threading.get_ident()
        if ident == self._home:
            stack = self._home_stack
        else:
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._home_stack[-1]
            except IndexError:
                parent = None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent, ident, time.thread_time(), time.perf_counter()

    def _close(self, name: str, token) -> None:
        end = time.perf_counter()
        cpu_end = time.thread_time()
        stack, sid, parent, ident, cpu_start, start = token
        stack.pop()
        self.spans.append(Span(sid, parent, name, ident, start, end, cpu_end - cpu_start))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        token = self._open()
        try:
            yield
        finally:
            self._close(name, token)

    def wrap(self, fn: Callable, name: str, counts: dict[str, Callable]) -> Callable:
        open_, close = self._open, self._close
        counters, lock = self.counts, self._count_lock
        counted = tuple(counts.items())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = open_()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(name, token)
            if counted:
                with lock:  # pool threads update the same counters
                    for key, count in counted:
                        counters[key] += count(args, result)
            return result

        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- installing wrappers --------------------------------------------------

    def install(self, targets) -> None:
        """Wrap every target; a name the program no longer has is recorded
        in `absent` and skipped."""
        for target in targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.absent.append(target.name)
                continue
            owner_name, _, member = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                if not isinstance(owner, type) or member not in vars(owner):
                    self.absent.append(target.name)
                    continue
                self._wrap_class_member(owner, member, target)
            elif member in vars(module):
                self._wrap_function(module, member, target)
            else:
                self.absent.append(target.name)
                continue
            self.metric_of[target.name] = target.metric

    def _wrap_class_member(self, owner: type, member: str, target: Target) -> None:
        raw = vars(owner)[member]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(raw.__func__, target.name, target.counts))
        else:
            wrapped = self.wrap(raw, target.name, target.counts)
        setattr(owner, member, wrapped)
        self._restore.append((owner, member, raw))

    def _wrap_function(self, module, member: str, target: Target) -> None:
        """Replace the function at every binding in the program's package:
        `from .a import f` in module b makes `b.f` a binding of its own."""
        original = getattr(module, member)
        wrapped = self.wrap(original, target.name, target.counts)
        package = module.__name__.split(".")[0] + "."
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != package[:-1] and not name.startswith(package):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)


def self_times(spans) -> dict[int, float]:
    """Each span's wall time minus the part of its interval covered by the
    union of its children's intervals.  Children may run in other threads
    and overlap one another; each covered instant is subtracted once."""
    children = collections.defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        pieces = sorted(
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())
        )
        covered = 0.0
        lo = hi = None
        for a, b in pieces:
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.id] = s.wall - covered
    return out
