"""Outside-in tracing of distlap's public functions.

Tracer.installed() replaces every public function defined in a distlap module
with a timing wrapper, wherever distlap code looks that function up: in its
own module and in every module that imported it by name (for example
distlap.verify.eig_symmetric and distlap.cli.analyze). The program itself is
unmodified and runs untraced outside the `with` block.

Spans are kept in memory as (name, start, end, parent, call) and written out
once, at the end of the run. A span's self time is its duration minus the
durations of its direct children; since calls nest, the self times of all
spans under one root add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

MODULES = ("graphs", "metric", "eigen", "coloring", "twins", "verify", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list = []   # [name index, start, end, parent index, call id]
        self.stack: list[int] = []
        self.call = -1

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _open(self, idx: int) -> list:
        span = [idx, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.call]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()

    def abandon_open_spans(self) -> None:
        """Close spans left open by a call interrupted at its deadline."""
        now = time.perf_counter()
        for i in self.stack:
            self.spans[i][2] = now
        self.stack.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        s = self._open(self._name_index(name))
        try:
            yield
        finally:
            self._close(s)

    def _wrap(self, name: str, fn):
        idx = self._name_index(name)
        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the caller's work between items
            # is not charged to the generator
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    s = self._open(idx)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(s)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = self._open(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(s)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap distlap's public functions for the duration of the block."""
        modules = {m: sys.modules[f"distlap.{m}"] for m in MODULES}
        targets = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        patched = []
        for mod in [sys.modules[k] for k in sorted(sys.modules)
                    if k == "distlap" or k.startswith("distlap.")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    setattr(mod, attr, targets[id(obj)][1])
                    patched.append((mod, attr, obj))
        try:
            yield
        finally:
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    # -----------------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-name self seconds and call counts."""
        child = [0.0] * len(self.spans)
        for idx, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, (idx, start, end, _, _) in enumerate(self.spans):
            name = self.names[idx]
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls

    def dump(self, path, meta: dict) -> None:
        """Write the spans as JSON; times are seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({**meta, "names": self.names,
                       "span_fields": ["name", "start", "end", "parent", "call"],
                       "spans": [[i, round(s - t0, 7), round(e - t0, 7), p, c]
                                 for i, s, e, p, c in self.spans]},
                      fh, separators=(",", ":"))
