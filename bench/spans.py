"""In-memory span recorder for the benchmark's traced run.

A Tracer replaces library callables with timing wrappers at the
attribute their callers look up (a module global such as
``modcap.training.greedy_decode`` or a class attribute such as
``CaptionModel.step``) and puts the originals back on ``uninstall``.
Nothing inside ``src/modcap`` changes.  Each call becomes one span:
name, start, end and the span that was open when it began.  Spans stay
in memory until ``write`` is called at exit.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter_ns


class Tracer:
    def __init__(self, targets):
        """targets: (span name, "module" or "module:Class", attribute,
        optional callback fed each call's return value)."""
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.spans: list = []            # (name id, parent index or -1, start ns, end ns)
        self._open: list[int] = []
        self._patches: list = []         # (owner, attribute, wrapper, original)
        self.missing: list[str] = []
        for name, where, attr, *hook in targets:
            owner = _resolve(where)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{where}.{attr}")
                continue
            wrapper = self._wrap(original, self._nid(name), hook[0] if hook else None)
            self._patches.append((owner, attr, wrapper, original))

    def _nid(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _wrap(self, fn, nid: int, on_result):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (nid, parent, start, end)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, wrapper, _ in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, _, original in self._patches:
            setattr(owner, attr, original)

    def summary(self, upto: int | None = None) -> dict[str, dict]:
        """Per span name over the first ``upto`` spans: total seconds, self
        seconds (total minus the time covered by child spans) and calls."""
        spans = self.spans[:upto]
        child_ns = [0] * len(spans)
        for nid, parent, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in self.names}
        for (nid, _, start, end), inner in zip(spans, child_ns):
            row = out[self.names[nid]]
            row["s"] += (end - start) * 1e-9
            row["self_s"] += (end - start - inner) * 1e-9
            row["calls"] += 1
        return out

    def write(self, path, upto: int | None = None) -> None:
        with open(path, "w") as fh:
            for idx, (nid, parent, start, end) in enumerate(self.spans[:upto]):
                fh.write(json.dumps({"id": idx, "name": self.names[nid], "parent": parent,
                                     "start_ns": start, "end_ns": end}) + "\n")


def _resolve(where: str):
    module, _, cls = where.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls, None) if cls else owner
