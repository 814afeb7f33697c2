"""In-memory span recorder that times zhuforge's layer boundaries from outside.

`Tracer.wrap` rebinds a module function or class attribute to a wrapper
that records one span per call: (id, parent id, name, start, end), with
the parent taken from the spans still open, so nesting follows the call
stack of the single benchmark thread.  `restore` puts every original back.
Only entry points that cross a module boundary are wrapped; the recursive
internals (`reduce_word`, `splice`, `_emode_word`, `canonical_word`) are
left alone, so their cost lands in the self time of the entry point that
called them.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent, name, start, end), closing order
        self.results = defaultdict(list)   # name -> values from on_result
        self._open = []
        self._next = 0
        self._saved = []

    def wrap(self, owner, attr, name, on_result=None):
        """Record a span named `name` around every call of owner.attr."""
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._open, time.perf_counter
        results = self.results[name]
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if on_result is not None:
                results.append(on_result(out))
            return out

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self, first=0, roots=None):
        """Per span name: calls, total and self seconds.

        Self time is a span's duration minus the time its direct children
        cover; children never overlap because the benchmark is one thread.
        Only spans from index `first` on count (a repetition's spans are
        contiguous), and with `roots` only spans below (or named) one of
        those names.
        """
        spans = self.spans[first:]
        child = defaultdict(float)
        for _sid, parent, _name, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        keep = None
        if roots is not None:
            keep = self._descendants(spans, roots)
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, _parent, name, start, end in spans:
            if keep is not None and sid not in keep:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[sid]
        return dict(out)

    @staticmethod
    def _descendants(spans, roots):
        """Ids of the spans named in `roots` or nested below one."""
        parent_of = {sid: parent for sid, parent, *_ in spans}
        name_of = {sid: name for sid, _parent, name, *_ in spans}
        inside = {}

        def below(sid):
            if sid not in parent_of:
                return False
            if sid not in inside:
                inside[sid] = name_of[sid] in roots or below(parent_of[sid])
            return inside[sid]

        return {sid for sid in parent_of if below(sid)}

    def write(self, path):
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\n"
                         % (sid, parent, name, start, end))
