"""In-memory spans for the traced benchmark run.

A span records a name, the request it belongs to, the span that was open
when it started, and its start and end in nanoseconds.  Spans stay in memory
until the run ends; then they are summarised per layer (self time: the span's
duration minus the part its child spans cover) and written out as JSON lines.
"""

import json
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    __slots__ = ("spans", "request", "_open")

    def __init__(self):
        self.spans = []  # [name, request, parent index or -1, start_ns, end_ns]
        self.request = 0
        self._open = []

    def new_request(self) -> int:
        self.request += 1
        return self.request

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def self_times(self) -> dict:
        """Layer name -> (span count, total self time in ns)."""
        child_ns = [0] * len(self.spans)
        for name, _, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: [0, 0])
        for i, (name, _, _, start, end) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += end - start - child_ns[i]
        return {name: (count, ns) for name, (count, ns) in out.items()}

    def durations(self, name: str) -> dict:
        """Request -> summed duration in ns of the spans with this name."""
        out = defaultdict(int)
        for span_name, request, _, start, end in self.spans:
            if span_name == name:
                out[request] += end - start
        return out

    def write(self, path) -> None:
        keys = ("name", "request", "parent", "start_ns", "end_ns")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        parent = tracer._open[-1] if tracer._open else -1
        self.record = [name, tracer.request, parent, 0, 0]

    def __enter__(self):
        tracer = self.tracer
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[3] = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.record[4] = perf_counter_ns()
        self.tracer._open.pop()
        return False
