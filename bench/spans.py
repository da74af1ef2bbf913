"""Spans and solver outcomes recorded around calls into mmloc's modules.

Callers inside mmloc reach each other through module attributes
(``_solvit.solvit_solve(...)``, ``hyperbola_points(...)`` as a module
global), so replacing an attribute on its module with a wrapper puts a
span around every call without editing the package.  Spans stay in
memory; ``aggregate`` turns them into per-name call counts, total time
and self time (duration minus the time covered by direct child spans).
"""

from __future__ import annotations

import time


class Recorder:
    """Installs wrappers on module attributes and removes them on ``restore``.

    ``outcomes`` gets one ``(solver, status, iterations)`` tuple per solver
    call whether or not spans are recorded, because the benchmark counts
    failures from the statuses the solvers return.
    """

    def __init__(self):
        self.spans = []      # [name, parent index or -1, start, end]
        self.outcomes = []   # (solver name, status, iterations)
        self._stack = []
        self._saved = []     # (module, attr, original), in install order

    def _replace(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def record_outcomes(self, module, attr, solver):
        """Record the status of every ``(estimate, SolveTrace)`` the solver returns."""
        fn = getattr(module, attr)
        outcomes = self.outcomes

        def wrapper(*args, **kwargs):
            try:
                est, trace = fn(*args, **kwargs)
            except Exception:
                outcomes.append((solver, "error", 0))
                raise
            outcomes.append((solver, trace.status, trace.iterations))
            return est, trace

        self._replace(module, attr, wrapper)

    def span(self, module, attr, name):
        """Record a span named ``name`` around every call of ``module.attr``."""
        fn = getattr(module, attr)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][3] = clock()
                stack.pop()

        self._replace(module, attr, wrapper)

    def installed(self):
        return len(self._saved)

    def restore(self, keep=0):
        """Undo wrappers, last first, until only the first ``keep`` remain."""
        while len(self._saved) > keep:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def aggregate(self, first=0, end=None):
        """``{name: [calls, total_s, self_s]}`` over the spans ``first:end``."""
        spans = self.spans
        end = len(spans) if end is None else end
        child_s = [0.0] * len(spans)
        for idx in range(first, end):
            _, parent, start, stop = spans[idx]
            if parent >= first:
                child_s[parent] += stop - start
        out = {}
        for idx in range(first, end):
            name, _, start, stop = spans[idx]
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += stop - start
            row[2] += stop - start - child_s[idx]
        return out
