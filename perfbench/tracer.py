"""In-memory span tracer around the public functions of the fdrelay modules.

install() wraps every function a module lists in __all__ and rebinds it in
every fdrelay module that imported it (so `opt.link_stats`, `cli.link_stats`
and the package re-exports are traced too; calls through a module object,
such as `opt.analytic.ser_series`, see the wrapped attribute). uninstall()
puts the originals back, so an untraced pass runs the unmodified program.

Each finished span is (span_id, parent_id, name, start, end); parent 0 marks
a root, which includes spans opened in a worker thread of the program. Spans
are kept in memory up to a cap and written out by the caller at the end. Per-name
call counts, total time and self time (span time minus the time of its child
spans) are aggregated for every span, also past the cap.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
from time import perf_counter

LAYERS = ("model", "sfun", "analytic", "opt", "mc", "cli")

# spans under one of these ancestors are also counted as "<name>@<ancestor
# group>", e.g. the SER evaluations an optimizer solve makes
NESTED_COUNTS = {
    "analytic.ser_series": ("solve", ("opt.minimize_1d", "opt.select_joint_optimum")),
}

# numbers read from a call's result, summed per name
EXTRAS = {
    "opt.minimize_1d": lambda res: res.iterations,
    "opt.joint_foc_roots": len,
    "mc.draw_gammas": lambda res: len(res[0]),
}


class Tracer:
    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._tables: list[dict] = []
        self._tables_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.active = {}
            local.table = {}
            with self._tables_lock:
                self._tables.append(local.table)
        return local

    def _wrap(self, name: str, fn):
        tracer = self
        nested = NESTED_COUNTS.get(name)
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._thread_state()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            st.active[name] = st.active.get(name, 0) + 1
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                st.active[name] -= 1
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                row = st.table.get(name)
                if row is None:
                    row = st.table[name] = [0, 0.0, 0.0, 0.0]
                row[0] += 1
                row[1] += dur
                row[2] += dur - frame[1]
                if ok and extra is not None:
                    row[3] += extra(result)
                if nested is not None and any(st.active.get(a) for a in nested[1]):
                    key = f"{name}@{nested[0]}"
                    nrow = st.table.get(key)
                    if nrow is None:
                        nrow = st.table[key] = [0, 0.0, 0.0, 0.0]
                    nrow[0] += 1
                if len(tracer.spans) < tracer.max_spans:
                    tracer.spans.append((frame[0], parent[0] if parent else 0,
                                         name, t0, t1))

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        import fdrelay  # noqa: F401  (loads every submodule but cli)
        import fdrelay.cli  # noqa: F401

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "fdrelay" or n.startswith("fdrelay."))]
        for layer in LAYERS:
            mod = sys.modules[f"fdrelay.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, key, fn))
                            setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._patches):
            setattr(holder, key, fn)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """name -> calls, total_s, self_s, extra (summed over threads)."""
        out: dict[str, list] = {}
        with self._tables_lock:
            for tab in self._tables:
                for name, row in tab.items():
                    acc = out.setdefault(name, [0, 0.0, 0.0, 0.0])
                    for i in range(4):
                        acc[i] += row[i]
        return {name: {"calls": r[0], "total_s": r[1], "self_s": r[2], "extra": r[3]}
                for name, r in out.items()}

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON lines: id, parent, name, start, end."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
