"""Outside-in layer trace: wrap the program's public functions from the
benchmark's own files and count calls and self time per function.

Many functions are imported by name into other modules (``from .balance
import is_balanced``), so replacing the attribute on the defining module is
not enough: every binding of the function object in every liebalance module
is replaced, and put back on exit.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Tuple

# (module, function) for each traced layer, as named in BENCHMARK.json
LAYERS = [
    ("linalg", "rref"), ("balance", "is_balanced"), ("roots", "root_system"),
    ("classify", "classify"), ("toledo", "propagate_constraints"),
    ("oracle", "brute_force_roots"), ("oracle", "synthesize_model"),
    ("modelbuild", "build_model"), ("linalg", "matmul"), ("exact", "signature_of"),
    ("oracle", "compare_reports"), ("scenario", "from_json"),
    ("report", "run_scenario"), ("report", "render_json"), ("sweep", "run_sweep"),
]
LAYER_NAMES = [f"{m}.{f}" for m, f in LAYERS]


class LayerStats:
    """Calls and self seconds per layer; self time excludes wrapped callees."""

    def __init__(self):
        self.calls: Dict[str, int] = {n: 0 for n in LAYER_NAMES}
        self.self_s: Dict[str, float] = {n: 0.0 for n in LAYER_NAMES}
        # child seconds accumulated by each open span; the bottom entry
        # collects top-level spans
        self._stack: List[float] = [0.0]

    def wrap(self, name: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                calls[name] += 1
                self_s[name] += dt - child
                stack[-1] += dt
        return wrapper

    def reset(self):
        for n in LAYER_NAMES:
            self.calls[n] = 0
            self.self_s[n] = 0.0


def _program_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "liebalance" or name.startswith("liebalance."))]


@contextmanager
def traced(stats: LayerStats):
    """Install wrappers on every binding of every layer function."""
    replaced: List[Tuple[object, str, object]] = []
    modules = _program_modules()
    try:
        for mod_name, fn_name in LAYERS:
            original = getattr(sys.modules[f"liebalance.{mod_name}"], fn_name)
            wrapper = stats.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        replaced.append((mod, attr, original))
        yield replaced
    finally:
        for mod, attr, original in reversed(replaced):
            setattr(mod, attr, original)
