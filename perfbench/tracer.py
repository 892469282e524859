"""Span tracer that wraps velakit's public functions from outside the package.

`Tracer.install()` replaces each traced function wherever a velakit module
holds it (``johansen.concentrate`` as well as ``vecm.concentrate`` and
``spec_search.concentrate``), so internal calls are counted too;
`uninstall()` puts the originals back. Each call is a span with a parent;
a layer's self time is its span's duration minus its child spans'.
Standard library only, so the traced CLI child can import it before velakit.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

TRACED = {
    "johansen": ("concentrate", "solve_cointegration_eigenproblem", "rank_test"),
    "linalg": ("ols_fit", "cholesky_factor", "symmetric_eigendecomposition",
               "general_eigenvalues", "pd_inverse"),
    "vecm": ("estimate_vecm", "normalize_cointegrating_equation"),
    "spec_search": ("fit_specifications", "build_correlation_table"),
    "synthetic": ("generate_vecm_data", "rng_for", "monte_carlo_critical_values",
                  "run_recovery_study", "subspace_angle_deg"),
    "manifest": ("jsonable", "dump_json"),
    "report": ("render_adf_table", "render_lag_table", "render_model_table",
               "render_correlation_table", "render_rank_table", "render_mission_plan"),
    "panel": ("load_panel", "interpolate_missing", "to_log_levels"),
    "unit_root": ("adf_test",),
    "lag_selection": ("select_lag", "fit_var"),
}

# spans kept verbatim for the first traced operation, for the sidecar
MAX_KEPT_SPANS = 20000


def _layer(module: str, name: str) -> str:
    # the render_* functions are reported together as one layer
    return "report.render" if module == "report" else f"{module}.{name}"


class Tracer:
    def __init__(self):
        self.totals: dict[str, list] = {}  # layer -> [calls, self seconds]
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] | None = None  # (id, parent, layer, start, end)
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patched: list[tuple] = []

    def _hook(self, layer: str, result) -> None:
        if layer == "manifest.dump_json":
            self._count("manifest.dump_json.bytes", len(result.encode("utf-8")))
        elif layer == "spec_search.fit_specifications":
            self._count("spec_search.fitted", len(result.specs))
            self._count("spec_search.attempted", len(result.specs) + len(result.rejected))

    def _count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, layer: str, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                entry = self.totals.setdefault(layer, [0, 0.0])
                entry[0] += 1
                entry[1] += duration - frame[1]
                if self.spans is not None and len(self.spans) < MAX_KEPT_SPANS:
                    self.spans.append((frame[0], parent, layer, start, end))
            self._hook(layer, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function in every loaded velakit module."""
        homes = {name: importlib.import_module(f"velakit.{name}") for name in TRACED}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "velakit" or name.startswith("velakit."))]
        for module_name, names in TRACED.items():
            home = homes[module_name]
            for name in names:
                original = getattr(home, name)
                wrapped = self.wrap(_layer(module_name, name), original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        """Per-layer calls and self time accumulated since the last reset."""
        return {
            "layers": {k: [v[0], v[1]] for k, v in self.totals.items()},
            "counters": dict(self.counters),
        }

    def reset(self) -> None:
        self.totals.clear()
        self.counters.clear()
