"""Span tracing of degreebox's public functions, installed from outside.

``Tracer.install`` replaces each traced function wherever the package
holds a reference to it: the attribute of its own module, the same name
imported into other modules, and the ``CHECKERS`` / ``ALL_CRITERIA``
registries.  ``uninstall`` puts the originals back, so the timed run
always runs unwrapped code.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from time import perf_counter

# Layer -> public functions whose self time the traced run reports.  A name
# the package no longer has is skipped and reports zero.
TRACED = {
    "cli": ("main",),
    "sequences": ("normalize_good_order", "parity_corrections"),
    "criteria": ("check_cdz", "check_cdz_reduced", "check_berge_necessary",
                 "check_berge_sufficient", "check_fulkerson", "check_bollobas",
                 "check_grunbaum", "check_hasselbarth"),
    "realize": ("check_ryser_interval", "graphic_vector_in_box", "realize_pair",
                "verify_witness"),
    "oracle": ("oracle_decide", "sample_instances", "cross_validate"),
}
REGISTRIES = (("criteria", "CHECKERS"), ("oracle", "ALL_CRITERIA"))


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


class Tracer:
    """Records one span per call of a wrapped function: name, start, end, parent."""

    def __init__(self):
        self.names = span_names()
        self.spans: list[tuple[int, float, float, int]] = []
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.calls = dict.fromkeys(self.names, 0)
        self._open: list[list] = []  # [span index, covered-by-children seconds]
        self._patches: list[tuple[object, object, object]] = []

    def wrap(self, name: str, fn):
        name_id = self.names.index(name)
        spans, open_, self_s, calls = self.spans, self._open, self.self_s, self.calls

        def traced(*args, **kwargs):
            parent = open_[-1][0] if open_ else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            open_.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                spans[frame[0]] = (name_id, start, end, parent)
                self_s[name] += (end - start) - frame[1]
                calls[name] += 1
                if open_:
                    open_[-1][1] += end - start

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "degreebox" or key.startswith("degreebox.")]
        for layer, fns in TRACED.items():
            home = importlib.import_module(f"degreebox.{layer}")
            for fn_name in fns:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                wrapped = self.wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, attr, wrapped)
                for layer_name, registry_name in REGISTRIES:
                    registry = getattr(importlib.import_module(f"degreebox.{layer_name}"),
                                       registry_name, {})
                    for key, value in list(registry.items()):
                        if value is original:
                            self._set(registry, key, wrapped)

    def _set(self, holder, key, value) -> None:
        if isinstance(holder, dict):
            self._patches.append((holder, key, holder[key]))
            holder[key] = value
        else:
            self._patches.append((holder, key, getattr(holder, key)))
            setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches.clear()

    def write(self, path, t0: float) -> None:
        """Write the spans as gzipped JSON lines: a header, then one
        [name index, start, end, parent index] per span, seconds from t0."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start_s", "end_s", "parent"]}) + "\n")
            for k, start, end, parent in self.spans:
                fh.write(f"[{k},{start - t0:.7f},{end - t0:.7f},{parent}]\n")
