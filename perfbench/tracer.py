"""Spans around the package's public functions, installed from outside.

The tracer replaces each listed function with a wrapper in the module that
defines it and in every ``torsionfree`` module that imported the name, and
replaces listed methods on their classes.  A wrapper records one span (layer
index, start, end, parent span) in flat arrays kept in memory; a layer's self
time is its span minus the time its child spans cover.

Modes: ``OFF`` records nothing, ``ALL`` records every layer, and ``ORACLE``
records only the oracle layer, so that reference checks made by the
benchmark show up as oracle work without polluting the other layers.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

OFF, ALL, ORACLE = 0, 1, 2
PACKAGE = "torsionfree"

# (module, attribute path) of every traced layer boundary; the metric prefix
# is "<module>.<attribute path>".  rank1 is reported as one aggregate layer.
TARGETS = (
    ("linalg", "rref"),
    ("linalg", "solve_in_rows"),
    ("linalg", "RationalLattice.coordinates"),
    ("linalg", "RationalLattice.from_generators"),
    ("linalg", "Subspace.span"),
    ("linalg", "Subspace.reduce"),
    ("linalg", "hermite_normal_form"),
    ("linalg", "smith_normal_form"),
    ("numutil", "factorize"),
    ("numutil", "is_prime"),
    ("rank1", "prime_set"),
    ("rank1", "div_type"),
    ("rank1", "type_leq"),
    ("rank1", "type_eq"),
    ("rank1", "type_meet"),
    ("rank1", "type_join"),
    ("rank1", "scale_type"),
    ("rank1", "format_type"),
    ("rank1", "parse_type"),
    ("rank1", "PrimeSet.__post_init__"),
    ("rank1", "PrimeSet.is_subset"),
    ("rank1", "PrimeSet.union"),
    ("rank1", "PrimeSet.intersect"),
    ("rank1", "DivisibilityType.__post_init__"),
    ("rank1", "DivisibilityType.contains"),
    ("groups", "group_rep"),
    ("groups", "member"),
    ("groups", "subgroup_leq"),
    ("groups", "purify"),
    ("groups", "element_type"),
    ("groups", "index_and_quotient"),
    ("bases", "is_basis"),
    ("bases", "basis_record"),
    ("bases", "b_representation"),
    ("decomp", "check_splitting_partition"),
    ("decomp", "candidate_vectors"),
    ("decomp", "complete_decomposition_search"),
    ("decomp", "automorphism_check"),
    ("indec", "typeset_obstruction_certificate"),
    ("indec", "strong_decomposability_witness_search"),
    ("quasi", "quasi_split_check"),
    ("quasi", "quasi_equal_strict"),
    ("quasi", "commensurable"),
    ("jonsson", "regulating_search"),
    ("jonsson", "jonsson_basis_from_summands"),
    ("fileformat", "parse_group_file"),
    ("fileformat", "format_group"),
    ("cli", "main"),
    ("corpus", "generate"),
    ("oracle", "brute_force_member"),
)

AGGREGATED = ("rank1",)


def layer_name(module: str, path: str) -> str:
    return module if module in AGGREGATED else f"{module}.{path}"


def layer_names() -> list[str]:
    out: list[str] = []
    for module, path in TARGETS:
        name = layer_name(module, path)
        if name not in out:
            out.append(name)
    return out


class Tracer:
    """Span recorder; see the module docstring."""

    def __init__(self):
        self.mode = OFF
        self.names = layer_names()
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        # name -> callable(args, result, parent_layer) run after a traced call
        self.hooks: dict[str, object] = {}

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for module, path in TARGETS:
            mod = sys.modules[f"{PACKAGE}.{module}"]
            name = layer_name(module, path)
            idx = self.names.index(name)
            full = f"{module}.{path}"
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    setattr(cls, meth, staticmethod(self._wrap(raw.__func__, idx, full)))
                else:
                    setattr(cls, meth, self._wrap(raw, idx, full))
                continue
            orig = getattr(mod, path)
            wrapper = self._wrap(orig, idx, full)
            for other in list(sys.modules.values()):
                if other is None or not getattr(other, "__name__", "").startswith(PACKAGE):
                    continue
                for attr, value in list(vars(other).items()):
                    if value is orig:
                        setattr(other, attr, wrapper)

    def _wrap(self, fn, idx: int, full: str):
        tracer = self
        layer, parent, start, end, stack = (
            self.layer, self.parent, self.start, self.end, self.stack,
        )
        clock = time.perf_counter
        is_oracle = full.startswith("oracle.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mode = tracer.mode
            if mode == OFF or (mode == ORACLE and not is_oracle):
                return fn(*args, **kwargs)
            i = len(layer)
            layer.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            hook = tracer.hooks.get(full)
            if hook is not None:
                p = parent[i]
                hook(args, result, tracer.names[layer[p]] if p >= 0 else None)
            return result

        return wrapper

    # -- spans ----------------------------------------------------------------

    def clear(self) -> None:
        for a in (self.layer, self.parent, self.start, self.end):
            del a[:]
        self.stack[:] = [-1]

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per layer: (calls, self seconds) over the recorded spans."""
        n = len(self.layer)
        child = [0.0] * n
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        for i in range(n - 1, -1, -1):
            d = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                child[p] += d
            calls[layer[i]] += 1
            self_s[layer[i]] += d - child[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}

    def write(self, path, limit: int = 100_000) -> int:
        """Write up to ``limit`` spans as gzipped JSON; returns the count written."""
        n = min(limit, len(self.layer))
        t0 = self.start[0] if n else 0.0
        doc = {
            "layers": self.names,
            "fields": ["layer", "parent", "start_s", "end_s"],
            "spans": [
                [self.layer[i], self.parent[i], self.start[i] - t0, self.end[i] - t0]
                for i in range(n)
            ],
            "total_spans": len(self.layer),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return n
