"""Spans taken from outside the program.

The tracer replaces a layer's public entry points with wrappers, bound as
module attributes in every loaded ``taupoly`` module that refers to them
(``from .hereditary import tau_orbit_dim`` in ``formulas`` is a second
binding of the same function).  Each call records one span: name, start,
end and the index of the enclosing span.  Spans stay in memory and are
written out when the traced pass ends.

Entry points are wrapped where the program reaches them through a module
attribute.  ``cli._GENFUN_CHECKS`` and ``series.ALL_IDENTITIES`` hold
function references taken at import time, so the identity checks are
traced as one span at ``series.verify_all_identities`` rather than one
per check.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        """``fn`` recording one span per call; ``counter(counts, args, result)``
        adds work counts after the span closes."""
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            counts[f"{name}.calls"] += 1
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name, total duration minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "names": names,
                    "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
                },
                fh,
                separators=(",", ":"),
            )


def _count_sum(key: str):
    def counter(counts, args, result):
        counts[key] += sum(int(v) for v in result)

    return counter


def _count_matrices(counts, args, result):
    counts["orbits.batched_rank.matrices"] += int(args[0].shape[0])


def _count_paths(counts, args, result):
    counts["lattice.oracles.paths"] += int(result.count)


def _face_counter():
    # tau_rigid_complex is memoized: count the faces of each complex the
    # first time it is returned, which is when it was built.
    built: dict[int, object] = {}

    def counter(counts, args, result):
        if id(result) not in built:
            built[id(result)] = result
            counts["hereditary.tau_rigid_complex.faces"] += sum(result.face_counts)

    return counter


def default_layers():
    """(span name, module, wrapped attributes, counter) for each traced layer.

    ``orbits`` names the private module ``taupoly._orbits``, since metric
    names start with a letter.  Counters are fresh on every call.
    """
    return (
        ("orbits.descent_distribution", "taupoly._orbits", ("descent_distribution",),
         _count_sum("orbits.descent_distribution.points")),
        ("orbits.batched_rank", "taupoly._orbits", ("batched_rank",), _count_matrices),
        ("orbits.interval_length_distribution", "taupoly._orbits", ("interval_length_distribution",),
         _count_sum("orbits.interval_length_distribution.kept")),
        ("hereditary.tau_rigid_complex", "taupoly.hereditary", ("tau_rigid_complex",), _face_counter()),
        ("hereditary.ext_dim", "taupoly.hereditary", ("ext_dim",), None),
        ("hereditary.tau_orbit_dim", "taupoly.hereditary", ("tau_orbit_dim",), None),
        ("lattice.oracles", "taupoly.lattice",
         ("dim_orbit_ppa_A_oracle", "dim_orbit_ppa_D_oracle_pm1", "dim_orbit_ppa_D_oracle_mid"),
         _count_paths),
        ("weyl.oracles", "taupoly.weyl",
         ("eulerian_a_by_enumeration", "eulerian_d_by_enumeration", "narayana_oracle"), None),
        ("series.verify_all_identities", "taupoly.series", ("verify_all_identities",), None),
        ("formulas.d_polynomial", "taupoly.formulas", ("d_polynomial",), None),
        ("weyl.eulerian_poly", "taupoly.weyl", ("eulerian_poly",), None),
        ("weyl.narayana_poly", "taupoly.weyl", ("narayana_poly",), None),
        ("cli.main", "taupoly.cli", ("main",), None),
    )


def install(tracer: Tracer, layers) -> list[str]:
    """Wrap every entry point of ``layers``; return those not found.

    Call after the whole package is imported, so every binding is seen.
    """
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "taupoly"]
    missing = []
    for span_name, module_name, attrs, counter in layers:
        module = sys.modules.get(module_name)
        for attr in attrs:
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = tracer.wrap(span_name, original, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
    return missing
