"""Per-layer timing and work counts, taken from outside the library.

``Tracer.install`` replaces public functions in every loaded ``qkostant``
module with wrappers that time each call (inclusive and self time) and, while
``counting`` is on, derive work counts from the call's inputs and outputs.
Nothing inside the library is changed; the wrappers only see calls that go
through module attributes, which is every call between the layers named here.
"""

from __future__ import annotations

import sys
from math import prod
from time import perf_counter

# layer -> public functions whose calls make up that layer
LAYERS = {
    "rootsys.build": ("build_root_system",),
    "weyl.altset": ("alternation_set",),
    "weyl.words": ("canonical_word",),
    "weyl.apply": ("apply",),
    "weyl.enumerate": ("enumerate_group",),
    "partition.genfunc": ("partition_genfunc", "partition_genfunc_batch"),
    "partition.tree": ("partition_tree_count",),
    "multiplicity.mq": ("compute_mq",),
    "multiplicity.full_group": ("full_group_mq",),
}
COUNTS = {"weyl.altset_size": "count", "weyl.applies": "count",
          "partition.cells": "count", "partition.updates": "count",
          "qpoly.max_coeff_bits": "bits"}


def _box(xis):
    """Componentwise maximum of the partitionable weights, as the genfunc
    kernels size their table; None when no weight is partitionable."""
    live = [tuple(int(c) for c in xi) for xi in xis
            if all(c.denominator == 1 and c >= 0 for c in xi)]
    if not live:
        return None
    return tuple(max(col) for col in zip(*live))


def _coeff_bits(poly) -> int:
    return max((abs(c).bit_length() for c in poly.coeffs), default=0)


class Tracer:
    def __init__(self) -> None:
        self.total = dict.fromkeys(LAYERS, 0.0)
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.counting = False
        self._stack: list[float] = []

    def install(self) -> None:
        """Wrap the layer functions of the currently loaded library."""
        modules = [m for n, m in sys.modules.items()
                   if n == "qkostant" or n.startswith("qkostant.")]
        for layer, names in LAYERS.items():
            for name in names:
                fn = next(getattr(m, name) for m in modules
                          if getattr(getattr(m, name, None), "__module__", None)
                          == m.__name__)
                wrapped = self._wrap(layer, name, fn)
                for m in modules:
                    if getattr(m, name, None) is fn:
                        setattr(m, name, wrapped)

    def _wrap(self, layer, name, fn):
        stack = self._stack
        total, self_time, calls = self.total, self.self_time, self.calls
        count = getattr(self, "_count_" + name, None)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spent = perf_counter() - start
                child = stack.pop()
                total[layer] += spent
                self_time[layer] += spent - child
                calls[layer] += 1
                if stack:
                    stack[-1] += spent
            if self.counting and count is not None:
                count(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts derived from inputs and outputs ------------------------------

    def _bits(self, poly) -> None:
        c = self.counts
        c["qpoly.max_coeff_bits"] = max(c["qpoly.max_coeff_bits"], _coeff_bits(poly))

    def _genfunc(self, rs, box) -> None:
        if box is None:
            return
        self.counts["partition.cells"] += prod(b + 1 for b in box)
        self.counts["partition.updates"] += sum(
            prod(b - v + 1 for b, v in zip(box, root))
            for root in rs.root_vectors
            if all(v <= b for b, v in zip(box, root))
        )

    def _count_alternation_set(self, args, kwargs, out) -> None:
        self.counts["weyl.altset_size"] += len(out)

    def _count_apply(self, args, kwargs, out) -> None:
        self.counts["weyl.applies"] += 1

    def _count_partition_genfunc(self, args, kwargs, out) -> None:
        self._genfunc(args[0], _box([args[1]]))
        self._bits(out)

    def _count_partition_genfunc_batch(self, args, kwargs, out) -> None:
        self._genfunc(args[0], _box(args[1]))
        for poly in out:
            self._bits(poly)

    def _count_partition_tree_count(self, args, kwargs, out) -> None:
        self._bits(out)

    def _count_compute_mq(self, args, kwargs, out) -> None:
        self._bits(out.mq)

    def _count_full_group_mq(self, args, kwargs, out) -> None:
        self._bits(out)

    def metrics(self) -> dict[str, tuple[float, str]]:
        out = {f"{layer}_s": (self.total[layer], "s") for layer in LAYERS}
        out.update((name, (self.counts[name], unit)) for name, unit in COUNTS.items())
        return out

    def report(self) -> dict:
        return {
            "layers": {
                layer: {"calls": self.calls[layer], "total_s": self.total[layer],
                        "self_s": self.self_time[layer]}
                for layer in LAYERS
            },
            "counts_first_round": dict(self.counts),
        }
