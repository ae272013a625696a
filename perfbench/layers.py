"""Per-layer tracing from outside the library.

The tracer replaces each named public function by a wrapper in every
``hopmetric`` module that holds it, so names imported by name (for example
``ramsey.hop_profile`` and ``clan.hop_profile``) are traced where they are
used.  Each wrapper counts calls and calls per direct caller, and
accumulates self time: span time minus the time of child spans.
Spans are aggregated in memory, not kept one by one.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import List, Tuple

# (module, attribute); "Class.method" names a method.
TRACED = (
    ("graph_core", "hop_profile"), ("graph_core", "hop_distance_all"),
    ("ramsey", "create_cluster"), ("ramsey", "create_cluster_alt"),
    ("ramsey", "padded_partition"), ("ramsey", "ramsey_embed"),
    ("ramsey", "ramsey_distribution"),
    ("clan", "clan_create_cluster"), ("clan", "clan_create_cluster_alt"),
    ("clan", "clan_embed"), ("clan", "ClanEmbedding.chief_distance"),
    ("cover", "sparse_cover"),
    ("preserve", "build_path_tree_embedding"), ("preserve", "bounded_hop_path"),
    ("preserve", "induced_path"),
    ("ultrametric", "join_under_root"), ("ultrametric", "ultra_distance"),
    ("tz", "sssp"), ("tz", "build_core"), ("tz", "build_routing"),
    ("tz", "label_query"), ("tz", "forward"), ("tz", "route"),
    ("datastructures", "build_coarse_oracle"),
    ("datastructures", "build_coarse_labeling"),
    ("datastructures", "inner_metric_structure"),
    ("datastructures", "tree_label_query"),
    ("datastructures", "build_hop_oracle"), ("datastructures", "hop_oracle_query"),
    ("datastructures", "build_hop_labeling"), ("datastructures", "labeling_query"),
    ("datastructures", "build_routing_scheme"), ("datastructures", "route"),
)


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.nested: Counter = Counter()       # (direct caller, callee) -> calls
        self._stack: List[list] = []           # [name, child span ns]
        self._patches: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_ns.clear()
        self.nested.clear()

    def _wrap(self, name: str, fn):
        stack, calls, self_ns, nested = self._stack, self.calls, self.self_ns, self.nested
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if stack:
                nested[(stack[-1][0], name)] += 1
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_ns[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a hopmetric module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "hopmetric" or name.startswith("hopmetric.")}
        for modname, attr in TRACED:
            mod = mods["hopmetric." + modname]
            name = f"{modname}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(name, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, orig, wrapper)

    def _patch(self, owner, key: str, orig, new) -> None:
        setattr(owner, key, new)
        self._patches.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def self_s(self, name: str) -> float:
        return self.self_ns[name] / 1e9


def alt_fallbacks(nested: Counter) -> int:
    """Standard-rule carvings run as the alt rule's fallback."""
    return nested[("ramsey.create_cluster_alt", "ramsey.create_cluster")]


def carvings(calls: Counter, nested: Counter) -> int:
    """Cluster carvings by the Ramsey and clan rules; a fallback to the
    standard rule inside an alt carving is not a carving of its own."""
    return (calls["ramsey.create_cluster"] + calls["ramsey.create_cluster_alt"]
            - alt_fallbacks(nested)
            + calls["clan.clan_create_cluster"] + calls["clan.clan_create_cluster_alt"]
            - nested[("clan.clan_create_cluster_alt", "clan.clan_create_cluster")])
