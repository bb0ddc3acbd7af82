"""Static map from engine-callback owner class to simulator layer.

The engine profiler keys every dispatched event ``Class.method``; the
suite folds those keys into the layers its per-layer metrics name.  A
layer is the module family that owns the event's callback, so an inline
call from one layer into another (``ComputeUnit._after_l1_tlb`` looking
up the L1 TLB, ``ClusterSwitch._route`` handing a packet to the egress
controller) counts toward the layer that owns the dispatched event.

The table is deliberately static: a new component class whose callbacks
reach the engine fails the coverage test until it is placed here, so no
event can go unattributed.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

#: the simulator layers, in report order
SIM_LAYERS = ("network", "core", "gpu", "memory", "vm", "faults")

#: callback owner class -> layer
LAYER_OF_CLASS: Dict[str, str] = {
    # inter-/intra-cluster fabric
    "ClusterSwitch": "network",
    "PacketLink": "network",
    "FlitLink": "network",
    "BoundaryFlitLink": "network",
    # the NetCrafter egress controller (cluster queue, stitch, pool, trim)
    "NetCrafterController": "core",
    "PassthroughController": "core",
    # compute and node-level kernel sequencing
    "ComputeUnit": "gpu",
    "Gpu": "gpu",
    "MultiGpuSystem": "gpu",
    "ShardSystem": "gpu",
    # memory hierarchy and remote access
    "L2Cache": "memory",
    "Dram": "memory",
    "Mshr": "memory",
    "RdmaEngine": "memory",
    # address translation
    "Gmmu": "vm",
    "Tlb": "vm",
    "PageWalkCache": "vm",
    # fault injection
    "LinkFaultProcess": "faults",
    "CorruptedTransmission": "faults",
}


class UnmappedCallbackError(KeyError):
    """A profiled callback whose owner class has no layer."""


def layer_of(callback_key: str) -> str:
    """The layer owning a profiler key such as ``"PacketLink._drain"``."""
    owner = callback_key.split(".", 1)[0]
    layer = LAYER_OF_CLASS.get(owner)
    if layer is None:
        raise UnmappedCallbackError(
            f"profiled callback {callback_key!r} has no layer; add its class "
            "to repro.bench.suite.layers.LAYER_OF_CLASS"
        )
    return layer


class LayerTally:
    """Events and callback wall seconds accumulated per layer."""

    def __init__(self) -> None:
        self.events: Dict[str, int] = {layer: 0 for layer in SIM_LAYERS}
        self.seconds: Dict[str, float] = {layer: 0.0 for layer in SIM_LAYERS}

    def add(self, rows: Iterable[Tuple[str, int, float]]) -> None:
        """Fold ``(callback key, count, seconds)`` profile rows in."""
        for key, count, seconds in rows:
            layer = layer_of(key)
            self.events[layer] += int(count)
            self.seconds[layer] += float(seconds)

    @property
    def total_events(self) -> int:
        return sum(self.events.values())


def profile_rows(profile: Mapping[str, object]) -> Iterable[Tuple[str, int, float]]:
    """``(key, count, seconds)`` rows of a profiler ``to_dict`` document
    (single-engine :class:`~repro.obs.EngineProfiler` or the merged
    per-shard profile — both share the shape)."""
    for row in profile["by_callback"]:
        yield row["callback"], int(row["count"]), float(row["seconds"])
