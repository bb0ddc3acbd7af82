"""The layer map covers every profiled callback of every suite workload.

Runs each workload's distinct (kernel, variant) points at tiny scale on
the path the suite traces — the single engine, or two process-parallel
shards — and requires every profiled callback to have a layer and the
per-layer events to add up to the events the run processed.
"""

from dataclasses import replace

import pytest

from repro.bench.suite.layers import (
    LAYER_OF_CLASS,
    SIM_LAYERS,
    LayerTally,
    UnmappedCallbackError,
    layer_of,
    profile_rows,
)
from repro.bench.suite.simrun import execute_traced
from repro.bench.suite.spans import SpanRecorder
from repro.bench.suite.workloads import WORKLOADS
from repro.workloads.base import Scale


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_callback_has_a_layer_and_events_add_up(name):
    wl = replace(WORKLOADS[name], scale=Scale.tiny(), seed_offsets=(0,))
    spans = SpanRecorder()
    for point in wl.points(0):
        result, _, profile, _ = execute_traced(
            wl.experiment_point(point), point.label, spans, wl.n_shards
        )
        tally = LayerTally()
        tally.add(profile_rows(profile))  # raises on an unmapped class
        assert tally.total_events == result.events_processed, point.label
        assert tally.events["network"] > 0 and tally.events["gpu"] > 0


def test_unknown_owner_fails_loudly():
    with pytest.raises(UnmappedCallbackError, match="NewComponent"):
        layer_of("NewComponent._tick")


def test_every_mapped_class_names_a_known_layer():
    assert set(LAYER_OF_CLASS.values()) <= set(SIM_LAYERS)
    assert layer_of("NetCrafterController._pump_event") == "core"
    assert layer_of("PacketLink._drain") == "network"
