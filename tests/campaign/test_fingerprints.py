"""Campaign fingerprints, differentially: the identity a point memoizes
at ``parse_campaign`` against the reference encoding.

The reference is the fingerprint's definition: the sha256 of
``json.dumps(point_descriptor(point), sort_keys=True, default=...)``
over a freshly converted descriptor.  ``spec.fingerprints`` is composed
from per-config encodings shared between points, so random grids and
point lists — overrides of every config block, duplicate points, and
the ``1``/``1.0``/``True`` look-alikes that compare equal but encode
differently — must still give exactly the reference, and a point
rebuilt from its journaled descriptor must fingerprint the same.
"""

import hashlib
import json

from hypothesis import given, settings, strategies as st

from repro.campaign.spec import (
    _expand_grid,
    expand_point,
    parse_campaign,
    point_from_descriptor,
)
from repro.experiments.cache import _json_default, fingerprint, point_descriptor


def _reference_json(point):
    return json.dumps(point_descriptor(point), sort_keys=True, default=_json_default)


def _reference_fingerprint(point):
    return hashlib.sha256(_reference_json(point).encode("utf-8")).hexdigest()


def _alike(value):
    """``value`` or a look-alike that compares equal to it."""
    choices = [value, float(value)]
    if value in (0, 1):
        choices.append(bool(value))
    return st.sampled_from(choices)


_variants = st.one_of(
    st.sampled_from(["baseline", "full"]),
    st.fixed_dictionaries(
        {"base": st.sampled_from(["baseline", "full"])},
        optional={
            "stitch_search_depth": _alike(3),
            "pooling_window": _alike(64),
            "enable_trimming": _alike(1),
            "selective_pooling": _alike(0),
            "data_priority_fraction": st.sampled_from([0.13, 0.25]),
            "priority_mode": st.sampled_from(["none", "ptw", "data_matched"]),
        },
    ),
)

_scales = st.one_of(
    st.sampled_from(["tiny", "small", "default"]),
    st.fixed_dictionaries(
        {"ctas_per_gpu": _alike(2)},
        optional={
            "wavefronts_per_cta": _alike(1),
            "accesses_per_wavefront": _alike(6),
            "pages_per_gpu": _alike(8),
        },
    ),
)

_systems = st.fixed_dictionaries(
    {},
    optional={
        "inter_link_latency": _alike(64),
        "link_latency": _alike(8),
        "inter_cluster_bw": _alike(16),
        "l1_fetch_mode": st.sampled_from(["line", "sector"]),
        "link_bw_overrides": st.sampled_from([{"inter": 8.0}, [["inter", 8]], {}]),
    },
)

_flap = st.one_of(
    st.just([100, 500, 0.5]),
    st.just({"start": 100, "end": 500, "factor": 1}),
    st.just([100, 500, 1.0]),
)

_faults = st.fixed_dictionaries(
    {},
    optional={
        "ber": st.sampled_from([0.0, 0, 1e-5]),
        "drop_rate": st.sampled_from([0.0, 1e-4]),
        "seed": _alike(1),
        "enabled": st.sampled_from([None, True, False, 1]),
        "flaps": st.lists(_flap, max_size=1),
    },
)

_workloads = st.sampled_from(["gups", "mt", "bs", "pr"])

_grids = st.fixed_dictionaries(
    {"workloads": st.lists(_workloads, min_size=1, max_size=3)},
    optional={
        "variants": st.lists(_variants, min_size=1, max_size=3),
        "topologies": st.lists(st.sampled_from(["mesh", "ring"]), min_size=1, max_size=2),
        "seeds": st.lists(_alike(1), min_size=1, max_size=3),
        "scale": _scales,
        "system": _systems,
        "faults": _faults,
    },
)

_points = st.fixed_dictionaries(
    {"workload": _workloads},
    optional={
        "variant": _variants,
        "scale": _scales,
        "seed": st.sampled_from([0, 1, 2]),
        "system": _systems,
        "faults": _faults,
        "topology": st.sampled_from(["mesh", "ring"]),
    },
)


@st.composite
def _campaigns(draw):
    doc = {}
    if draw(st.booleans()):
        doc["grid"] = draw(_grids)
    points = draw(st.lists(_points, min_size=0 if doc else 1, max_size=4))
    # repeat some entries: duplicates collapse to their first occurrence
    points += draw(st.lists(st.sampled_from(points), max_size=2)) if points else []
    if points:
        doc["points"] = points
    return doc


def _declared_points(doc):
    """Every point ``doc`` declares, duplicates included, built afresh."""
    points = list(_expand_grid(doc["grid"], "grid")) if "grid" in doc else []
    points += [expand_point(entry) for entry in doc.get("points", ())]
    return points


@settings(deadline=None)
@given(_campaigns())
def test_spec_identity_is_the_reference_encoding(doc):
    spec = parse_campaign(doc)
    expected = [_reference_fingerprint(point) for point in spec.points]
    assert list(spec.fingerprints) == expected
    assert len(set(expected)) == len(expected)
    assert [fingerprint(point) for point in spec.points] == expected
    assert list(spec.descriptors) == [point_descriptor(p) for p in spec.points]
    assert [
        json.dumps(d, sort_keys=True, default=_json_default) for d in spec.descriptors
    ] == [_reference_json(point) for point in spec.points]

    # the duplicate collapse keeps each distinct point once, first
    # occurrence first, by the reference fingerprint
    declared = [_reference_fingerprint(p) for p in _declared_points(doc)]
    assert expected == list(dict.fromkeys(declared))

    # the journal stores descriptors as JSON; a point rebuilt from one
    # fingerprints the same
    for descriptor, fp in zip(spec.descriptors, spec.fingerprints):
        journaled = json.loads(json.dumps(descriptor, sort_keys=True, default=_json_default))
        rebuilt = point_from_descriptor(journaled)
        assert fingerprint(rebuilt) == fp == _reference_fingerprint(rebuilt)
