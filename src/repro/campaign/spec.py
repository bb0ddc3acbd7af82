"""Experiment campaigns as data.

A campaign is a declarative description of a set of simulation points —
workloads x NetCrafter variants x scales x system configs x topologies x
fault options — written as a JSON (or YAML, when PyYAML is installed)
file and expanded here into ordered
:class:`~repro.experiments.runner.ExperimentPoint`\\ s.  Expansion order
is deterministic and workload-major, matching the smoke grid's
convention, so a campaign reproducing the committed quick sweep digests
byte-identically against ``SMOKE_digest.json``.

Schema (all keys optional except that at least one point must result)::

    {
      "name": "nightly-mesh",        # metadata, defaults to the file stem
      "priority": 10,                # higher runs first (default 0)
      "grid": {                      # cross product, expanded in order:
        "workloads": ["gups", "mt"], #   workload-major,
        "variants": ["baseline", "full"],  # then variant,
        "topologies": ["mesh"],      #   then topology,
        "seeds": [0],                #   then seed
        "scale": "small",            # "tiny"|"small"|"default" or {...fields}
        "system": {...},             # SystemConfig field overrides
        "faults": {...}              # FaultConfig fields; each of "flaps"
                                     #   a [start, end, factor] list
      },
      "points": [                    # and/or explicit points, same keys
        {"workload": "gups", "variant": "full", "seed": 1}
      ]
    }

A ``variant`` is ``"baseline"``/``"full"`` or a dict of
:class:`~repro.core.config.NetCrafterConfig` field overrides (with an
optional ``"base"`` naming the preset to start from).

The campaign *id* is content-addressed — a hash over the ordered point
fingerprints — so resubmitting the same point set (under any name or
priority) addresses the same campaign, which is what makes restart
re-serving and cross-client dedupe natural.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.experiments.cache import descriptor_fingerprint, point_descriptors
from repro.experiments.runner import ExperimentPoint
from repro.faults.config import FaultConfig, FlapWindow
from repro.workloads.base import Scale
from repro.workloads.registry import WORKLOADS

#: campaign priorities are clamped to this inclusive range
MIN_PRIORITY, MAX_PRIORITY = 0, 100


class CampaignSpecError(ValueError):
    """A campaign file that cannot be expanded into valid points."""


_SCALES = {
    "tiny": Scale.tiny,
    "small": Scale.small,
    "default": Scale.default,
}

_VARIANTS = {
    "baseline": NetCrafterConfig.baseline,
    "full": NetCrafterConfig.full,
}


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise CampaignSpecError(f"{where} must be an object, got {type(value).__name__}")
    return value


def _build_scale(value, where: str) -> Scale:
    if value is None:
        return Scale.small()
    if isinstance(value, str):
        factory = _SCALES.get(value)
        if factory is None:
            raise CampaignSpecError(
                f"{where}: unknown scale {value!r} (one of: {', '.join(sorted(_SCALES))})"
            )
        return factory()
    fields = {f.name for f in dataclasses.fields(Scale)}
    mapping = _require_mapping(value, where)
    unknown = set(mapping) - fields
    if unknown:
        raise CampaignSpecError(f"{where}: unknown scale fields {sorted(unknown)}")
    try:
        return Scale(**mapping)
    except TypeError as exc:
        raise CampaignSpecError(f"{where}: {exc}") from exc


def _build_netcrafter(value, where: str) -> NetCrafterConfig:
    if value is None:
        return NetCrafterConfig.baseline()
    if isinstance(value, str):
        factory = _VARIANTS.get(value)
        if factory is None:
            raise CampaignSpecError(
                f"{where}: unknown variant {value!r} "
                f"(one of: {', '.join(sorted(_VARIANTS))}, or a field object)"
            )
        return factory()
    mapping = dict(_require_mapping(value, where))
    base_name = mapping.pop("base", "baseline")
    base_factory = _VARIANTS.get(base_name)
    if base_factory is None:
        raise CampaignSpecError(f"{where}: unknown variant base {base_name!r}")
    fields = {f.name for f in dataclasses.fields(NetCrafterConfig)}
    unknown = set(mapping) - fields
    if unknown:
        raise CampaignSpecError(f"{where}: unknown netcrafter fields {sorted(unknown)}")
    try:
        return dataclasses.replace(base_factory(), **mapping)
    except (TypeError, ValueError) as exc:
        raise CampaignSpecError(f"{where}: {exc}") from exc


def _fault_config(data: Dict[str, object]) -> FaultConfig:
    """A :class:`FaultConfig` from JSON data, where each flap window is a
    ``[start, end, factor]`` list or a ``{start, end, factor}`` object."""
    data = dict(data)
    data["flaps"] = tuple(
        FlapWindow(**window) if isinstance(window, dict) else FlapWindow(*window)
        for window in data.get("flaps", ())
    )
    return FaultConfig(**data)


def _build_system(
    overrides: Optional[dict],
    faults: Optional[dict],
    topology: Optional[str],
    where: str,
) -> Optional[SystemConfig]:
    """None when everything is default (keeps points minimal/normalizable)."""
    if not overrides and not faults and topology is None:
        return None
    merged: Dict[str, object] = dict(overrides or {})
    if topology is not None:
        if "inter_topology" in merged and merged["inter_topology"] != topology:
            raise CampaignSpecError(
                f"{where}: topology {topology!r} conflicts with "
                f"system.inter_topology={merged['inter_topology']!r}"
            )
        merged["inter_topology"] = topology
    if faults:
        fault_fields = {f.name for f in dataclasses.fields(FaultConfig)}
        unknown = set(_require_mapping(faults, f"{where}.faults")) - fault_fields
        if unknown:
            raise CampaignSpecError(f"{where}: unknown fault fields {sorted(unknown)}")
        try:
            merged["faults"] = _fault_config(faults)
        except (TypeError, ValueError) as exc:
            raise CampaignSpecError(f"{where}: bad faults block: {exc}") from exc
    # torus_dims and link_bw_overrides arrive as JSON lists; SystemConfig
    # wants tuples for hashability
    if isinstance(merged.get("torus_dims"), list):
        merged["torus_dims"] = tuple(merged["torus_dims"])
    if isinstance(merged.get("link_bw_overrides"), (list, dict)):
        pairs = (
            merged["link_bw_overrides"].items()
            if isinstance(merged["link_bw_overrides"], dict)
            else merged["link_bw_overrides"]
        )
        merged["link_bw_overrides"] = tuple(
            (str(name), float(bw)) for name, bw in pairs
        )
    try:
        return SystemConfig.default().with_overrides(**merged)
    except (TypeError, ValueError) as exc:
        raise CampaignSpecError(f"{where}: bad system config: {exc}") from exc


def _check_workload(name, where: str) -> str:
    if not isinstance(name, str) or name not in WORKLOADS:
        raise CampaignSpecError(
            f"{where}: unknown workload {name!r} (one of: {', '.join(WORKLOADS)})"
        )
    return name


@dataclass(frozen=True)
class CampaignSpec:
    """A parsed campaign: ordered points plus scheduling metadata."""

    name: str
    priority: int
    points: Tuple[ExperimentPoint, ...]
    #: fingerprint per point, aligned with ``points``
    fingerprints: Tuple[str, ...]
    #: :func:`~repro.experiments.cache.point_descriptor` per point, aligned
    #: with ``points`` (computed once, with the fingerprint, for the journal;
    #: points with equal configs share their dicts, so treat as read-only)
    descriptors: Tuple[Dict[str, object], ...] = field(compare=False)

    @property
    def campaign_id(self) -> str:
        return campaign_id(self.fingerprints)

    def labels(self) -> List[str]:
        return [p.label() for p in self.points]


def campaign_id(fingerprints: Sequence[str]) -> str:
    """Content address of an ordered point set (order matters: fetch
    serves results in submission order and digests over that order)."""
    blob = "\n".join(fingerprints).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _expand_grid(grid: dict, where: str) -> List[ExperimentPoint]:
    allowed = {
        "workloads",
        "variants",
        "topologies",
        "seeds",
        "scale",
        "system",
        "faults",
    }
    unknown = set(grid) - allowed
    if unknown:
        raise CampaignSpecError(f"{where}: unknown grid keys {sorted(unknown)}")
    workloads = grid.get("workloads")
    if not workloads:
        raise CampaignSpecError(f"{where}: grid.workloads must be a non-empty list")
    variants = grid.get("variants") or ["baseline"]
    topologies = grid.get("topologies") or [None]
    seeds = grid.get("seeds") or [0]
    scale = _build_scale(grid.get("scale"), f"{where}.scale")
    points = []
    for workload in workloads:
        _check_workload(workload, f"{where}.workloads")
        for variant in variants:
            netcrafter = _build_netcrafter(variant, f"{where}.variants")
            for topology in topologies:
                system = _build_system(
                    grid.get("system"), grid.get("faults"), topology, where
                )
                for seed in seeds:
                    points.append(
                        ExperimentPoint(
                            workload=workload,
                            system=system,
                            netcrafter=netcrafter,
                            scale=scale,
                            seed=int(seed),
                        ).normalized()
                    )
    return points


def expand_point(entry: dict, where: str = "point") -> ExperimentPoint:
    """The normalized point one ``points`` entry declares."""
    allowed = {"workload", "variant", "scale", "seed", "system", "faults", "topology"}
    unknown = set(entry) - allowed
    if unknown:
        raise CampaignSpecError(f"{where}: unknown point keys {sorted(unknown)}")
    if "workload" not in entry:
        raise CampaignSpecError(f"{where}: point needs a workload")
    return ExperimentPoint(
        workload=_check_workload(entry["workload"], where),
        system=_build_system(
            entry.get("system"), entry.get("faults"), entry.get("topology"), where
        ),
        netcrafter=_build_netcrafter(entry.get("variant"), f"{where}.variant"),
        scale=_build_scale(entry.get("scale"), f"{where}.scale"),
        seed=int(entry.get("seed", 0)),
    ).normalized()


def parse_campaign(data: dict, default_name: str = "campaign") -> CampaignSpec:
    """Expand a campaign mapping into an ordered, validated spec."""
    data = _require_mapping(data, "campaign")
    allowed = {"name", "priority", "grid", "points"}
    unknown = set(data) - allowed
    if unknown:
        raise CampaignSpecError(f"campaign: unknown keys {sorted(unknown)}")
    name = data.get("name", default_name)
    if not isinstance(name, str) or not name:
        raise CampaignSpecError("campaign.name must be a non-empty string")
    priority = data.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise CampaignSpecError("campaign.priority must be an integer")
    if not MIN_PRIORITY <= priority <= MAX_PRIORITY:
        raise CampaignSpecError(
            f"campaign.priority must be in [{MIN_PRIORITY}, {MAX_PRIORITY}]"
        )

    points: List[ExperimentPoint] = []
    if "grid" in data:
        points.extend(_expand_grid(_require_mapping(data["grid"], "grid"), "grid"))
    for index, entry in enumerate(data.get("points", ())):
        points.append(expand_point(_require_mapping(entry, f"points[{index}]"), f"points[{index}]"))
    if not points:
        raise CampaignSpecError("campaign expands to zero points")

    # duplicate points inside one campaign collapse to the first
    # occurrence: fetch order stays deterministic and the dedupe
    # guarantee starts at home
    seen: Dict[str, Dict[str, object]] = {}
    unique: List[ExperimentPoint] = []
    for point, descriptor in zip(points, point_descriptors(points)):
        fp = descriptor_fingerprint(descriptor)
        if fp in seen:
            continue
        seen[fp] = descriptor
        unique.append(point)
    return CampaignSpec(
        name=name,
        priority=priority,
        points=tuple(unique),
        fingerprints=tuple(seen),
        descriptors=tuple(seen.values()),
    )


def point_from_descriptor(descriptor: Dict[str, object]) -> ExperimentPoint:
    """Rebuild a normalized point from its journaled cache descriptor.

    The journal stores :func:`repro.experiments.cache.point_descriptor`
    content (JSON-safe: enums flattened to values, tuples to lists) so a
    restarted server can *re-execute* points whose cached results were
    pruned, not just re-serve surviving ones.  The round trip is exact:
    the rebuilt point fingerprints identically to the original.
    """
    system_data = dict(descriptor["system"])
    system_data["faults"] = _fault_config(system_data["faults"])
    return ExperimentPoint(
        workload=descriptor["workload"],
        system=SystemConfig(**system_data),
        netcrafter=NetCrafterConfig(**descriptor["netcrafter"]),
        scale=Scale(**descriptor["scale"]),
        seed=int(descriptor["seed"]),
    ).normalized()


def load_campaign(path: Union[str, Path]) -> CampaignSpec:
    """Parse a campaign file (JSON always; YAML when PyYAML is present)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CampaignSpecError(f"cannot read campaign file {path}: {exc}") from exc
    if path.suffix.lower() in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError as exc:  # pragma: no cover - env-dependent
            raise CampaignSpecError(
                f"{path}: YAML campaigns need PyYAML installed; "
                "re-encode as JSON or install pyyaml"
            ) from exc
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise CampaignSpecError(f"{path}: bad YAML: {exc}") from exc
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CampaignSpecError(f"{path}: bad JSON: {exc}") from exc
    return parse_campaign(data, default_name=path.stem)
