"""Tests for campaign parsing, grid expansion, and content addressing."""

import json

import pytest

from repro.campaign.spec import (
    CampaignSpecError,
    campaign_id,
    load_campaign,
    parse_campaign,
    point_from_descriptor,
)
from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.experiments.cache import fingerprint, point_descriptor
from repro.experiments.runner import ExperimentPoint
from repro.workloads.base import Scale


def _quick_grid(**extra):
    data = {
        "name": "quick",
        "grid": {
            "workloads": ["gups", "mt"],
            "variants": ["baseline", "full"],
            "scale": "small",
            "seeds": [0],
        },
    }
    data.update(extra)
    return data


class TestGridExpansion:
    def test_workload_major_order_matches_smoke_grid(self):
        """A campaign reproducing the quick smoke sweep must expand in
        the smoke grid's order — that is what makes its fetch digest
        comparable against SMOKE_digest.json."""
        from repro.bench.smoke import smoke_points

        spec = parse_campaign(_quick_grid())
        got = [(p.workload, "full" if p.netcrafter.enable_stitching else "baseline") for p in spec.points]
        assert got == smoke_points(quick=True)

    def test_expansion_matches_explicit_points(self):
        spec = parse_campaign(_quick_grid())
        expected = [
            ExperimentPoint(
                workload=w,
                netcrafter=(
                    NetCrafterConfig.baseline() if v == "baseline" else NetCrafterConfig.full()
                ),
                scale=Scale.small(),
                seed=0,
            ).normalized()
            for w, v in (("gups", "baseline"), ("gups", "full"), ("mt", "baseline"), ("mt", "full"))
        ]
        assert [fingerprint(p) for p in spec.points] == [fingerprint(p) for p in expected]
        assert spec.fingerprints == tuple(fingerprint(p) for p in spec.points)

    def test_grid_defaults(self):
        spec = parse_campaign({"grid": {"workloads": ["gups"]}}, default_name="d")
        assert spec.name == "d"
        assert spec.priority == 0
        assert len(spec.points) == 1
        point = spec.points[0]
        assert point.seed == 0
        assert point.scale == Scale.small()
        assert point.netcrafter == NetCrafterConfig.baseline()

    def test_topology_and_system_block(self):
        spec = parse_campaign(
            {
                "grid": {
                    "workloads": ["gups"],
                    "topologies": ["ring", "star"],
                    "system": {"n_clusters": 4, "gpus_per_cluster": 1},
                }
            }
        )
        assert [p.system.inter_topology for p in spec.points] == ["ring", "star"]
        assert all(p.system.n_clusters == 4 for p in spec.points)

    def test_faults_block_builds_fault_config(self):
        spec = parse_campaign(
            {"points": [{"workload": "gups", "faults": {"ber": 2e-5, "seed": 3}}]}
        )
        faults = spec.points[0].system.faults
        assert faults.ber == 2e-5 and faults.seed == 3

    def test_variant_override_dict(self):
        spec = parse_campaign(
            {"points": [{"workload": "gups", "variant": {"base": "full", "pooling_window": 64}}]}
        )
        nc = spec.points[0].netcrafter
        assert nc.enable_stitching and nc.pooling_window == 64

    def test_duplicate_points_collapse_to_first(self):
        spec = parse_campaign(
            {
                "grid": {"workloads": ["gups"]},
                "points": [{"workload": "gups"}, {"workload": "mt"}],
            }
        )
        assert [p.workload for p in spec.points] == ["gups", "mt"]
        assert len(spec.fingerprints) == 2


class TestValidation:
    @pytest.mark.parametrize(
        "data, match",
        [
            ({"grid": {"workloads": []}}, "non-empty"),
            ({"grid": {"workloads": ["nope"]}}, "unknown workload"),
            ({"grid": {"workloads": ["gups"], "bogus": 1}}, "unknown grid keys"),
            ({"grid": {"workloads": ["gups"], "scale": "huge"}}, "unknown scale"),
            ({"grid": {"workloads": ["gups"], "variants": ["fancy"]}}, "unknown variant"),
            ({"points": [{"workload": "gups", "bogus": 1}]}, "unknown point keys"),
            ({"points": [{"variant": "full"}]}, "needs a workload"),
            ({"grid": {"workloads": ["gups"]}, "priority": 101}, "priority"),
            ({"grid": {"workloads": ["gups"]}, "priority": "high"}, "priority"),
            ({"grid": {"workloads": ["gups"]}, "name": ""}, "name"),
            ({"grid": {"workloads": ["gups"]}, "junk": 1}, "unknown keys"),
            ({}, "zero points"),
            (
                {
                    "grid": {
                        "workloads": ["gups"],
                        "topologies": ["ring"],
                        "system": {"inter_topology": "star"},
                    }
                },
                "conflicts",
            ),
        ],
    )
    def test_bad_campaigns_fail_loudly(self, data, match):
        with pytest.raises(CampaignSpecError, match=match):
            parse_campaign(data)

    def test_non_mapping_rejected(self):
        with pytest.raises(CampaignSpecError):
            parse_campaign(["not", "a", "mapping"])


class TestConfigCoercion:
    """Variant fields spelled as JSON values build the same config as the
    Python presets, and bad values are rejected at parse time."""

    def test_spelled_priority_mode_runs_the_enum_point(self):
        from repro.core.config import PriorityMode
        from repro.experiments.runner import execute_point

        spec = parse_campaign(
            {
                "points": [
                    {"workload": "gups", "variant": {"priority_mode": "ptw"}, "scale": "tiny"}
                ]
            }
        )
        enum_point = ExperimentPoint(
            workload="gups",
            netcrafter=NetCrafterConfig(priority_mode=PriorityMode.PTW),
            scale=Scale.tiny(),
        ).normalized()
        assert spec.points[0] == enum_point
        assert spec.points[0].netcrafter.separate_ptw_partition
        spelled, _ = execute_point(spec.points[0])
        enumerated, _ = execute_point(enum_point)
        assert spelled.to_dict() == enumerated.to_dict()

    @pytest.mark.parametrize(
        "variant, match",
        [
            ({"priority_mode": "bogus"}, "priority_mode"),
            ({"scheduler": "lifo"}, "scheduler"),
        ],
        ids=["priority-mode", "scheduler"],
    )
    def test_bad_variant_values_rejected(self, variant, match):
        with pytest.raises(CampaignSpecError, match=match):
            parse_campaign({"points": [{"workload": "gups", "variant": variant}]})


class TestFlapWindows:
    def test_list_and_object_windows_build_flap_windows(self):
        from repro.faults.config import FlapWindow

        spec = parse_campaign(
            {
                "points": [
                    {"workload": "gups", "faults": {"ber": 1e-4, "flaps": [[100, 500, 0.5]]}},
                    {
                        "workload": "gups",
                        "faults": {
                            "ber": 1e-4,
                            "flaps": [{"start": 100, "end": 500, "factor": 0.5}],
                        },
                    },
                ]
            }
        )
        # both spellings are one point
        assert len(spec.points) == 1
        assert spec.points[0].system.faults.flaps == (FlapWindow(100, 500, 0.5),)

    @pytest.mark.parametrize(
        "flaps",
        [[[100, 500]], [[500, 100, 0.5]], [[100, 500, 2.0]], ["abc"], 5, [{"start": 1}]],
        ids=["short", "reversed", "factor", "string", "scalar", "object-fields"],
    )
    def test_malformed_windows_rejected(self, flaps):
        with pytest.raises(CampaignSpecError, match="bad faults block"):
            parse_campaign(
                {"points": [{"workload": "gups", "faults": {"ber": 1e-4, "flaps": flaps}}]}
            )

    def test_flap_point_descriptor_round_trip(self):
        spec = parse_campaign(
            {"points": [{"workload": "gups", "faults": {"flaps": [[100, 500, 0.5]]}}]}
        )
        point = spec.points[0]
        blob = json.dumps(point_descriptor(point), default=lambda o: o.value)
        assert fingerprint(point_from_descriptor(json.loads(blob))) == fingerprint(point)

    def test_chaos_campaign_round_trip_keeps_fingerprints(self):
        from repro.experiments.chaos import ChaosOptions, _fault_system
        from repro.experiments.registry import figure_campaign
        from repro.experiments.runner import ExperimentScale
        from repro.faults.config import FlapWindow

        exp = ExperimentScale(scale=Scale.tiny(), workloads=("gups",), seed=2)
        opts = ChaosOptions(
            bers=(0.0, 1e-4),
            drop_rate=0.01,
            flaps=(FlapWindow(100, 500, 0.5), FlapWindow(900, 1200, 0.25)),
            seed=7,
        )
        campaign = json.loads(json.dumps(figure_campaign("chaos", exp, opts=opts)))
        expected = [
            fingerprint(
                ExperimentPoint(
                    workload="gups",
                    system=_fault_system(ber, opts),
                    netcrafter=netcrafter,
                    scale=exp.scale,
                    seed=exp.seed,
                ).normalized()
            )
            for ber in opts.bers
            for netcrafter in (NetCrafterConfig.baseline(), NetCrafterConfig.full())
        ]
        assert list(parse_campaign(campaign).fingerprints) == expected


class TestCampaignId:
    def test_content_addressed(self):
        a = parse_campaign(_quick_grid(name="one", priority=3))
        b = parse_campaign(_quick_grid(name="two", priority=77))
        # same point set -> same campaign, regardless of name/priority
        assert a.campaign_id == b.campaign_id

    def test_order_sensitive(self):
        assert campaign_id(["a", "b"]) != campaign_id(["b", "a"])

    def test_different_points_different_id(self):
        a = parse_campaign({"grid": {"workloads": ["gups"]}})
        b = parse_campaign({"grid": {"workloads": ["mt"]}})
        assert a.campaign_id != b.campaign_id


class TestDescriptorRoundTrip:
    def test_fingerprint_exact_round_trip(self):
        """Journal recovery rebuilds points from JSON-flattened
        descriptors; the rebuilt point must fingerprint identically."""
        spec = parse_campaign(
            {
                "points": [
                    {
                        "workload": "gups",
                        "variant": "full",
                        "topology": "star",
                        "system": {"n_clusters": 4, "gpus_per_cluster": 1},
                        "faults": {"ber": 2e-5, "seed": 1},
                        "scale": "tiny",
                        "seed": 5,
                    }
                ]
            }
        )
        point = spec.points[0]
        # simulate the journal's JSON round trip (enums -> values,
        # tuples -> lists)
        blob = json.dumps(point_descriptor(point), default=lambda o: o.value)
        rebuilt = point_from_descriptor(json.loads(blob))
        assert fingerprint(rebuilt) == fingerprint(point)
        assert rebuilt.system == point.system

    def test_default_point_round_trip(self):
        point = ExperimentPoint(workload="mt", scale=Scale.tiny()).normalized()
        blob = json.dumps(point_descriptor(point), default=lambda o: o.value)
        assert fingerprint(point_from_descriptor(json.loads(blob))) == fingerprint(point)


class TestLoadCampaign:
    def test_json_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(_quick_grid()))
        spec = load_campaign(path)
        assert spec.name == "quick" and len(spec.points) == 4

    def test_default_name_is_file_stem(self, tmp_path):
        path = tmp_path / "nightly.json"
        path.write_text(json.dumps({"grid": {"workloads": ["gups"]}}))
        assert load_campaign(path).name == "nightly"

    def test_bad_json_fails_loudly(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(CampaignSpecError, match="bad JSON"):
            load_campaign(path)

    def test_missing_file_fails_loudly(self, tmp_path):
        with pytest.raises(CampaignSpecError, match="cannot read"):
            load_campaign(tmp_path / "absent.json")

    def test_yaml_file(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(_quick_grid()))
        spec = load_campaign(path)
        assert [p.workload for p in spec.points] == ["gups", "gups", "mt", "mt"]


class TestExampleCampaigns:
    def test_smoke_quick_example_matches_smoke_grid(self):
        from repro.bench.smoke import smoke_points

        spec = load_campaign("examples/campaigns/smoke_quick.json")
        got = [(p.workload, "full" if p.netcrafter.enable_stitching else "baseline") for p in spec.points]
        assert got == smoke_points(quick=True)
        assert all(p.scale == Scale.small() for p in spec.points)

    def test_topology_tour_example_parses(self):
        pytest.importorskip("yaml")
        spec = load_campaign("examples/campaigns/topology_tour.yaml")
        assert len(spec.points) == 9  # 2 workloads x 2 variants x 2 fabrics + 1
        assert {p.system.inter_topology for p in spec.points} == {"ring", "star"}
        assert spec.points[-1].system.faults.ber == 2e-5

    def test_system_block_defaults_to_none(self):
        spec = parse_campaign({"points": [{"workload": "gups"}]})
        assert spec.points[0].system == SystemConfig.default()
