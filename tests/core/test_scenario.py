"""The scenario layer: spec round trips, variants, and the config funnel."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.core.machine import FrontierMachine
from repro.core.scenario import (SPEC_SCHEMA_VERSION, CongestionSpec,
                                 DegradationSpec, DragonflyGeometry,
                                 FatTreeGeometry, MachineSpec, StorageSpec,
                                 frontier_spec, resolve_dragonfly,
                                 summit_spec)
from repro.errors import ConfigurationError
from repro.fabric.dragonfly import FRONTIER_DRAGONFLY, DragonflyConfig
from repro.fabric.network import FatTreeNetwork, SlingshotNetwork
from repro.fabric.routing import RoutingPolicy


class TestJsonRoundTrip:
    def test_frontier_spec_round_trips(self):
        spec = frontier_spec()
        assert MachineSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("spec", [
        summit_spec(),
        frontier_spec().scaled(8, 4, 4),
        frontier_spec().scaled(6, 4, 4).degraded(failed_links=(3, 1),
                                                 failed_nodes=(0,)),
        MachineSpec(name="custom", node_count=64, nics_per_node=2,
                    fabric=DragonflyGeometry(groups=9, switches_per_group=4,
                                             endpoints_per_switch=4),
                    routing="minimal"),
    ])
    def test_every_variant_round_trips(self, spec):
        assert MachineSpec.from_json(spec.to_json()) == spec

    def test_document_shape(self):
        doc = json.loads(frontier_spec().to_json())
        assert doc["schema"] == SPEC_SCHEMA_VERSION
        assert doc["fabric"]["kind"] == "dragonfly"
        assert doc["node_count"] == 9472
        assert doc["storage"]["ssu_count"] == 225
        assert doc["degradation"] == {"failed_links": [], "failed_nodes": []}

    def test_save_load_round_trip(self, tmp_path):
        spec = frontier_spec().scaled(6, 4, 4)
        path = spec.save(str(tmp_path / "spec.json"))
        assert MachineSpec.load(path) == spec

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid"):
            MachineSpec.from_json("{nope")

    def test_unknown_schema_rejected(self):
        doc = frontier_spec().to_dict()
        doc["schema"] = 99
        with pytest.raises(ConfigurationError, match="schema"):
            MachineSpec.from_dict(doc)

    def test_unknown_fabric_kind_rejected(self):
        doc = frontier_spec().to_dict()
        doc["fabric"] = {"kind": "torus"}
        with pytest.raises(ConfigurationError, match="torus"):
            MachineSpec.from_dict(doc)

    def test_unknown_fabric_field_rejected(self):
        doc = frontier_spec().to_dict()
        doc["fabric"]["warp_factor"] = 9
        with pytest.raises(ConfigurationError, match="warp_factor"):
            MachineSpec.from_dict(doc)

    @pytest.mark.parametrize("doc, match", [
        ({"congestion": {"bogus": 1}}, "bogus"),
        ({"storage": {"ssu_count": "x"}}, "ssu_count"),
        ({"degradation": {"failed_links": 5}}, "failed_links"),
        ({"degradation": {"failed_links": ["a"]}}, "degradation"),
        ({"degradation": {"typo_scale": 60}}, "typo_scale"),
        ({"degradation": {"checkpoint_policy": "fixed",
                          "checkpoint_interval_s": "x"}}, "degradation"),
        ({"node_cout": 5}, "node_cout"),
        ({"node_count": True}, "node_count"),
        ({"name": 7}, "name"),
        ({"storage": 5}, "storage"),
        ({"congestion": {"ecn": "false"}}, "ecn"),
        ({"congestion": {"ecn_k": 10.5}}, "ecn_k"),
        ({"resilience": {"spare_fraction": "lots"}}, "spare_fraction"),
        ({"fabric": {"kind": "dragonfly", "groups": "x"}}, "groups"),
        ({"fabric": []}, "fabric"),
        # an infinite FIT multiplier used to hang a chaos run
        ({"degradation": {"failure_scale": float("inf")}}, "failure_scale"),
    ])
    def test_malformed_blocks_rejected(self, doc, match):
        """Unknown keys and wrong-typed values in any block are a
        ConfigurationError, never a bare TypeError or a silent default."""
        with pytest.raises(ConfigurationError, match=match):
            MachineSpec.from_dict(doc)

    @pytest.mark.parametrize("field", ["failed_links", "failed_nodes"])
    @pytest.mark.parametrize("literal", ["1e400", "-Infinity", "NaN",
                                         "true"])
    def test_degradation_ids_must_be_finite_ints(self, field, literal):
        """Python's ``json`` reads these literals; each used to escape as
        an OverflowError or ValueError, or (``true``) run as id 1."""
        doc = json.loads(f'{{"degradation": {{"{field}": [{literal}]}}}}')
        with pytest.raises(ConfigurationError, match=field):
            MachineSpec.from_dict(doc)

    def test_int_valued_floats_accepted(self):
        doc = frontier_spec().to_dict()
        doc["degradation"]["failure_scale"] = 60
        doc["fabric"]["link_rate"] = 25_000_000_000
        spec = MachineSpec.from_dict(doc)
        assert spec.degradation.failure_scale == 60.0
        assert spec.fabric == frontier_spec().fabric


class TestValidation:
    def test_endpoint_capacity_enforced(self):
        with pytest.raises(ConfigurationError, match="endpoints"):
            MachineSpec(node_count=10_000)

    def test_routing_matches_fabric_kind(self):
        with pytest.raises(ConfigurationError, match="routing"):
            MachineSpec(routing="warp")
        with pytest.raises(ConfigurationError, match="ECMP"):
            MachineSpec(name="summit", node_count=432, nics_per_node=1,
                        fabric=FatTreeGeometry(), routing="ugal")

    def test_failed_nodes_must_exist(self):
        with pytest.raises(ConfigurationError, match="failed node"):
            MachineSpec(degradation=DegradationSpec(failed_nodes=(9472,)))

    def test_degradation_normalised(self):
        d = DegradationSpec(failed_links=(5, 1, 5), failed_nodes=(2.0,))
        assert d.failed_links == (1, 5)
        assert d.failed_nodes == (2,)
        assert not d.is_pristine
        with pytest.raises(ConfigurationError):
            DegradationSpec(failed_links=(-1,))

    def test_storage_validated(self):
        with pytest.raises(ConfigurationError):
            StorageSpec(ssu_count=0)

    def test_congestion_validated(self):
        with pytest.raises(ConfigurationError, match="ecn_k"):
            CongestionSpec(ecn_k=0)
        with pytest.raises(ConfigurationError, match="burst_duty"):
            CongestionSpec(burst_duty=1.5)
        with pytest.raises(ConfigurationError, match="incast_fanin"):
            CongestionSpec(incast_fanin=0)


class TestCongestionSpec:
    """The congestion knobs must not disturb existing spec documents."""

    def test_default_knobs_do_not_serialize(self):
        # Pre-congestion spec files and sweep task hashes stay stable.
        assert "congestion" not in frontier_spec().to_dict()

    def test_non_default_knobs_round_trip(self):
        from dataclasses import replace
        spec = replace(frontier_spec(),
                       congestion=CongestionSpec(ecn=False, ecn_k=10,
                                                 burst_duty=0.5,
                                                 incast_fanin=16))
        doc = spec.to_dict()
        assert doc["congestion"] == {"ecn": False, "ecn_k": 10,
                                     "burst_duty": 0.5, "incast_fanin": 16}
        assert MachineSpec.from_dict(doc) == spec

    def test_values_normalised(self):
        knobs = CongestionSpec(ecn_k=30.0, incast_fanin=8.0)
        assert knobs.ecn_k == 30 and isinstance(knobs.ecn_k, int)
        assert knobs.incast_fanin == 8
        assert knobs.is_default


class TestMachineRoundTrip:
    def test_from_spec_spec_is_identity(self):
        spec = frontier_spec()
        assert FrontierMachine.from_spec(spec).spec() == spec

    def test_from_spec_preserves_summary(self):
        machine = FrontierMachine()
        rebuilt = FrontierMachine.from_spec(machine.spec())
        assert rebuilt.summary() == machine.summary()

    def test_fat_tree_machine_assembles_but_comm_points_elsewhere(self):
        # from_spec now resolves Summit via the family registry; only the
        # dragonfly-specific comm() surface refuses, with a pointer.
        machine = FrontierMachine.from_spec(summit_spec())
        assert machine.family == "summit"
        assert machine.spec() == summit_spec()
        from repro.mpi.job import JobLayout
        with pytest.raises(ConfigurationError, match="build_network"):
            machine.comm(JobLayout.contiguous(4))

    def test_machine_factories_trace_back_to_spec(self):
        machine = frontier_spec().scaled(6, 4, 4).machine()
        net = machine.network(rng=0)
        assert isinstance(net, SlingshotNetwork)
        assert net.config == machine.fabric
        comm = machine.comm(__import__(
            "repro.mpi.job", fromlist=["JobLayout"]).JobLayout.contiguous(4))
        assert comm.config == machine.fabric

    def test_degraded_machine_drains_nodes_and_links(self):
        machine = frontier_spec().scaled(6, 4, 4).machine()
        degraded = machine.degraded(failed_links=(2,), failed_nodes=(0, 1))
        assert degraded.healthy_node_count == machine.node_count - 2
        assert degraded.scheduler().n_nodes == degraded.healthy_node_count
        net = degraded.network(rng=0)
        assert net.router.disabled == {2}


class TestVariants:
    def test_scaled_follows_endpoint_pool(self):
        small = frontier_spec().scaled(8, 4, 4)
        assert small.node_count == 8 * 4 * 4 // 4
        assert small.name == "frontier-scaled-8x4x4"
        assert small.fabric.groups == 8

    def test_scaled_drops_degradation(self):
        spec = frontier_spec().degraded(failed_links=(7,))
        assert spec.scaled(8, 4, 4).degradation.is_pristine

    def test_degraded_merges_and_dedupes(self):
        spec = frontier_spec().degraded(failed_links=(3,))
        again = spec.degraded(failed_links=(3, 1))
        assert again.degradation.failed_links == (1, 3)

    def test_fat_tree_cannot_scale(self):
        with pytest.raises(ConfigurationError, match="dragonfly"):
            summit_spec().scaled(4, 4, 4)


class TestBuildNetwork:
    def test_dragonfly_and_fattree_dispatch(self):
        assert isinstance(frontier_spec().scaled(6, 4, 4).build_network(rng=0),
                          SlingshotNetwork)
        assert isinstance(summit_spec().build_network(rng=0), FatTreeNetwork)

    def test_failed_links_disabled_on_router(self):
        spec = frontier_spec().scaled(6, 4, 4).degraded(failed_links=(1, 3))
        net = spec.build_network(rng=0)
        assert net.router.disabled == {1, 3}

    def test_routing_policy_honoured(self):
        spec = frontier_spec().scaled(6, 4, 4)
        valiant = MachineSpec.from_dict(
            {**spec.to_dict(), "routing": "valiant"})
        assert (valiant.build_network(rng=0).router.policy
                is RoutingPolicy.VALIANT)
        assert valiant.routing_policy is RoutingPolicy.VALIANT
        assert summit_spec().routing_policy is None


class TestResolveDragonfly:
    def test_none_resolves_to_frontier_fabric(self):
        assert resolve_dragonfly(None) == FRONTIER_DRAGONFLY

    def test_config_passes_through(self):
        cfg = DragonflyConfig().scaled(8, 4, 4)
        assert resolve_dragonfly(cfg) is cfg

    def test_spec_and_machine_resolve(self):
        spec = frontier_spec().scaled(6, 4, 4)
        assert resolve_dragonfly(spec) == spec.fabric_config()
        assert resolve_dragonfly(spec.machine()) == spec.fabric_config()

    def test_fat_tree_sources_rejected(self):
        with pytest.raises(ConfigurationError, match="dragonfly"):
            resolve_dragonfly(summit_spec())
        with pytest.raises(ConfigurationError, match="FatTreeConfig"):
            resolve_dragonfly(summit_spec().fabric_config())


class TestGridExpanderEdgeCases:
    """Edge cases the sweep grid expander leans on: composed variants must
    survive JSON, and the serialized form must be byte-stable (task hashes
    are content hashes of ``to_json``)."""

    def test_scaled_then_degraded_round_trips(self):
        spec = (frontier_spec().scaled(8, 4, 4)
                .degraded(failed_links=(7, 2), failed_nodes=(1,)))
        back = MachineSpec.from_json(spec.to_json())
        assert back == spec
        assert back.degradation.failed_links == (2, 7)

    def test_degraded_then_scaled_drops_then_reapplies(self):
        spec = (frontier_spec().degraded(failed_links=(5,))
                .scaled(8, 4, 4).degraded(failed_nodes=(3,)))
        back = MachineSpec.from_json(spec.to_json())
        assert back == spec
        assert back.degradation.failed_links == ()   # scaling dropped them
        assert back.degradation.failed_nodes == (3,)

    def test_double_round_trip_is_stable(self):
        spec = frontier_spec().scaled(8, 4, 4).degraded(failed_links=(1,))
        once = MachineSpec.from_json(spec.to_json())
        twice = MachineSpec.from_json(once.to_json())
        assert once.to_json() == twice.to_json() == spec.to_json()

    def test_to_json_stable_across_dict_ordering(self):
        """Shuffled document key order must not change the canonical form
        (and therefore must not change a sweep task's content hash)."""
        spec = frontier_spec().scaled(8, 4, 4).degraded(failed_links=(4, 2))
        doc = json.loads(spec.to_json())

        def shuffle(value):
            if isinstance(value, dict):
                return {k: shuffle(value[k]) for k in reversed(list(value))}
            return value

        reparsed = MachineSpec.from_dict(shuffle(doc))
        assert reparsed == spec
        assert reparsed.to_json() == spec.to_json()

    def test_degradation_written_down_in_any_order_hashes_equal(self):
        a = frontier_spec().degraded(failed_links=(9, 1, 5))
        b = frontier_spec().degraded(failed_links=(5, 9, 1))
        assert a.to_json() == b.to_json()


class TestCompositionRootGuard:
    def test_no_layer_outside_core_and_fabric_defaults_the_fabric(self):
        """Downstream layers must get configs from the scenario funnel.

        Default-constructing ``DragonflyConfig()`` anywhere else
        reintroduces the scattered-defaults problem this layer removed.
        """
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        assert src.is_dir()
        offenders = []
        for path in src.rglob("*.py"):
            rel = path.relative_to(src)
            if rel.parts[0] in ("core", "fabric"):
                continue
            if re.search(r"DragonflyConfig\(\)", path.read_text()):
                offenders.append(str(rel))
        assert offenders == []

    def test_no_layer_below_core_names_frontier_classes(self):
        """Everything below the composition root goes through the family
        registry: naming ``FRONTIER_SPEC``/``FrontierMachine``/
        ``BardPeakNode`` in an import hardwires the machine choice and
        breaks Summit/Aurora runs of the same code path.
        """
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        assert src.is_dir()
        pattern = re.compile(
            r"\b(FRONTIER_SPEC|FrontierMachine|BardPeakNode)\b")
        offenders = []
        for path in src.rglob("*.py"):
            rel = path.relative_to(src)
            # The composition root itself (core, node) and the package
            # facade re-export these names; everyone else must not.
            if rel.parts[0] in ("core", "node") or rel == Path("__init__.py"):
                continue
            for i, line in enumerate(path.read_text().splitlines(), 1):
                if "import" in line and pattern.search(line):
                    offenders.append(f"{rel}:{i}: {line.strip()}")
        assert offenders == []
