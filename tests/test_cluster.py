"""Tests for the cluster-scale scenario layer (repro.experiments.cluster)."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.experiments.cluster import (
    CLUSTER_SPECS,
    ClusterSpec,
    build_cluster,
    cluster_spec,
    run_cluster,
)
from repro.parallel import SweepJob, run_sweep
from repro.sim import invariants
from repro.units import MS, SEC

#: A deliberately tiny spec so most tests run in well under a second.
TINY = ClusterSpec(
    name="tiny",
    racks=2, hosts_per_rack=2, spines=1,
    vms_per_host=2, n_flows=40, sim_s=0.02,
)


class TestSpecs:
    def test_presets_registered(self):
        assert {"cluster_smoke", "cluster_scale", "cluster_fat_tree"} <= set(
            CLUSTER_SPECS
        )
        scale = cluster_spec("cluster_scale")
        assert scale.n_hosts == 256
        assert scale.n_vms == 2048
        assert scale.n_flows == 2000

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown cluster preset"):
            cluster_spec("nope")

    def test_validation(self):
        with pytest.raises(ConfigError, match="unknown topology"):
            ClusterSpec(name="x", topology="torus")
        with pytest.raises(ConfigError, match="at least two racks"):
            ClusterSpec(name="x", racks=1)
        with pytest.raises(ConfigError, match="intra_rack_frac"):
            ClusterSpec(name="x", intra_rack_frac=1.5)
        with pytest.raises(ConfigError, match="flow_bytes"):
            ClusterSpec(name="x", flow_bytes_min=0)
        with pytest.raises(ConfigError, match="cross_rack_latency_ns"):
            ClusterSpec(name="x", cross_rack_latency_ns=0)
        with pytest.raises(ConfigError, match="chaos_flaps"):
            ClusterSpec(name="x", chaos_flaps=-1)
        with pytest.raises(ConfigError, match="hosts per rack"):
            ClusterSpec(name="x", hosts_per_rack=1, vms_per_host=1)
        with pytest.raises(ConfigError, match="relay_epoch_ns"):
            ClusterSpec(name="x", relay_epoch_ns=0)

    def test_send_horizon_promises_epoch_boundaries(self):
        """The elision contract: a quiet world's earliest possible
        cross-domain send is the next relay epoch boundary, and an
        armed egress queue pulls the promise back to its departure."""
        from repro.experiments.cluster import ClusterWorld

        spec = cluster_spec("cluster_smoke")
        world = ClusterWorld(spec, seed=7)
        epoch = spec.relay_epoch_ns
        # Mailbox is wired to the model promise.
        assert world.mailbox.horizon_fn is not None
        assert world._send_horizon() == epoch  # quiet at t=0
        # An armed departure earlier than the idle bound wins.
        world._egress[epoch] = [(0, 1, "ping", ())]
        assert world._send_horizon() == epoch
        world._egress.clear()
        horizon, covers = world.mailbox.send_horizon()
        assert horizon >= epoch
        assert covers is True

    def test_fat_tree_shape(self):
        spec = cluster_spec("cluster_fat_tree")
        assert spec.n_hosts == 128  # k=8 -> k^3/4
        assert spec.n_racks == 32   # one rack per edge switch


class TestRun:
    def test_tiny_cluster_end_to_end(self):
        with invariants.activate("record") as monitor:
            result = run_cluster(TINY, seed=3)
        assert not monitor.tainted, monitor.violations
        m = result.metrics()
        assert m["hosts"] == 4.0
        assert m["vms"] == 8.0
        assert m["flows_completed"] > 0
        assert m["flow_p99_us"] > 0
        # Per-rack controllers synced prices over the fabric.
        assert m["federation_syncs"] > 0
        # The reporting pair produced real monitored traffic.
        assert m["reporting_p50_us"] > 0
        # Reallocation stayed component-local for a healthy fraction
        # of solves (disjoint intra-rack components exist by design).
        assert 0.0 < m["solver_component_frac"] <= 1.0
        assert m["solver_max_component"] >= 2

    def test_deterministic_across_runs(self):
        m1 = run_cluster(TINY, seed=5).metrics()
        m2 = run_cluster(TINY, seed=5).metrics()
        assert m1 == m2

    def test_seed_changes_flows(self):
        r1 = run_cluster(TINY, seed=1)
        r2 = run_cluster(TINY, seed=2)
        assert [f.label for f in r1.flows] != [f.label for f in r2.flows]

    def test_flows_respect_rack_mix(self):
        spec = ClusterSpec(
            name="mix", racks=2, hosts_per_rack=2, spines=1,
            vms_per_host=1, n_flows=120, sim_s=0.02,
            intra_rack_frac=0.0, with_resex=False,
        )
        result = run_cluster(spec, seed=3)
        assert all(f.cross_rack for f in result.flows)

    def test_without_resex(self):
        spec = ClusterSpec(
            name="bare", racks=2, hosts_per_rack=1, spines=1,
            vms_per_host=1, n_flows=10, sim_s=0.01, with_resex=False,
        )
        setup = build_cluster(spec, seed=3)
        assert setup.world.coordinator is None and not setup.world.agents
        assert not setup.controllers
        m = setup.execute().metrics()
        assert m["federation_syncs"] == 0.0
        assert "reporting_p50_us" not in m

    def test_rack_head_wiring(self):
        setup = build_cluster(TINY, seed=3)
        rack_heads = [rack[0] for rack in setup.nodes]
        assert len(rack_heads) == 2
        assert len(setup.controllers) == 2
        assert setup.world.coordinator is not None
        assert list(setup.world.agents) == [1]
        # Rack heads host the controllers, in rack order.
        for head, ctl in zip(rack_heads, setup.controllers):
            assert ctl.node is head


    def test_calm_rack0_price_reaches_every_rack(self):
        """Once rack 0's own price is calm, the cluster price follows it
        down by the next 25 ms sample, on rack 0 and on every follower
        (follower racks must not echo a stale price back into it)."""
        setup = build_cluster("cluster_smoke", seed=7)
        world = setup.world
        rack0, *followers = setup.controllers
        world.launch(int(0.3 * SEC))
        samples = []
        for k in range(1, 13):
            world.env.run(until=k * 25 * MS)
            samples.append((
                rack0.local_price(),
                [world.coordinator.cluster_price]
                + [ctl.cluster_price for ctl in followers],
            ))
        checked = 0
        for (before, _), (local, prices) in zip(samples, samples[1:]):
            if before == 1.0 and local == 1.0:
                assert prices == [1.0] * len(prices), prices
                checked += 1
        assert checked > 0  # rack 0 did calm down inside the run


class TestSweepIntegration:
    def test_cluster_cells_are_cacheable(self, tmp_path):
        cells = [SweepJob("cluster", "cluster_smoke", 7, {"sim_s": 0.02})]
        cold = run_sweep(cells, workers=1, cache=str(tmp_path))
        warm = run_sweep(cells, workers=1, cache=str(tmp_path))
        assert cold.report.cached == 0
        assert warm.report.cached == 1
        assert warm.cells[0].metrics == cold.cells[0].metrics
        assert cold.cells[0].metrics["hosts"] == 16.0


class TestClusterCommand:
    def test_list(self, capsys):
        assert main(["cluster", "--list"]) == 0
        out = capsys.readouterr().out
        assert "cluster_scale" in out and "leaf-spine" in out

    def test_json_run_with_invariants(self, capsys):
        code = main(
            ["cluster", "cluster_smoke", "--sim-s", "0.02",
             "--invariants", "record", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tainted"] is False
        assert doc["metrics"]["hosts"] == 16.0

    def test_unknown_preset_is_clean_error(self, capsys):
        assert main(["cluster", "bogus"]) != 0

    def test_sharded_run_reports_matching_digest(self, capsys):
        """--shards is an execution knob: the JSON doc carries shard
        stats but the digest equals the serial run's."""
        base = ["cluster", "cluster_smoke", "--sim-s", "0.02", "--json"]
        assert main(base) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(base + ["--shards", "2", "--shard-backend", "inline"]) == 0
        sharded = json.loads(capsys.readouterr().out)
        assert sharded["shards"] == 2
        assert sharded["shard_stats"]["backend"] == "inline"
        assert sharded["digest"] == serial["digest"]
        assert sharded["metrics"] == serial["metrics"]

    def test_kill_worker_recovers_to_serial_digest(self, capsys, tmp_path):
        """The CI recovery-smoke recipe in miniature: SIGKILL a fork
        worker mid-run, recover, match the serial digest; then resume
        the same cell from its on-disk checkpoint."""
        base = ["cluster", "cluster_smoke", "--sim-s", "0.02", "--json"]
        assert main(base) == 0
        serial = json.loads(capsys.readouterr().out)
        ckpt = str(tmp_path / "ckpt")
        killed = base + [
            "--shards", "2", "--shard-backend", "fork",
            "--checkpoint-dir", ckpt, "--kill-worker", "1@2",
        ]
        assert main(killed) == 0
        recovered = json.loads(capsys.readouterr().out)
        assert recovered["shard_stats"]["respawns"] == 1
        assert recovered["digest"] == serial["digest"]
        restored = base + [
            "--shards", "2", "--shard-backend", "fork",
            "--checkpoint-dir", ckpt, "--restore",
        ]
        assert main(restored) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["digest"] == serial["digest"]

    def test_bad_kill_worker_spec_is_clean_error(self, capsys):
        rc = main(
            ["cluster", "cluster_smoke", "--sim-s", "0.02",
             "--shards", "2", "--shard-backend", "fork",
             "--kill-worker", "nonsense"]
        )
        assert rc != 0
        assert "SHARD@BARRIER" in capsys.readouterr().err
