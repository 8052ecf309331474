"""CLI tests (python -m repro)."""

import json
import re
from pathlib import Path

import pytest

from repro.__main__ import COMMANDS, build_parser, main


class TestCommands:
    @pytest.mark.parametrize("command", ["specs", "storage", "stream",
                                         "apps", "scorecard", "software"])
    def test_command_runs_and_prints(self, command, capsys):
        assert main([command]) == 0
        out = capsys.readouterr().out
        assert len(out) > 100

    def test_specs_content(self, capsys):
        main(["specs"])
        out = capsys.readouterr().out
        assert "9472" in out
        assert "2.0 EF" in out
        assert "270.1" in out

    def test_apps_content(self, capsys):
        main(["apps"])
        out = capsys.readouterr().out
        for name in ("CoMet", "Cholla", "WarpX", "ExaSMR"):
            assert name in out

    def test_scorecard_content(self, capsys):
        main(["scorecard"])
        out = capsys.readouterr().out
        assert "pass" in out and "struggle" in out
        assert "True" in out   # meets the spirit of exascale

    def test_gpcnet_content(self, capsys):
        main(["gpcnet"])
        out = capsys.readouterr().out
        assert "Isolated" in out and "Congested" in out
        assert "Allreduce" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_command_registry_matches_doc(self):
        assert set(COMMANDS) == {"specs", "storage", "stream", "gpcnet",
                                 "apps", "scorecard", "software",
                                 "evaluate"}


class TestEvaluateJson:
    def test_emits_valid_json(self, capsys):
        main(["evaluate"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["meets_spirit_of_exascale"] is True
        assert len(payload["table6"]) == 6
        assert len(payload["table7"]) == 5


class TestObservabilityVerbs:
    """python -m repro trace / metrics (see repro.obs)."""

    def teardown_method(self):
        from repro import obs
        obs.disable()
        obs.reset()

    def test_trace_probe_suite_prints_span_tree(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        for layer in ("probe.fabric", "probe.mpi", "probe.storage",
                      "probe.scheduler"):
            assert layer in out
        assert "fabric.maxmin_allocate" in out

    def test_trace_report_command(self, capsys):
        assert main(["trace", "storage"]) == 0
        out = capsys.readouterr().out
        assert "Trace: storage" in out

    def test_metrics_probe_suite_prints_table(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "fabric.paths_computed" in out
        assert "mpi.p2p_messages" in out
        assert "storage.io_ops" in out

    def test_metrics_json_document(self, capsys):
        assert main(["metrics", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert "fabric.paths_computed" in doc["metrics"]
        assert doc["spans"]

    def test_metrics_out_writes_file(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(["metrics", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert "fabric.paths_computed" in doc["metrics"]

    def test_trace_collapsed_emits_folded_stacks(self, capsys):
        assert main(["trace", "--collapsed"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        for line in lines:
            stack, _, weight = line.rpartition(" ")
            assert stack and weight.isdigit()
        assert any(line.startswith("probe.fabric;fabric.flow_bandwidths")
                   for line in lines)


class TestScenarioVerbs:
    """python -m repro scenario / mpigraph (see repro.core.scenario)."""

    def test_scenario_prints_frontier_spec(self, capsys):
        assert main(["scenario"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "frontier"
        assert doc["node_count"] == 9472
        assert doc["fabric"]["kind"] == "dragonfly"

    def test_scenario_out_round_trips_through_mpigraph(self, tmp_path,
                                                       capsys):
        from repro.core.scenario import MachineSpec
        path = tmp_path / "small.json"
        assert main(["scenario", "--scaled", "6", "4", "4",
                     "--out", str(path)]) == 0
        spec = MachineSpec.load(str(path))
        assert spec.fabric.groups == 6
        capsys.readouterr()
        assert main(["mpigraph", "--spec", str(path), "--bins", "8"]) == 0
        out = capsys.readouterr().out
        assert "flow-level" in out
        assert "spread" in out

    def test_mpigraph_matches_the_committed_histogram(self, tmp_path,
                                                      capsys):
        # the CI smoke's 16x8x16 run, written by the per-offset simulator
        fixture = (Path(__file__).parent / "fixtures"
                   / "mpigraph-16x8x16.txt")
        spec = tmp_path / "spec.json"
        assert main(["scenario", "--scaled", "16", "8", "16",
                     "--out", str(spec)]) == 0
        capsys.readouterr()
        assert main(["mpigraph", "--spec", str(spec)]) == 0
        assert capsys.readouterr().out == fixture.read_text()

    def test_mpigraph_full_scale_uses_analytic_accounting(self, capsys):
        assert main(["mpigraph"]) == 0
        out = capsys.readouterr().out
        assert "analytic" in out
        assert "frontier" in out


class TestMalformedSpecFile:
    """Every verb taking ``--spec FILE`` answers a bad file with one line
    on stderr and exit 2, as ``sweep`` does."""

    @pytest.mark.parametrize("verb", ["chaos", "congest", "mpigraph",
                                      "scenario"])
    def test_unknown_field_is_a_one_line_error(self, verb, tmp_path,
                                               capsys):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"degradation": {"typo_scale": 2.0}}))
        assert main([verb, "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{verb}: --spec {path}: ")
        assert "typo_scale" in lines[0]

    @pytest.mark.parametrize("verb", ["chaos", "congest", "mpigraph",
                                      "scenario", "sweep"])
    def test_unreadable_file_is_a_one_line_error(self, verb, tmp_path,
                                                 capsys):
        for path, text in ((tmp_path / "cut.json", '{"name": '),
                           (tmp_path / "absent.json", None)):
            if text is not None:
                path.write_text(text)
            assert main([verb, "--spec", str(path)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"{verb}: --spec ")


class TestSweepVerb:
    """python -m repro sweep (see repro.sweep)."""

    @staticmethod
    def args(tmp_path, *extra):
        return ["sweep", "--axis", "disabled_nodes=0,1", "--probe",
                "storage", "--workers", "0", "--backoff", "0",
                "--out", str(tmp_path), *extra]

    def test_sweep_runs_then_resumes(self, tmp_path, capsys):
        assert main(self.args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "run: 2" in out and "skipped: 0" in out
        assert "disabled_nodes" in out            # axes become table columns
        assert len(list(tmp_path.glob("*.json"))) == 2
        assert main(self.args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "run: 0" in out and "skipped: 2" in out

    def test_fresh_reruns(self, tmp_path, capsys):
        assert main(self.args(tmp_path)) == 0
        assert main(self.args(tmp_path, "--fresh")) == 0
        assert "run: 2" in capsys.readouterr().out

    def test_list_prints_grid_without_running(self, tmp_path, capsys):
        assert main(self.args(tmp_path, "--list")) == 0
        assert "2 tasks" in capsys.readouterr().out
        assert list(tmp_path.glob("*.json")) == []

    def test_malformed_axis_is_a_usage_error(self, tmp_path, capsys):
        assert main(["sweep", "--axis", "scale", "--workers", "0",
                     "--out", str(tmp_path)]) == 2
        assert "key=v1,v2" in capsys.readouterr().err

    def test_unknown_probe_is_a_usage_error(self, tmp_path, capsys):
        assert main(["sweep", "--probe", "frobnicate", "--workers", "0",
                     "--out", str(tmp_path)]) == 2
        assert "unknown sweep probes" in capsys.readouterr().err

    def test_every_task_failing_is_a_hard_error(self, tmp_path, capsys):
        assert main(["sweep", "--probe", "failing", "--workers", "0",
                     "--retries", "0", "--backoff", "0",
                     "--out", str(tmp_path)]) == 1
        assert "failed: 1" in capsys.readouterr().out


class TestChaosVerb:
    """python -m repro chaos (see repro.chaos)."""

    @staticmethod
    def args(tmp_path, *extra):
        return ["chaos", "--scaled", "8", "4", "4", "--seed", "0",
                "--hours", "24", "--failure-scale", "50",
                "--out", str(tmp_path), *extra]

    def test_chaos_runs_then_resumes(self, tmp_path, capsys):
        assert main(self.args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "Achieved vs ideal efficiency" in out
        assert "machine availability" in out
        assert "(written)" in out
        artifacts = list(tmp_path.glob("chaos-*.json"))
        assert len(artifacts) == 1
        assert main(self.args(tmp_path)) == 0
        assert "(resumed)" in capsys.readouterr().out

    def test_fresh_reruns_identically(self, tmp_path, capsys):
        assert main(self.args(tmp_path, "--json")) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(self.args(tmp_path, "--json", "--fresh")) == 0
        assert json.loads(capsys.readouterr().out) == first
        assert first["status"] == "ok"

    def test_policy_knobs_change_the_artifact(self, tmp_path, capsys):
        assert main(self.args(tmp_path)) == 0
        assert main(self.args(tmp_path, "--policy", "fixed",
                              "--interval", "600")) == 0
        assert len(list(tmp_path.glob("chaos-*.json"))) == 2

    def test_validate_passes_and_prints_ratios(self, capsys):
        assert main(["chaos", "--validate"]) == 0
        out = capsys.readouterr().out
        assert "Chaos cross-validation" in out
        assert "validation PASSED" in out

    @staticmethod
    def heal_args(tmp_path, *extra):
        return ["chaos", "--heal", "--scaled", "8", "4", "4", "--seed", "0",
                "--hours", "48", "--failure-scale", "200",
                "--uniform-blast", "--mttr-scale", "0.1",
                "--out", str(tmp_path), *extra]

    def test_heal_runs_then_resumes_with_report(self, tmp_path, capsys):
        assert main(self.heal_args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "heal:" in out
        assert "replacements" in out
        assert "job availability" in out
        assert "(written)" in out
        assert main(self.heal_args(tmp_path)) == 0
        assert "(resumed)" in capsys.readouterr().out

    def test_heal_artifact_distinct_from_unhealed(self, tmp_path, capsys):
        assert main(self.heal_args(tmp_path)) == 0
        assert main(["chaos", "--scaled", "8", "4", "4", "--seed", "0",
                     "--hours", "48", "--failure-scale", "200",
                     "--uniform-blast", "--mttr-scale", "0.1",
                     "--out", str(tmp_path)]) == 0
        assert len(list(tmp_path.glob("chaos-*.json"))) == 2

    def test_heal_json_carries_the_heal_report(self, tmp_path, capsys):
        assert main(self.heal_args(tmp_path, "--json")) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["heal"]["spare_target"] == 4
        assert doc["heal"]["adaptive"] is True

    def test_heal_validate_runs_the_three_arm_gate(self, capsys):
        assert main(["chaos", "--heal", "--validate"]) == 0
        out = capsys.readouterr().out
        assert "Self-healing cross-validation" in out
        assert "validation PASSED" in out


class TestCongestVerb:
    """python -m repro congest (see repro.fabric.congest)."""

    @staticmethod
    def args(tmp_path, *extra):
        return ["congest", "--scaled", "8", "4", "4", "--seed", "0",
                "--k", "10,60", "--horizon-us", "150",
                "--out", str(tmp_path), *extra]

    def test_congest_runs_then_resumes(self, tmp_path, capsys):
        assert main(self.args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "Victim tail vs backpressure" in out
        assert "fifo" in out and "ecn k10" in out and "ecn k60" in out
        assert "FIFO victim p99" in out
        assert "(written)" in out
        artifacts = list(tmp_path.glob("congest-*.json"))
        assert len(artifacts) == 1
        assert main(self.args(tmp_path)) == 0
        assert "(resumed)" in capsys.readouterr().out

    def test_fresh_reruns_identically(self, tmp_path, capsys):
        assert main(self.args(tmp_path, "--json")) == 0
        first = capsys.readouterr().out
        assert main(self.args(tmp_path, "--json", "--fresh")) == 0
        assert capsys.readouterr().out == first
        assert json.loads(first)["status"] == "ok"

    def test_knobs_change_the_artifact(self, tmp_path, capsys):
        assert main(self.args(tmp_path)) == 0
        assert main(self.args(tmp_path, "--fanin", "4", "--no-fifo")) == 0
        assert len(list(tmp_path.glob("congest-*.json"))) == 2

    def test_validate_passes_and_prints_ratio(self, capsys):
        assert main(["congest", "--validate"]) == 0
        out = capsys.readouterr().out
        assert "Timeflow cross-validation" in out
        assert "validation PASSED" in out

    def test_backoffs_runs_the_grid(self, tmp_path, capsys):
        assert main(self.args(tmp_path, "--backoffs", "0.25,0.75",
                              "--json")) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [(c["mode"], c["ecn_k"], c["backoff"]) for c in doc["cells"]] \
            == [("fifo", None, None), ("ecn", 10.0, 0.25), ("ecn", 10.0, 0.75),
                ("ecn", 60.0, 0.25), ("ecn", 60.0, 0.75)]
        assert doc["backoffs"] == [0.25, 0.75]
        # grids are not cached
        assert not list(tmp_path.glob("congest-*.json"))


def _exit_code(argv: list[str]) -> int:
    """``main``'s exit status, whether returned or raised by argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestMalformedKnobs:
    """Bad CLI input is an error line and exit 2, never a traceback:
    argparse rejects what does not parse, and :func:`main` prints a
    ``ConfigurationError`` from any verb as ``<verb>: <message>``."""

    @pytest.mark.parametrize("argv, message", [
        (["congest", "--k", "abc"],
         "argument --k: invalid comma-separated int value: 'abc'"),
        (["congest", "--k", "10.5"],
         "argument --k: invalid comma-separated int value: '10.5'"),
        (["congest", "--backoffs", "x"],
         "argument --backoffs: invalid comma-separated float value: 'x'"),
    ])
    def test_unparsable_values_are_usage_errors(self, argv, message,
                                                capsys):
        assert _exit_code(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert message in captured.err.splitlines()[-1]

    @pytest.mark.parametrize("argv, message", [
        (["congest", "--scaled", "8", "4", "4", "--backoffs", "1.5"],
         "congest: backoffs must be in (0, 1)"),
        (["congest", "--fanin", "0"], "congest: fanin must be >= 1"),
        (["congest", "--k", "0"], "congest: ECN thresholds must be"),
        (["chaos", "--hours", "-1"], "chaos: "),
    ])
    def test_configuration_errors_are_one_line(self, argv, message, capsys):
        assert _exit_code(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(message)


class TestCompareVerb:
    """python -m repro compare (see repro.core.compare)."""

    def test_compare_prints_all_sections(self, capsys):
        assert main(["compare"]) == 0
        out = capsys.readouterr().out
        assert "Machine families" in out
        assert "Table 6" in out and "Table 7" in out
        assert "HPL/HPCG roofline projection" in out
        for fam in ("frontier", "summit", "aurora"):
            assert fam in out
        assert "within ±10%: True" in out

    def test_frontier_column_bit_identical_to_apps(self, capsys):
        """The compare table's Frontier cells must render exactly the
        strings the ``apps`` verb prints (same model, same format)."""
        assert main(["apps"]) == 0
        apps_out = capsys.readouterr().out
        apps_cells = {}
        for line in apps_out.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 4 and parts[3].endswith("x"):
                apps_cells[parts[0]] = parts[3]
        assert len(apps_cells) == 11
        assert main(["compare"]) == 0
        compare_out = capsys.readouterr().out
        for line in compare_out.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 6 and parts[0] in apps_cells:
                assert parts[3] == apps_cells.pop(parts[0])
        assert apps_cells == {}    # every app row was found and matched

    def test_json_document(self, capsys):
        assert main(["compare", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["frontier_hpl_within_10pct"] is True
        assert [p["family"] for p in doc["projection"]] == \
            ["frontier", "summit", "aurora"]
        assert all(p["binding"] == "compute" for p in doc["projection"])

    def test_families_subset(self, capsys):
        assert main(["compare", "--families", "aurora,summit",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [f["family"] for f in doc["families"]] == ["aurora", "summit"]
        assert "frontier_hpl_within_10pct" not in doc

    def test_unknown_family_is_a_usage_error(self, capsys):
        assert main(["compare", "--families", "elcap"]) == 2
        assert "elcap" in capsys.readouterr().err


class TestSweepGc:
    """python -m repro sweep --gc (see repro.sweep.artifacts)."""

    def test_gc_prunes_errors_and_reports_counts(self, tmp_path, capsys):
        assert main(["sweep", "--probe", "failing", "--workers", "0",
                     "--retries", "0", "--backoff", "0",
                     "--out", str(tmp_path)]) == 1
        assert main(["sweep", "--probe", "storage", "--workers", "0",
                     "--backoff", "0", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--gc", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "removed: 1" in out and "errors: 1" in out
        assert "kept: 1" in out
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_gc_on_missing_directory(self, tmp_path, capsys):
        assert main(["sweep", "--gc", "--out", str(tmp_path / "never")]) == 0
        assert "scanned: 0" in capsys.readouterr().out

    def test_gc_keeps_other_ledgers_files(self, tmp_path, capsys):
        # sweep (prefix ""), chaos- and three congest- artifacts in one
        # directory
        fixtures = Path(__file__).parent / "fixtures" / "ledger"
        names = sorted(p.name for p in fixtures.glob("*.json"))
        assert len(names) == 5
        for name in names:
            (tmp_path / name).write_bytes((fixtures / name).read_bytes())
        assert main(["sweep", "--gc", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "scanned: 1  removed: 0 (" in out and "kept: 1" in out
        assert sorted(p.name for p in tmp_path.iterdir()) == names


class TestServeQueryVerbs:
    """python -m repro serve / query (see repro.serve)."""

    def teardown_method(self):
        from repro import obs
        obs.disable()
        obs.reset()

    @staticmethod
    def query_args(tmp_path, *extra):
        return ["query", "--local", "--probe", "storage",
                "--scaled", "6", "4", "4", *extra]

    def test_query_local_cold_path(self, tmp_path, capsys):
        assert main(self.query_args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "ok: 1/1" in out

    def test_query_local_json_documents(self, tmp_path, capsys):
        assert main(self.query_args(tmp_path, "--count", "2", "--distinct",
                                    "--json")) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        docs = [json.loads(line) for line in lines[:-1]]
        assert len(docs) == 2
        assert all(doc["status"] == "ok" for doc in docs)
        assert docs[0]["task_id"] != docs[1]["task_id"]
        assert "ok: 2/2" in lines[-1]

    def test_query_spec_and_family_conflict(self, tmp_path, capsys):
        assert main(["query", "--local", "--spec", "x.json",
                     "--family", "summit"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_query_unknown_family_is_a_usage_error(self, capsys):
        assert main(["query", "--local", "--family", "nope"]) == 2
        assert "unknown machine family" in capsys.readouterr().err

    def test_query_unreachable_service_is_a_usage_error(self, capsys):
        assert main(["query", "--host", "127.0.0.1", "--port", "1",
                     "--probe", "storage"]) == 2
        assert "query:" in capsys.readouterr().err

    def test_serve_stdio_end_to_end(self, tmp_path, capsys, monkeypatch):
        """The README's curl-free example: request lines in, answers out."""
        import os
        import sys as _sys
        lines = (
            '{"id":"r1","probe":"storage","scaled":[6,4,4]}\n'
            '{"id":"r2","probe":"storage","scaled":[6,4,4],"seed":1}\n'
            '{"id":"r1b","probe":"storage","scaled":[6,4,4]}\n')
        read_fd, write_fd = os.pipe()
        os.write(write_fd, lines.encode())
        os.close(write_fd)
        stdin = os.fdopen(read_fd)
        monkeypatch.setattr(_sys, "stdin", stdin)
        assert main(["serve", "--stdio", "--out", str(tmp_path),
                     "--batch-window-ms", "5"]) == 0
        captured = capsys.readouterr()
        docs = [json.loads(line)
                for line in captured.out.strip().splitlines()]
        by_id = {doc["id"]: doc for doc in docs}
        assert set(by_id) == {"r1", "r2", "r1b"}
        assert all(doc["status"] == "ok" for doc in docs)
        # r1 and r1b are the identical task: one evaluation, shared answer
        assert by_id["r1"]["task_id"] == by_id["r1b"]["task_id"]
        assert "answered 3 request(s)" in captured.err
        # misses were written back to the shared sweep ledger
        assert len(list(tmp_path.glob("*.json"))) == 2


class TestVerbDocumentation:
    """Every registered verb must be documented (the tables drift
    otherwise: this is the sync contract named in ``repro.__main__``)."""

    @staticmethod
    def registered_verbs() -> set:
        subparsers = build_parser()._subparsers._group_actions[0]
        return set(subparsers.choices)

    def test_parser_covers_the_command_registry(self):
        assert set(COMMANDS) <= self.registered_verbs()

    def test_every_verb_in_module_docstring(self):
        import repro.__main__ as cli
        missing = [v for v in self.registered_verbs()
                   if f"``{v}``" not in cli.__doc__]
        assert missing == []

    def test_every_sweep_axis_in_help(self):
        """The --axis help string must name every registered axis."""
        from repro.sweep.plan import AXES
        subparsers = build_parser()._subparsers._group_actions[0]
        sweep = subparsers.choices["sweep"]
        help_text = sweep.format_help()
        missing = [axis for axis in AXES if axis not in help_text]
        assert missing == []

    def test_every_verb_in_readme(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md")
        text = readme.read_text()
        documented = set()
        for match in re.finditer(r"python -m repro\s+(\{[^}]*\}|[a-z_]+)",
                                 text):
            token = match.group(1)
            if token.startswith("{"):
                documented.update(
                    v.strip() for v in token[1:-1].replace("\n", "")
                    .split(","))
            else:
                documented.add(token)
        missing = self.registered_verbs() - documented
        assert missing == set()
