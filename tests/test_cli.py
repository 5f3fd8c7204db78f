"""Experiment driver: config precedence, reproducible outputs, exit codes."""

import json
from pathlib import Path

import pytest

from mbasim.cli import (
    EXIT_FAILURES,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    ExperimentConfig,
    load_config,
    main,
    run_campaign,
)
from mbasim.core import encode_payload


def write_config(path: Path, **kw) -> Path:
    target = path / "config.json"
    target.write_text(json.dumps(kw))
    return target


class TestConfigPrecedence:
    def test_file_values_used(self, tmp_path):
        cfg_file = write_config(tmp_path, nodes=7, byzantine=2, trials=3)
        config = load_config(str(cfg_file), {})
        assert (config.nodes, config.byzantine, config.trials) == (7, 2, 3)

    def test_flags_override_file(self, tmp_path):
        cfg_file = write_config(tmp_path, nodes=7, byzantine=2, trials=3)
        config = load_config(str(cfg_file), {"trials": 9, "nodes": None})
        assert config.nodes == 7
        assert config.trials == 9

    def test_defaults_without_file(self):
        config = load_config(None, {})
        assert config.nodes == 4 and config.scenario == "unanimous"

    def test_unknown_keys_rejected(self, tmp_path):
        cfg_file = write_config(tmp_path, nodez=7)
        with pytest.raises(ValueError):
            load_config(str(cfg_file), {})


class TestCampaign:
    def test_four_node_example_summary(self):
        config = ExperimentConfig(
            nodes=4, byzantine=0, components=4,
            scenario="four-node-example", trials=5, seed=3,
        )
        records, summary, _ = run_campaign(config)
        assert summary["failed"] is False
        expected_hex = encode_payload((b"9", b"2", b"8", b"1")).hex()
        assert summary["distinct_outputs"] == [expected_hex]

    def test_unanimous_consistency_counts(self):
        config = ExperimentConfig(
            nodes=7, byzantine=2, components=2,
            adversary="equivocator", trials=20, seed=11,
        )
        records, summary, _ = run_campaign(config)
        assert summary["consistency_failures"] == 0
        assert summary["agreement_failures"] == 0
        assert all(r.consistency for r in records)

    def test_records_are_byte_identical_across_runs(self, tmp_path):
        config = ExperimentConfig(
            nodes=7, byzantine=2, components=3,
            adversary="split_keeper", scenario="ambiguous(3)",
            trials=8, seed=21, out=str(tmp_path / "records.jsonl"),
            report=str(tmp_path / "summary.json"),
        )
        blobs = []
        summaries = []
        for run in range(2):
            records, summary, rows = run_campaign(config)
            from mbasim.cli import write_outputs

            write_outputs(config, records, summary, rows)
            blobs.append(Path(config.out).read_bytes())
            data = json.loads(Path(config.report).read_text())
            data.pop("generated_at")
            summaries.append(data)
        assert blobs[0] == blobs[1]
        assert summaries[0] == summaries[1]
        csv = Path(config.report + ".csv").read_text()
        assert csv.splitlines()[0] == "w,empirical_ccdf,bound_ccdf,margin,verdict"

    def test_step_dump_rows(self, tmp_path):
        config = ExperimentConfig(
            nodes=4, byzantine=1, components=1,
            adversary="equivocator", trials=1, seed=2,
            dump_steps=str(tmp_path / "steps.jsonl"),
        )
        records, summary, rows = run_campaign(config)
        assert rows
        row = rows[0]
        assert set(row) == {"trial", "step_id", "sender", "recipient", "payload_hex", "final"}
        from mbasim.cli import write_outputs

        write_outputs(config, records, summary, rows)
        lines = Path(config.dump_steps).read_text().splitlines()
        assert len(lines) == len(rows)
        assert json.loads(lines[0]) == rows[0]


class TestMain:
    def test_clean_run_exits_zero(self, tmp_path):
        out = tmp_path / "r.jsonl"
        code = main([
            "--nodes", "4", "--byzantine", "1", "--components", "2",
            "--trials", "3", "--seed", "5", "--out", str(out), "--quiet",
        ])
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 3

    def test_usage_error_exit(self):
        assert main(["--scenario", "not-a-scenario!", "--quiet"]) == EXIT_USAGE
        assert main(["--nodes", "5", "--byzantine", "2", "--quiet"]) == EXIT_USAGE
        assert main(["--seed", "-1", "--quiet"]) == EXIT_USAGE
        assert main(["--seed", str(2**64 - 1), "--trials", "2", "--quiet"]) == EXIT_USAGE
        assert main(["--iteration-cap", "-1", "--quiet"]) == EXIT_USAGE
        # names, parameters and sizes the first trial cannot be built from
        assert main(["--adversary", "bogus", "--quiet"]) == EXIT_USAGE
        assert main(["--scenario", "bogus", "--quiet"]) == EXIT_USAGE
        assert main(["--scenario", "split(9)", "--quiet"]) == EXIT_USAGE
        assert main([
            "--scenario", "four-node-example", "--nodes", "7", "--byzantine", "2", "--quiet",
        ]) == EXIT_USAGE
        assert main(["--adversary", "crash_after(1,2)", "--quiet"]) == EXIT_USAGE
        assert main(["--adversary", "silent(3)", "--quiet"]) == EXIT_USAGE
        # scenario parameters the scenario does not take
        small = ["--nodes", "4", "--byzantine", "1", "--components", "2", "--trials", "2"]
        for scenario in ("unanimous(5)", "split(2,9)", "ambiguous(1,2)"):
            assert main([*small, "--quiet", "--scenario", scenario]) == EXIT_USAGE, scenario
        assert main([
            "--scenario", "four-node-example(3)", "--nodes", "4", "--byzantine", "0",
            "--components", "4", "--quiet",
        ]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "fields",
        [{"seed": 1.5}, {"trials": 2.5}, {"adversary": 5}, {"nodes": True}, {"out": 1},
         {"report": 7}],
    )
    def test_config_file_types_checked(self, fields, tmp_path, capsys):
        cfg = write_config(tmp_path, **fields)
        assert main(["--config", str(cfg), "--quiet"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "configuration error" in captured.err
        assert not captured.out

    def test_io_error_exit(self, tmp_path):
        code = main([
            "--trials", "1", "--quiet",
            "--out", str(tmp_path / "missing" / "r.jsonl"),
        ])
        assert code == EXIT_IO

    def test_failure_exit_on_capped_trials(self):
        code = main([
            "--nodes", "7", "--byzantine", "2", "--components", "4",
            "--adversary", "split_keeper", "--scenario", "ambiguous(4)",
            "--trials", "4", "--seed", "0", "--iteration-cap", "1", "--quiet",
        ])
        assert code == EXIT_FAILURES

    def test_config_file_flow(self, tmp_path):
        cfg = write_config(
            tmp_path, nodes=4, byzantine=0, components=4,
            scenario="four-node-example", trials=2,
        )
        assert main(["--config", str(cfg), "--quiet"]) == EXIT_OK
        assert main(["--config", str(tmp_path / "none.json"), "--quiet"]) == EXIT_IO
