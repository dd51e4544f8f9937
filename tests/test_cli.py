import json
import math
import re

import numpy as np
import pytest

from localscores import (
    BoltzmannModel,
    ConditionalModel,
    RngStream,
    exact_log_z,
    load_model,
    normalize,
    read_edge_list,
    read_samples,
    save_model,
)
from localscores.cli import ingest_optdigits, inject_label_noise, main, read_feature_csv
from localscores.errors import InputError
from localscores.reports import format_record, parse_record


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def seeded_bm(dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    wt = rng.standard_normal((dim, dim)) * scale
    w = (wt + wt.T) / 2
    np.fill_diagonal(w, 0.0)
    return BoltzmannModel.from_matrix(w)


class TestRecords:
    def test_round_trip(self):
        line = format_record(record="eval", log_loss=1.25, method="exact")
        parsed = parse_record(line)
        assert parsed["record"] == "eval"
        assert float(parsed["log_loss"]) == 1.25


class TestUndecodableFiles:
    @pytest.mark.parametrize("reader, content", [
        (read_samples, b"# space hypercube 2 seed 0\n+1 \xff1\n"),
        (read_edge_list, b"space labels 3\n0 \xff\n"),
        (load_model, b'{"kind": "\xff"}'),
        (read_feature_csv, b"1.0,2.0,0\n\xff,1\n"),
    ])
    def test_readers_raise_input_error_naming_the_file(self, tmp_path, reader, content):
        path = tmp_path / "bad.txt"
        path.write_bytes(content)
        with pytest.raises(InputError, match=re.escape(f"{path}: not a text file")):
            reader(path)

    def test_eval_exits_2(self, capsys, tmp_path):
        model_path = tmp_path / "m.json"
        save_model(seeded_bm(2, 0), model_path)
        samples = tmp_path / "bad.txt"
        samples.write_bytes(b"# space hypercube 2 seed 0\n+1 \xff1\n")
        code, _, err = run(capsys, "eval", "--model", str(model_path), "--test", str(samples))
        assert code == 2
        assert err.startswith(f"error: {samples}: not a text file")


class TestGraphCommand:
    def test_ps_radius1_not_guaranteed(self, capsys):
        code, out, _ = run(
            capsys, "graph", "--space", "hypercube:2", "--radius", "1", "--potential", "ps:1"
        )
        assert code == 0
        assert "coincidence NOT guaranteed; G0' components: 2" in out
        record = parse_record(out.splitlines()[0])
        assert record["guaranteed"] == "False"
        assert record["g0prime_components"] == "2"

    def test_ps_radius2_guaranteed(self, capsys):
        code, out, _ = run(
            capsys, "graph", "--space", "hypercube:2", "--radius", "2", "--potential", "ps:1"
        )
        assert code == 0
        assert "coincidence guaranteed" in out

    def test_blocks_cover_failure(self, capsys):
        code, out, _ = run(capsys, "graph", "--space", "hypercube:3", "--blocks", "1;2")
        assert code == 0
        assert "cover fails; disconnected" in out

    def test_blocks_with_rank_condition(self, capsys):
        code, out, _ = run(
            capsys, "graph", "--space", "hypercube:3", "--blocks", "1;2,3",
            "--potential", "mcl",
        )
        assert code == 0
        record = parse_record(out.splitlines()[0])
        assert record["rank_condition"] == "False"
        assert record["guaranteed"] == "False"

    @pytest.mark.parametrize("argv", [
        ["--space", "hypercube:4", "--radius", "1"],
        ["--space", "hypercube:4", "--radius", "2"],
        ["--space", "hypercube:4", "--radius", "1", "--y0", "0,3,5,6"],
        ["--space", "labels:7", "--radius", "2"],
        ["--space", "labels:7", "--radius", "1", "--y0", "0,6"],
        ["--space", "hypercube:3", "--blocks", "1;2,3"],
        ["--space", "hypercube:4", "--blocks", "1,2;3"],
    ])
    def test_records_match_pairwise_oracle(self, capsys, monkeypatch, argv):
        from test_graphs import oracle_diagnose

        import localscores.cli

        for potential in ("pl", "ps:1", "mcl"):
            fast = run(capsys, "graph", *argv, "--potential", potential)
            with monkeypatch.context() as patch:
                patch.setattr(localscores.cli, "diagnose", oracle_diagnose)
                assert run(capsys, "graph", *argv, "--potential", potential) == fast

    @pytest.mark.parametrize("blocks", ["1;2", "1;2,3", "1,2;3"])
    def test_potential_block_lists_name_the_same_system(self, capsys, blocks):
        # the verdict is for the family's own blocks, not a radius-1 graph
        from_flag = run(capsys, "graph", "--space", "hypercube:3", "--blocks", blocks,
                        "--potential", "mcl")
        from_spec = run(capsys, "graph", "--space", "hypercube:3", "--potential", f"mcl:{blocks}")
        assert from_flag[0] == from_spec[0] == 0
        flag_record, spec_record = (parse_record(r[1].splitlines()[0]) for r in (from_flag, from_spec))
        assert spec_record.pop("potential") == f"mcl:{blocks}"
        assert flag_record.pop("potential") == "mcl"
        assert spec_record == flag_record and "rank_condition" in spec_record

    def test_export(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        code, _, _ = run(
            capsys, "graph", "--space", "hypercube:2", "--radius", "1", "--export", str(path)
        )
        assert code == 0
        assert path.read_text().splitlines()[0] == "space hypercube 2"

    def test_parse_failure_exits_2(self, capsys):
        code, _, err = run(capsys, "graph", "--space", "torus:3", "--radius", "1")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv, named", [
        (["--space", "hypercube:3"], "radius"),
        (["--space", "hypercube:3", "--radius", "1", "--potential", "mcl:1;2"], "radius"),
        (["--space", "hypercube:3", "--blocks", "1;2", "--potential", "mcl:1,2,3"], "blocks"),
        (["--space", "hypercube:3", "--blocks", "1;2", "--radius", "2"], "radius"),
        (["--space", "labels:4", "--blocks", "1;2"], "hypercube"),
        (["--space", "hypercube:2", "--radius", "1", "--y0", "a"], "--y0"),
    ])
    def test_conflicting_system_settings_exit_2(self, capsys, argv, named):
        code, _, err = run(capsys, "graph", *argv)
        assert code == 2
        assert err.startswith("error: ") and named in err


class TestSampleAndEval:
    def test_sample_exact_deterministic(self, capsys, tmp_path):
        model_path = tmp_path / "m.json"
        save_model(seeded_bm(3, 0), model_path)
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        for out in (out1, out2):
            code, _, _ = run(
                capsys, "sample", "--model", str(model_path), "--n", "200",
                "--out", str(out), "--seed", "5",
            )
            assert code == 0
        assert out1.read_text() == out2.read_text()

    def test_sample_gibbs_and_eval_exact(self, capsys, tmp_path):
        model = seeded_bm(3, 1, scale=0.5)
        model_path = tmp_path / "m.json"
        save_model(model, model_path)
        samples = tmp_path / "s.txt"
        code, _, _ = run(
            capsys, "sample", "--model", str(model_path), "--n", "500",
            "--out", str(samples), "--sampler", "gibbs", "--seed", "2",
        )
        assert code == 0
        space, idx, seed = read_samples(samples)
        assert space.spec_string() == "hypercube:3" and len(idx) == 500 and seed == 2

        code, out, _ = run(
            capsys, "eval", "--model", str(model_path), "--test", str(samples),
            "--logz", "exact",
        )
        assert code == 0
        record = parse_record(out.splitlines()[0])
        assert float(record["log_z"]) == pytest.approx(exact_log_z(model), rel=1e-12)

    def test_eval_zero_model_uniform_loss(self, capsys, tmp_path):
        model_path = tmp_path / "m.json"
        save_model(BoltzmannModel.zeros(8), model_path)
        samples = tmp_path / "s.txt"
        run(capsys, "sample", "--model", str(model_path), "--n", "50", "--out", str(samples))
        code, out, _ = run(
            capsys, "eval", "--model", str(model_path), "--test", str(samples)
        )
        record = parse_record(out.splitlines()[0])
        assert float(record["log_loss"]) == pytest.approx(8 * math.log(2), rel=1e-9)

    def test_sample_refuses_a_conditional_model(self, capsys, tmp_path):
        # used to end in a bare AttributeError traceback and exit 1
        model_path = tmp_path / "cond.json"
        save_model(ConditionalModel.zeros(3, 2), model_path)
        code, out, err = run(
            capsys, "sample", "--model", str(model_path), "--n", "5", "--out", str(tmp_path / "s.txt")
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "per feature vector" in err

    @pytest.mark.parametrize("dim", [8, 12])
    @pytest.mark.parametrize("command", ["eval", "fit"])
    def test_test_file_of_another_space_refused(self, capsys, tmp_path, command, dim):
        # a D=10 model used to score a hypercube:8 file, and a hypercube:12
        # file holding indices 0-49, as points of its own space, with exit 0
        from localscores import SampleSpace, write_samples

        test = tmp_path / "test.txt"
        write_samples(test, SampleSpace.hypercube(dim), np.arange(50), seed=0)
        model_path = tmp_path / "m.json"
        save_model(BoltzmannModel.zeros(10), model_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "score": "pl", "space": "hypercube:10", "model": "boltzmann",
            "train": {"model": str(model_path), "n": 50}, "test": str(test),
            "fit": {"max_iterations": 2},
        }))
        argv = {
            "eval": ["eval", "--model", str(model_path), "--test", str(test)],
            "fit": ["fit", "--config", str(cfg_path)],
        }[command]
        code, out, err = run(capsys, *argv)
        assert code == 2 and "log_loss" not in out
        assert err.startswith("error: ") and f"hypercube:{dim} does not match hypercube:10" in err

    def test_eval_ais_close_to_exact(self, capsys, tmp_path):
        model = seeded_bm(6, 77)
        model_path = tmp_path / "m.json"
        save_model(model, model_path)
        samples = tmp_path / "s.txt"
        run(capsys, "sample", "--model", str(model_path), "--n", "100", "--out", str(samples))
        code, out, _ = run(
            capsys, "eval", "--model", str(model_path), "--test", str(samples),
            "--logz", "ais", "--ais-temperatures", "400", "--ais-chains", "80", "--seed", "3",
        )
        assert code == 0
        record = parse_record(out.splitlines()[0])
        assert abs(float(record["log_z"]) - exact_log_z(model)) < 0.1
        assert 1.0 <= float(record["ais_ess"]) <= 80.0

    def test_eval_ais_ess_is_the_chain_count_at_zero_coupling(self, capsys, tmp_path):
        model_path = tmp_path / "m.json"
        save_model(BoltzmannModel.zeros(5), model_path)
        samples = tmp_path / "s.txt"
        run(capsys, "sample", "--model", str(model_path), "--n", "20", "--out", str(samples))
        code, out, _ = run(
            capsys, "eval", "--model", str(model_path), "--test", str(samples),
            "--logz", "ais", "--ais-temperatures", "20", "--ais-chains", "37",
        )
        assert code == 0
        record = parse_record(out.splitlines()[0])
        assert list(record)[:5] == ["record", "method", "log_z", "log_z_se", "ais_ess"]
        assert float(record["ais_ess"]) == 37.0


class TestFitCommand:
    def test_fit_from_synthetic_source(self, capsys, tmp_path):
        true_model = seeded_bm(3, 4, scale=0.6)
        true_path = tmp_path / "true.json"
        save_model(true_model, true_path)
        out_model = tmp_path / "fit.json"
        report = tmp_path / "report.txt"
        config = {
            "score": "pl",
            "space": "hypercube:3",
            "radius": 1,
            "model": "boltzmann",
            "train": {"model": str(true_path), "n": 20000, "sampler": "exact"},
            "seed": 11,
            "out_model": str(out_model),
            "report": str(report),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code, out, _ = run(capsys, "fit", "--config", str(cfg_path))
        assert code == 0
        fitted = load_model(out_model)
        assert np.max(np.abs(fitted.upper - true_model.upper)) < 0.15
        lines = report.read_text().splitlines()
        assert lines[0].startswith("record=config")
        assert any(line.startswith("record=fit_summary") for line in lines)
        assert any(line.startswith("record=trace") for line in lines)

    def test_fit_is_deterministic(self, capsys, tmp_path):
        true_path = tmp_path / "true.json"
        save_model(seeded_bm(3, 5, scale=0.5), true_path)
        outs = []
        for tag in ("a", "b"):
            out_model = tmp_path / f"fit_{tag}.json"
            cfg = {
                "score": "rm",
                "space": "hypercube:3",
                "radius": 1,
                "model": "boltzmann",
                "train": {"model": str(true_path), "n": 5000, "sampler": "exact"},
                "seed": 9,
                "out_model": str(out_model),
            }
            cfg_path = tmp_path / f"cfg_{tag}.json"
            cfg_path.write_text(json.dumps(cfg))
            assert run(capsys, "fit", "--config", str(cfg_path))[0] == 0
            outs.append(out_model.read_text())
        assert outs[0] == outs[1]

    def test_set_override(self, capsys, tmp_path):
        true_path = tmp_path / "true.json"
        save_model(seeded_bm(3, 6, scale=0.5), true_path)
        cfg = {
            "score": "pl",
            "space": "hypercube:3",
            "radius": 1,
            "model": "boltzmann",
            "train": {"model": str(true_path), "n": 1000, "sampler": "exact"},
            "seed": 1,
            "fit": {"max_iterations": 3},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, _ = run(
            capsys, "fit", "--config", str(cfg_path), "--set", "score=rm",
            "--set", 'fit={"max_iterations": 2}',
        )
        assert code == 0
        summary = next(l for l in out.splitlines() if "record=fit_summary" in l)
        assert int(parse_record(summary)["iterations"]) <= 2
        # the evaluation counts trail the keys the record always had
        assert list(parse_record(summary)) == [
            "record", "objective", "grad_norm", "iterations", "converged",
            "evaluations", "gradients",
        ]

    def test_tabular_mle_matches_frequencies(self, capsys, tmp_path):
        from localscores import SampleSpace, write_samples

        samples_path = tmp_path / "s.txt"
        write_samples(samples_path, SampleSpace.label_range(3), [0, 0, 1, 2], seed=0)
        out_model = tmp_path / "tab.json"
        report = tmp_path / "report.txt"
        cfg = {
            "objective": "mle",
            "space": "labels:3",
            "model": "tabular",
            "train": str(samples_path),
            "out_model": str(out_model),
            "report": str(report),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(capsys, "fit", "--config", str(cfg_path))[0] == 0
        fitted = load_model(out_model)
        assert np.allclose(normalize(fitted).weights, [0.5, 0.25, 0.25], atol=1e-6)
        # an mle fit reads no score, so its config record names none
        config = parse_record(report.read_text().splitlines()[0])
        assert config["record"] == "config" and config["objective"] == "mle"
        assert "score" not in config

    def small_fit_config(self, tmp_path):
        """A valid hypercube:3 fit config with a test file, for --set overrides."""
        from localscores import SampleSpace, write_samples

        true_path = tmp_path / "true.json"
        save_model(seeded_bm(3, 6, scale=0.5), true_path)
        test_path = tmp_path / "test.txt"
        write_samples(test_path, SampleSpace.hypercube(3), [0, 1, 2, 3], seed=0)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "score": "pl", "space": "hypercube:3", "radius": 1, "model": "boltzmann",
            "train": {"model": str(true_path), "n": 50, "sampler": "exact"},
            "test": str(test_path), "seed": 1, "fit": {"max_iterations": 3},
        }))
        return cfg_path

    @pytest.mark.parametrize("case, named", [
        ("other space", "sample file space hypercube:5 does not match hypercube:4"),
        ("malformed row", "test.txt:3: "),
        ("header only", "test.txt: no test samples"),
        ("not enumerable", "requires an enumerable space"),
        ("feature width", "test.csv: feature dimension does not match the model"),
    ])
    def test_bad_test_file_refused_before_the_fit(self, capsys, tmp_path, case, named):
        # the test file used to be read after the fit, which was then lost
        from localscores import SampleSpace, write_samples

        dim = 17 if case == "not enumerable" else 4
        train, test = tmp_path / "train.txt", tmp_path / "test.txt"
        write_samples(train, SampleSpace.hypercube(dim), np.arange(16), seed=0)
        cfg = {"score": "pl", "space": f"hypercube:{dim}", "model": "boltzmann", "train": str(train),
               "test": str(test), "out_model": str(tmp_path / "out.json"),
               "report": str(tmp_path / "report.txt"), "fit": {"max_iterations": 2}}
        if case == "other space":
            write_samples(test, SampleSpace.hypercube(5), np.arange(20), seed=0)
        elif case == "malformed row":
            test.write_text("# space hypercube 4 seed 0\n+1 -1 +1 -1\n+1 -1 +1\n")
        elif case == "header only":
            test.write_text("# space hypercube 4 seed 0\n")
        elif case == "not enumerable":
            write_samples(test, SampleSpace.hypercube(dim), np.arange(5), seed=0)
        else:
            train, test = tmp_path / "train.csv", tmp_path / "test.csv"
            train.write_text("1.0,2.0,1\n0.5,0.25,0\n")
            test.write_text("1.0,2.0,3.0,1\n")
            cfg.update(score="mcl", space="labels:2", model="conditional", train=str(train),
                       test=str(test))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "fit", "--config", str(cfg_path))
        assert code == 2 and "record=fit_summary" not in out
        assert err.startswith("error: ") and named in err
        assert not (tmp_path / "out.json").exists() and not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("override, named", [
        ("radius=10", "radius-10 neighborhood at D=62 needs 131746962837 masks"),
        ("score=cl:1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21", "needs 2097151 masks"),
    ])
    def test_neighborhood_too_large_exits_2(self, capsys, tmp_path, override, named):
        from localscores import SampleSpace, write_samples

        train = tmp_path / "train.txt"
        write_samples(train, SampleSpace.hypercube(62), np.arange(16), seed=0)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"score": "pl", "space": "hypercube:62", "model": "boltzmann",
                                        "train": str(train), "fit": {"max_iterations": 2}}))
        code, out, err = run(capsys, "fit", "--config", str(cfg_path), "--set", override)
        assert code == 2 and "record=fit_summary" not in out
        assert err.startswith("error: ") and named in err

    def test_valid_overrides_fit(self, capsys, tmp_path):
        cfg_path = self.small_fit_config(tmp_path)
        code, out, _ = run(
            capsys, "fit", "--config", str(cfg_path), "--set", "radius=2", "--set", "n_train=5",
            "--set", "n_test=2", "--set", "seed=3", "--set", 'fit={"max_iterations": 2}',
        )
        assert code == 0 and "record=test_metrics" in out

    @pytest.mark.parametrize("override, named", [
        ('fit={"max_iteration": 10}', "max_iteration"),  # unknown FitConfig field
        ("fit=[1]", "fit"),
        ('radius="x"', "radius"),
        ('n_train="5"', "n_train"),
        ("radius=0", "radius"),  # would fit radius 1
        ("radius=true", "radius"),  # would fit radius 1
        ("n_train=-1", "n_train"),  # would drop the last sample
        ("n_test=-1", "n_test"),  # would drop the last test sample
        ("seed=a", "seed"),  # would print seed=a
        ("space=5", "space"),  # AttributeError
        ("score=5", "score"),  # AttributeError
        ('fit={"gradient_tolerance": "x"}', "gradient_tolerance"),  # TypeError
        ('train={"model": "true.json", "n": "x"}', "train.n"),  # ValueError from int()
        ('train={"model": "true.json", "n": 5, "stream": "a"}', "train.stream"),
        ('train={"n": 5}', "train.model"),  # KeyError
        pytest.param(("blocks=5", "score=cl"), "blocks", id="blocks=5 score=cl"),  # AttributeError
        ("out_model=1", "out_model"),  # would write the model to file descriptor 1
        ("report=1", "report"),  # would write the report to file descriptor 1
        ("test=1", "test"),  # would read samples from file descriptor 1
        ("blocks=1,2", "blocks"),  # ignored by the pl score
        pytest.param(("blocks=1,2", "score=mcl:1;2,3"), "blocks", id="blocks=1,2 score=mcl:1;2,3"),
        # the block family would ignore the radius
        pytest.param(("score=mcl:1,2;3", "radius=3"), "radius", id="score=mcl:1,2;3 radius=3"),
        # an mle fit would ignore the score and the radius
        pytest.param(("objective=mle",), "score", id="objective=mle score"),
        pytest.param(("objective=mle", "radius=3"), "radius", id="objective=mle radius=3"),
        pytest.param(("objective=mle", "score=cl"), "score", id="objective=mle score=cl"),
    ])
    def test_bad_override_exits_2(self, capsys, tmp_path, override, named):
        cfg_path = self.small_fit_config(tmp_path)
        overrides = (override,) if isinstance(override, str) else override
        sets = [arg for item in overrides for arg in ("--set", item)]
        code, _, err = run(capsys, "fit", "--config", str(cfg_path), *sets)
        assert code == 2
        assert err.startswith("error: ") and named in err

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"space": "labels:3", "train": "x", "bogus": 1}))
        assert run(capsys, "fit", "--config", str(cfg_path))[0] == 2

    def test_missing_file_exits_2(self, capsys):
        assert run(capsys, "fit", "--config", "/nonexistent.json")[0] == 2


class TestCheckCommand:
    def test_default_suite_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--trials", "40", "--seed", "0")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("record=check ")]
        assert len(lines) >= 15
        assert all("verdict=pass" in l for l in lines)
        assert "coincidence_ps_radius1" not in out

    def test_known_failure_fails(self, capsys):
        code, out, _ = run(capsys, "check", "coincidence_ps_radius1", "--trials", "40")
        assert code == 1
        assert "verdict=fail" in out

    def test_expect_fail_rescues_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "check", "coincidence_ps_radius1", "--trials", "40",
            "--expect-fail", "coincidence_ps_radius1",
        )
        assert code == 0
        assert "verdict=fail" in out

    def test_unknown_name_exits_2(self, capsys):
        assert run(capsys, "check", "not_a_check")[0] == 2

    def test_all_includes_demonstrations(self, capsys):
        code, out, _ = run(
            capsys, "check", "--all", "--trials", "30",
            "--expect-fail", "coincidence_ps_radius1",
        )
        assert code == 0
        assert "coincidence_ps_radius1" in out

    @pytest.mark.parametrize("argv", [
        ["--all"],
        ["coincidence_ps_radius1", "--expect-fail", "coincidence_ps_radius1"],
    ])
    def test_every_record_line_parses(self, capsys, argv):
        code, out, _ = run(capsys, "check", "--trials", "30", *argv)
        records = [parse_record(line) for line in out.splitlines()]
        assert {r["record"] for r in records} == {"check", "check_suite"}
        ps_radius1 = next(r for r in records if r.get("name") == "coincidence_ps_radius1")
        assert float(ps_radius1["counterexample[rescaled-2-components]"]) <= 1e-12
        assert ps_radius1["verdict"] == "fail"


def write_digits_csv(path, rows):
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")


class TestIngest:
    def test_binarize_rule(self, tmp_path):
        src = tmp_path / "digits.csv"
        rows = [[0, 5] + [0] * 62 + [3], [16, 0] + [1] * 62 + [7]]
        write_digits_csv(src, rows)
        feats, labels = ingest_optdigits(src, [0, 1], binarize=True)
        assert feats.tolist() == [[-1, 1], [1, -1]]
        assert labels.tolist() == [3, 7]

    def test_no_binarize_keeps_values(self, tmp_path):
        src = tmp_path / "digits.csv"
        write_digits_csv(src, [[4, 9] + [0] * 62 + [1]])
        feats, _ = ingest_optdigits(src, [0, 1], binarize=False)
        assert feats.tolist() == [[4, 9]]

    def test_feature_index_out_of_range(self, tmp_path):
        src = tmp_path / "digits.csv"
        write_digits_csv(src, [[1, 2, 0]])
        with pytest.raises(Exception, match="feature index"):
            ingest_optdigits(src, [7], binarize=True)

    def test_malformed_row_reports_line(self, tmp_path):
        src = tmp_path / "digits.csv"
        src.write_text("1,2,3\n1,x,3\n")
        with pytest.raises(Exception, match=":2"):
            ingest_optdigits(src, [0], binarize=False)

    @pytest.mark.parametrize("text, match", [
        ("1,2,3\n1,2,3,4,5\n", ":2: malformed row"),  # ragged: would keep label 5
        ("1,2,3\n1,2.5,3\n", "features must be integers"),
    ])
    def test_refused_rows(self, tmp_path, text, match):
        src = tmp_path / "digits.csv"
        src.write_text(text)
        with pytest.raises(InputError, match=match):
            ingest_optdigits(src, [0, 1], binarize=False)

    def test_noise_exact_count(self):
        labels = np.zeros(100, dtype=np.int64)
        noisy = inject_label_noise(labels, 0.13, RngStream(3))
        # exactly floor(0.13*100) positions resampled uniformly over 0..9;
        # a resample may coincide with the original label
        assert np.count_nonzero(noisy != labels) <= 13
        chosen = inject_label_noise(np.full(1000, -1), 0.25, RngStream(4))
        assert np.count_nonzero(chosen != -1) == 250

    @pytest.mark.parametrize("features", ["a", "0,x", "1,,2"])
    def test_unparsable_feature_list_exits_2(self, capsys, tmp_path, features):
        # used to end in a bare ValueError traceback
        src = tmp_path / "digits.csv"
        write_digits_csv(src, [[1, 2, 0]])
        code, out, err = run(
            capsys, "ingest", "--input", str(src), "--out", str(tmp_path / "o.csv"),
            "--features", features,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "--features takes comma-separated" in err

    def test_cli_round_trip(self, capsys, tmp_path):
        src = tmp_path / "digits.csv"
        rows = [[0, 5, 16] + [0] * 61 + [i % 10] for i in range(20)]
        write_digits_csv(src, rows)
        out = tmp_path / "prepared.csv"
        code, _, _ = run(
            capsys, "ingest", "--input", str(src), "--out", str(out),
            "--features", "0,1,2", "--binarize", "--noise", "0.1", "--seed", "0",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 20
        assert lines[0].split(",")[:3] == ["-1", "1", "1"]


class TestClassifyAndConditionalFit:
    def make_csv(self, path, n=200, seed=0, num_labels=4):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, num_labels, size=n)
        centers = np.eye(num_labels) * 4.0
        x = centers[labels] + rng.normal(size=(n, num_labels))
        rows = [list(np.round(x[i], 4)) + [int(labels[i])] for i in range(n)]
        path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")

    def test_conditional_fit_classify(self, capsys, tmp_path):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        self.make_csv(train, seed=1)
        self.make_csv(test, seed=2)
        out_model = tmp_path / "cond.json"
        cfg = {
            "score": "mcl",
            "space": "labels:4",
            "radius": 1,
            "model": "conditional",
            "train": str(train),
            "test": str(test),
            "out_model": str(out_model),
            "fit": {"l2_penalty": 1e-3},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "fit", "--config", str(cfg_path))
        assert code == 0
        metrics = next(l for l in out.splitlines() if "record=test_metrics" in l)
        record = parse_record(metrics)
        assert float(record["log_loss"]) < math.log(4)
        assert float(record["error"]) < 0.2

        code, out, _ = run(
            capsys, "classify", "--model", str(out_model), "--data", str(test), "--labeled"
        )
        assert code == 0
        lines = out.splitlines()
        preds = [int(t) for t in lines[:-1]]
        assert len(preds) == 200
        assert float(parse_record(lines[-1])["error"]) < 0.2

    def test_classify_requires_conditional_model(self, capsys, tmp_path):
        model_path = tmp_path / "bm.json"
        save_model(BoltzmannModel.zeros(2), model_path)
        data = tmp_path / "d.csv"
        data.write_text("1,2,0\n")
        assert run(capsys, "classify", "--model", str(model_path), "--data", str(data))[0] == 2

    @pytest.mark.parametrize("command", ["classify", "eval"])
    def test_ragged_feature_rows_exit_2(self, capsys, tmp_path, command):
        model_path = tmp_path / "cond.json"
        save_model(ConditionalModel.zeros(3, 2), model_path)
        data = tmp_path / "ragged.csv"
        data.write_text("1,2,0\n1,2,3,1\n")
        flag = "--data" if command == "classify" else "--test"
        code, _, err = run(capsys, command, "--model", str(model_path), flag, str(data))
        assert code == 2
        assert err.startswith("error: ") and "ragged.csv:2: malformed row" in err

    @pytest.mark.parametrize("command", ["classify", "eval"])
    def test_too_wide_features_exit_2(self, capsys, tmp_path, command):
        model_path = tmp_path / "cond.json"
        save_model(ConditionalModel.zeros(3, 2), model_path)
        data = tmp_path / "wide.csv"
        data.write_text("1,2,3,0\n4,5,6,1\n")
        flag = "--data" if command == "classify" else "--test"
        code, _, err = run(capsys, command, "--model", str(model_path), flag, str(data))
        assert code == 2
        assert err.startswith("error: ") and "feature dimension does not match" in err


class TestSeedEnvironment:
    def test_env_var_supplies_default_seed(self, capsys, tmp_path, monkeypatch):
        model_path = tmp_path / "m.json"
        save_model(seeded_bm(2, 0), model_path)
        monkeypatch.setenv("LOCALSCORES_SEED", "123")
        out1 = tmp_path / "a.txt"
        code, _, _ = run(
            capsys, "sample", "--model", str(model_path), "--n", "50", "--out", str(out1)
        )
        assert code == 0
        monkeypatch.delenv("LOCALSCORES_SEED")
        out2 = tmp_path / "b.txt"
        run(
            capsys, "sample", "--model", str(model_path), "--n", "50",
            "--out", str(out2), "--seed", "123",
        )
        assert out1.read_text() == out2.read_text()

    def test_bad_env_var_exits_2(self, capsys, tmp_path, monkeypatch):
        model_path = tmp_path / "m.json"
        save_model(seeded_bm(2, 0), model_path)
        monkeypatch.setenv("LOCALSCORES_SEED", "abc")
        code, _, _ = run(
            capsys, "sample", "--model", str(model_path), "--n", "5",
            "--out", str(tmp_path / "x.txt"),
        )
        assert code == 2


class TestExitCodeContract:
    """Exit 1 is reserved for failed checks: a refused setting or input
    exits 2 with one `error:` line, never with a traceback."""

    @staticmethod
    def write_inputs(tmp_path):
        from localscores import SampleSpace, write_samples

        save_model(seeded_bm(3, 6, scale=0.5), tmp_path / "bm.json")
        save_model(ConditionalModel.zeros(2, 2), tmp_path / "cond.json")
        (tmp_path / "bad.json").write_text('{"kind": "boltzmann", "D": 3}')
        (tmp_path / "nan.csv").write_text("1.0,2.0,1\n1.0,nan,0\n")
        write_samples(tmp_path / "test.txt", SampleSpace.hypercube(3), [0, 1, 2], seed=0)
        (tmp_path / "cfg.json").write_text(json.dumps({
            "score": "pl", "space": "hypercube:3", "model": "boltzmann",
            "train": {"model": str(tmp_path / "bm.json"), "n": 50}, "fit": {"max_iterations": 3},
        }))

    @pytest.mark.parametrize("argv, env_seed", [
        ("sample --model {d}/bm.json --n 5 --out {d}/s.txt --seed -1", None),
        ("sample --model {d}/bm.json --n 5 --out {d}/s.txt --stream -1", None),
        ("sample --model {d}/bm.json --n 5 --out {d}/s.txt", "-1"),
        ("check properness_pl", "-1"),
        ("check --trials -1", None),
        ("eval --model {d}/bm.json --test {d}/test.txt --logz ais --seed -1", None),
        ("fit --config {d}/cfg.json --set seed=-1", None),
        ("fit --config {d}/cfg.json", "-1"),
        ('fit --config {d}/cfg.json --set train={"model":"{d}/bm.json","n":5,"stream":-1}', None),
        ("fit --config {d}/cfg.json --set score=dp:nan", None),
        ('fit --config {d}/cfg.json --set fit={"armijo_c":0.1}', None),
        ("eval --model {d}/bad.json --test {d}/test.txt", None),
        ("classify --model {d}/cond.json --data {d}/nan.csv", None),
    ])
    def test_refusals_exit_2(self, capsys, tmp_path, monkeypatch, argv, env_seed):
        self.write_inputs(tmp_path)
        if env_seed is not None:
            monkeypatch.setenv("LOCALSCORES_SEED", env_seed)
        code, _, err = run(capsys, *argv.replace("{d}", str(tmp_path)).split())
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


class TestNonFiniteFeatures:
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["eval", "classify", "fit"])
    def test_refused_at_their_line(self, capsys, tmp_path, command, cell):
        # a nan feature used to give log_loss=nan, or labels and an error rate, with exit 0
        data = tmp_path / "x.csv"
        data.write_text(f"1.0,2.0,1\n0.5,{cell},0\n")
        model_path = tmp_path / "cond.json"
        save_model(ConditionalModel.zeros(2, 2), model_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "score": "mcl", "space": "labels:2", "model": "conditional", "train": str(data),
        }))
        argv = {
            "eval": ["eval", "--model", str(model_path), "--test", str(data)],
            "classify": ["classify", "--model", str(model_path), "--data", str(data), "--labeled"],
            "fit": ["fit", "--config", str(cfg_path)],
        }[command]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and f"{data}:2: malformed row" in err


class TestMalformedModelFiles:
    @pytest.mark.parametrize("content", [
        '{"kind": "boltzmann", "D": 3}',
        "[1, 2]",
        '{"kind": "boltzmann", "D": "x", "upper": [0, 0, 0]}',
        '{"kind": "tabular", "space": "labels:4", "eta": "abcd"}',
        # counts that `int()` used to truncate or convert: D=2.5 loaded as D=2
        '{"kind": "boltzmann", "D": 2.5, "upper": [0.1]}',
        '{"kind": "boltzmann", "D": "2", "upper": [0.1]}',
        '{"kind": "boltzmann", "D": true, "upper": []}',
        '{"kind": "conditional", "L": 2.9, "d": 1, "theta": [[1], [2]]}',
        '{"kind": "conditional", "L": 2, "d": "1", "theta": [[1], [2]]}',
        # dimensions outside the hypercube rule (1..62)
        '{"kind": "boltzmann", "D": 0, "upper": []}',
        '{"kind": "boltzmann", "D": 63, "upper": [%s]}' % ", ".join(["0"] * (63 * 62 // 2)),
    ], ids=["no-upper", "a-list", "D-not-a-number", "eta-a-string", "D-fractional", "D-a-string",
            "D-a-bool", "L-fractional", "d-a-string", "D-zero", "D-past-62"])
    def test_eval_exits_2_naming_the_file(self, capsys, tmp_path, content):
        from localscores import SampleSpace, write_samples

        model_path = tmp_path / "m.json"
        model_path.write_text(content)
        test = tmp_path / "test.txt"
        write_samples(test, SampleSpace.hypercube(3), [0, 1], seed=0)
        with pytest.raises(InputError, match=re.escape(str(model_path))):
            load_model(model_path)
        code, _, err = run(capsys, "eval", "--model", str(model_path), "--test", str(test))
        assert code == 2
        assert err.startswith(f"error: {model_path}: ")
        code, _, err = run(capsys, "sample", "--model", str(model_path), "--n", "5",
                           "--out", str(tmp_path / "out.txt"))
        assert code == 2 and err.startswith(f"error: {model_path}: ")
        assert not (tmp_path / "out.txt").exists()
