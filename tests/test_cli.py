import json
import math

import numpy as np
import pytest

from localscores import (
    BoltzmannModel,
    ConditionalModel,
    RngStream,
    exact_log_z,
    load_model,
    normalize,
    read_samples,
    save_model,
)
from localscores.cli import ingest_optdigits, inject_label_noise, main
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
        cfg = {
            "score": "pl",
            "objective": "mle",
            "space": "labels:3",
            "model": "tabular",
            "train": str(samples_path),
            "out_model": str(out_model),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(capsys, "fit", "--config", str(cfg_path))[0] == 0
        fitted = load_model(out_model)
        assert np.allclose(normalize(fitted).weights, [0.5, 0.25, 0.25], atol=1e-6)

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

    def test_noise_exact_count(self):
        labels = np.zeros(100, dtype=np.int64)
        noisy = inject_label_noise(labels, 0.13, RngStream(3))
        # exactly floor(0.13*100) positions resampled uniformly over 0..9;
        # a resample may coincide with the original label
        assert np.count_nonzero(noisy != labels) <= 13
        chosen = inject_label_noise(np.full(1000, -1), 0.25, RngStream(4))
        assert np.count_nonzero(chosen != -1) == 250

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
