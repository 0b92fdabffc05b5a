"""Exit codes and end-to-end wiring of the command-line tool."""

import argparse
import inspect
import json
import os
import shutil
from dataclasses import asdict

import numpy as np
import pytest

from braidseg.cli import _int_list, build_parser, main
from braidseg.data import generate_dataset, read_pgm
from braidseg.gradcheck import check_model
from braidseg.train import TrainConfig
from configs import TINY as TINY_CFG

TINY = asdict(TINY_CFG)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One shared gen-data + train run for the read-only CLI tests."""
    base = tmp_path_factory.mktemp("cli")
    data = base / "data"
    run = base / "run"
    cfg_path = base / "tiny.json"
    cfg_path.write_text(json.dumps(TINY))
    rc = main(["gen-data", "--out", str(data), "--seed", "3", "--train", "2",
               "--val", "1", "--test", "1", "--size", "16", "--paired"])
    assert rc == 0
    rc = main(["train", "--data", str(data), "--out", str(run),
               "--config", str(cfg_path), "--epochs", "1", "--batch", "2",
               "--lr", "1e-3", "--seed", "0"])
    assert rc == 0
    return {"base": base, "data": data, "run": run, "config": cfg_path,
            "ckpt": run / "checkpoint"}


class TestParsing:
    def test_int_list(self):
        assert _int_list("0,2,5") == [0, 2, 5]
        assert _int_list("") == []
        with pytest.raises(argparse.ArgumentTypeError):
            _int_list("1,x")

    def test_int_list_reaches_ablate_args(self):
        args = build_parser().parse_args(
            ["ablate", "--data", "d", "--out", "o", "--rfin", "0,2"])
        assert args.rfin == [0, 2]
        assert args.dkin == [1, 3, 6]

    def test_train_defaults_are_the_train_config_defaults(self, monkeypatch):
        seen = []

        def stop(cfg):                  # the config train would run, before any data is read
            seen.append(cfg)
            raise ValueError("parsed")

        monkeypatch.setattr(TrainConfig, "validate", stop)
        assert main(["train", "--data", "d", "--out", "o"]) == 1
        assert seen == [TrainConfig()]

    @staticmethod
    def move_defaults(monkeypatch, fn, **new):
        """Give fn other defaults for the parameters named in new."""
        names = [p.name for p in inspect.signature(fn).parameters.values()
                 if p.default is not p.empty]
        defaults = dict(zip(names, fn.__defaults__), **new)
        monkeypatch.setattr(fn, "__defaults__", tuple(defaults[n] for n in names))

    def test_gradcheck_defaults_are_check_model_s(self, monkeypatch):
        self.move_defaults(monkeypatch, check_model, seed=3, h=2e-6, tol=5e-3)
        args = build_parser().parse_args(["gradcheck"])
        assert (args.seed, args.eps, args.tol) == (3, 2e-6, 5e-3)

    def test_gen_data_defaults_are_generate_dataset_s(self, monkeypatch):
        self.move_defaults(monkeypatch, generate_dataset, size=32, domains=("B",))
        args = build_parser().parse_args(["gen-data", "--out", "o"])
        assert (args.size, args.domains) == (32, "B")

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "command is required" in capsys.readouterr().err

    def test_missing_required_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--out", "somewhere"])
        assert exc.value.code == 1

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1


class TestGenData:
    def test_reports_split_counts(self, pipeline, capsys):
        d = pipeline["data"]
        assert os.path.exists(d / "manifest.jsonl")
        rc = main(["gen-data", "--out", str(pipeline["base"] / "d2"),
                   "--seed", "0", "--train", "2", "--val", "0", "--test", "0",
                   "--size", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote 2 samples" in out and "train=2" in out

    def test_bad_domain_is_a_data_error(self, tmp_path, capsys):
        rc = main(["gen-data", "--out", str(tmp_path / "x"), "--train", "1",
                   "--val", "0", "--test", "0", "--size", "16",
                   "--domains", "A,Q"])
        assert rc == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("domains,paired", [(",", False), (",", True), ("A,A", True)])
    def test_empty_or_repeated_domains_are_a_data_error(self, tmp_path, capsys,
                                                        domains, paired):
        rc = main(["gen-data", "--out", str(tmp_path / "x"), "--train", "1",
                   "--val", "0", "--test", "0", "--size", "16",
                   "--domains", domains] + (["--paired"] if paired else []))
        assert rc == 2
        assert "without repeats" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_a_negative_split_count_is_a_data_error(self, tmp_path, capsys):
        rc = main(["gen-data", "--out", str(tmp_path / "x"), "--train", "-3",
                   "--val", "2", "--test", "2", "--size", "32"])
        assert rc == 2
        assert "train sample count must be >= 0, got -3" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_an_existing_file_as_the_output_directory_is_a_data_error(self, tmp_path, capsys):
        """Exit 2 with a message naming the path, not a NotADirectoryError
        traceback."""
        out = tmp_path / "taken"
        out.write_text("")
        rc = main(["gen-data", "--out", str(out), "--train", "1", "--val", "0",
                   "--test", "0", "--size", "16"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "data error" in err and str(out) in err


class TestTrain:
    def test_writes_log_and_checkpoint(self, pipeline):
        run = pipeline["run"]
        assert (run / "loss_log.csv").read_text().startswith("iteration,epoch,lr,loss")
        assert os.path.exists(pipeline["ckpt"] / "meta.json")

    def test_missing_dataset_dir(self, pipeline, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "void"), "--out",
                   str(tmp_path / "o"), "--config", str(pipeline["config"]),
                   "--epochs", "1"])
        assert rc == 2
        assert "manifest" in capsys.readouterr().err

    def test_missing_config_file(self, pipeline, tmp_path):
        rc = main(["train", "--data", str(pipeline["data"]), "--out",
                   str(tmp_path / "o"), "--config", str(tmp_path / "no.json"),
                   "--epochs", "1"])
        assert rc == 2

    def test_unparseable_config_file(self, pipeline, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        rc = main(["train", "--data", str(pipeline["data"]), "--out",
                   str(tmp_path / "o"), "--config", str(bad), "--epochs", "1"])
        assert rc == 2

    @pytest.mark.parametrize("raw", [
        dict(TINY, m=2.7, C_c=8.9), dict(TINY, m="2"), dict(TINY, m=True),
        dict(TINY, m=[2]), [2]], ids=["floats", "string", "bool", "list", "not-object"])
    def test_config_of_wrong_types_is_a_data_error(self, pipeline, tmp_path, capsys, raw):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        rc = main(["train", "--data", str(pipeline["data"]), "--out",
                   str(tmp_path / "o"), "--config", str(bad), "--epochs", "1"])
        assert rc == 2
        assert "object of ints" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_empty_domain_selection(self, pipeline, tmp_path, capsys):
        solo = tmp_path / "solo"
        assert main(["gen-data", "--out", str(solo), "--train", "2", "--val",
                     "0", "--test", "0", "--size", "16", "--domains", "A"]) == 0
        rc = main(["train", "--data", str(solo), "--out", str(tmp_path / "o"),
                   "--config", str(pipeline["config"]), "--epochs", "1",
                   "--domain", "B"])
        assert rc == 2
        assert "no training samples" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--invert-aug", "2"), ("--lr", "nan"),
                                            ("--momentum", "-1"), ("--weight-decay", "-1e-4")])
    def test_an_out_of_range_setting_exits_one(self, pipeline, tmp_path, capsys, flag, value):
        rc = main(["train", "--data", str(pipeline["data"]), "--out", str(tmp_path / "o"),
                   "--config", str(pipeline["config"]), "--epochs", "1", f"{flag}={value}"])
        assert rc == 1
        assert "train config" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag,value,field", [("--weight-decay", "-1e-4", "weight_decay"),
                                                  ("--lr", "-1E-3", "lr0"),
                                                  ("--lr", "-.5e+2", "lr0")])
    def test_a_negative_value_in_exponent_form_reaches_the_range_check(
            self, pipeline, tmp_path, capsys, flag, value, field):
        rc = main(["train", "--data", str(pipeline["data"]), "--out", str(tmp_path / "o"),
                   "--config", str(pipeline["config"]), "--epochs", "1", flag, value])
        assert rc == 1
        assert f"train config: {field} must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestEvalPredict:
    def test_eval_writes_csv_report(self, pipeline, capsys):
        report = pipeline["base"] / "rep" / "scores.csv"
        rc = main(["eval", "--data", str(pipeline["data"]), "--ckpt",
                   str(pipeline["ckpt"]), "--split", "val",
                   "--report", str(report)])
        assert rc == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "class,domain,n,dice_mean_pct,dice_std_pct"
        assert lines[-1].startswith("all,all,2,")
        out = capsys.readouterr().out
        assert "threshold 0.5" in out
        text = (pipeline["base"] / "rep" / "scores.txt").read_text()
        assert text and out.startswith(text)

    def test_eval_empty_selection(self, pipeline, tmp_path, capsys):
        solo = tmp_path / "solo"
        assert main(["gen-data", "--out", str(solo), "--train", "1", "--val",
                     "0", "--test", "0", "--size", "16", "--domains", "A"]) == 0
        rc = main(["eval", "--data", str(solo), "--ckpt",
                   str(pipeline["ckpt"]), "--split", "test",
                   "--report", str(tmp_path / "r.csv")])
        assert rc == 2
        assert "no samples" in capsys.readouterr().err

    def test_eval_missing_checkpoint(self, pipeline, tmp_path):
        rc = main(["eval", "--data", str(pipeline["data"]), "--ckpt",
                   str(tmp_path / "nope"), "--report", str(tmp_path / "r.csv")])
        assert rc == 2

    def test_predict_round_trip(self, pipeline, capsys):
        img = next((pipeline["data"] / "images").iterdir())
        out = pipeline["base"] / "pred.pgm"
        rc = main(["predict", "--ckpt", str(pipeline["ckpt"]), "--image",
                   str(img), "--out", str(out)])
        assert rc == 0
        mask = read_pgm(out)
        assert mask.shape == (16, 16)
        assert set(np.unique(mask)) <= {0, 255}
        assert "foreground" in capsys.readouterr().out

    def test_predict_to_a_directory_is_a_data_error(self, pipeline, tmp_path, capsys):
        """Exit 2 with a message naming the path, not an IsADirectoryError
        traceback."""
        img = next((pipeline["data"] / "images").iterdir())
        out = tmp_path / "taken"
        out.mkdir()
        rc = main(["predict", "--ckpt", str(pipeline["ckpt"]), "--image", str(img),
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "data error" in err and str(out) in err

    def test_predict_missing_image(self, pipeline, tmp_path):
        rc = main(["predict", "--ckpt", str(pipeline["ckpt"]), "--image",
                   str(tmp_path / "nope.pgm"), "--out", str(tmp_path / "o.pgm")])
        assert rc == 2

    def test_predict_non_numeric_pgm_header_is_a_data_error(self, pipeline, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\nab 3\n255\n")
        rc = main(["predict", "--ckpt", str(pipeline["ckpt"]), "--image",
                   str(bad), "--out", str(tmp_path / "o.pgm")])
        assert rc == 2

    def test_predict_negative_pgm_extent_is_a_data_error(self, pipeline, tmp_path):
        bad = tmp_path / "neg.pgm"
        bad.write_bytes(b"P5\n-2 -3\n255\n" + bytes(6))
        rc = main(["predict", "--ckpt", str(pipeline["ckpt"]), "--image",
                   str(bad), "--out", str(tmp_path / "o.pgm")])
        assert rc == 2

    def test_eval_non_string_image_is_a_data_error(self, pipeline, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        rec = {"id": "x", "image": 5, "mask": "m.pgm", "class": "solid",
               "domain": "A", "split": "test"}
        (data / "manifest.jsonl").write_text(json.dumps(rec) + "\n")
        rc = main(["eval", "--data", str(data), "--ckpt", str(pipeline["ckpt"]),
                   "--report", str(tmp_path / "r.csv")])
        assert rc == 2

    @pytest.mark.parametrize("line", ["not json", "5"])
    def test_eval_malformed_manifest_is_a_data_error(self, pipeline, tmp_path, line):
        data = tmp_path / "data"
        data.mkdir()
        (data / "manifest.jsonl").write_text(line + "\n")
        rc = main(["eval", "--data", str(data), "--ckpt", str(pipeline["ckpt"]),
                   "--report", str(tmp_path / "r.csv")])
        assert rc == 2


class TestGradcheckCommand:
    def test_passes_on_a_small_model(self, tmp_path, capsys):
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps(dict(m=1, C=8, C_c=4, C_d=4, heads=2,
                                       x_c=8, x_s=32, window=2,
                                       rfin_count=1, dkin_count=1)))
        rc = main(["gradcheck", "--config", str(cfg)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gradient check passed" in out

    def test_a_nan_gradient_exits_three(self, tmp_path, capsys, nan_relu_backward):
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps(dict(m=1, C=8, C_c=4, C_d=4, heads=2,
                                       x_c=8, x_s=32, window=2,
                                       rfin_count=1, dkin_count=1)))
        rc = main(["gradcheck", "--config", str(cfg)])
        assert rc == 3
        assert "max relative error inf" in capsys.readouterr().out

    def test_impossible_coupling_plan_exits_three(self, tmp_path, capsys):
        bad = dict(TINY, dkin_count=3)     # depth budget m=2 allows at most 2
        cfg = tmp_path / "cycle.json"
        cfg.write_text(json.dumps(bad))
        rc = main(["gradcheck", "--config", str(cfg)])
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--eps", "0"], ["--eps", "-1e-5"], ["--eps", "inf"],
                                       ["--tol", "nan"], ["--tol", "0"]],
                             ids=["eps-0", "eps-negative", "eps-inf", "tol-nan", "tol-0"])
    def test_a_flag_that_would_void_the_gate_exits_one(self, tmp_path, capsys, flags):
        """--eps 0 divided by zero, and --tol nan failed every row in the
        log yet passed the check."""
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps(dict(m=1, C=8, C_c=4, C_d=4, heads=2,
                                       x_c=8, x_s=32, window=2,
                                       rfin_count=1, dkin_count=1)))
        rc = main(["gradcheck", "--config", str(cfg)] + flags)
        captured = capsys.readouterr()
        assert rc == 1
        assert "must be finite and above 0" in captured.err
        assert "gradient check passed" not in captured.out

    def test_an_error_equal_to_tol_fails_as_in_the_log(self, monkeypatch, capsys):
        """A row fails unless its error is below tol, the test the log's
        ok/FAIL column applies."""
        import braidseg.cli as cli
        monkeypatch.setattr(cli, "check_model", lambda cfg, seed, h, tol, log: (
            [("w", 4, tol, 0.0)], tol, 0.0))
        rc = main(["gradcheck", "--tol", "1e-4"])
        assert rc == 3
        assert "gradient check passed" not in capsys.readouterr().out

    @pytest.mark.parametrize("raw,field", [
        ({"heads": 0}, "heads"), ({"C_d": 0}, "C_d"), ({"C_c": 0}, "C_c"),
        ({"C": 0, "heads": 3}, "C"), ({"x_c": 0, "x_s": 0}, "x_c"),
        ({"heads": -3, "C": -96}, "C"),
    ], ids=["heads-0", "C_d-0", "C_c-0", "C-0", "extent-0", "negative"])
    def test_non_positive_size_is_a_data_error(self, tmp_path, capsys, raw, field):
        """Checked before any modulo or allocation, naming the field."""
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        rc = main(["gradcheck", "--config", str(cfg)])
        assert rc == 2
        assert f"config: {field} must be >= 1" in capsys.readouterr().err


class TestUnreadableInputs:
    @pytest.mark.parametrize("case", ["meta.json", "tensor-file", "manifest", "config"])
    def test_a_directory_in_place_of_a_file_is_a_data_error(self, pipeline, tmp_path, capsys,
                                                            case):
        """Exit 2 with a message naming the path, not an IsADirectoryError
        traceback."""
        ckpt = tmp_path / "ckpt"
        shutil.copytree(pipeline["ckpt"], ckpt)
        image = next((pipeline["data"] / "images").iterdir())
        argv = ["predict", "--ckpt", str(ckpt), "--image", str(image),
                "--out", str(tmp_path / "o.pgm")]
        if case == "meta.json":
            victim = ckpt / "meta.json"
        elif case == "tensor-file":
            tensors = json.loads((ckpt / "meta.json").read_text())["tensors"]
            victim = ckpt / tensors[sorted(tensors)[0]]["file"]
        elif case == "manifest":
            victim = tmp_path / "data" / "manifest.jsonl"
            argv = ["train", "--data", str(victim.parent), "--out", str(tmp_path / "run"),
                    "--config", str(pipeline["config"]), "--epochs", "1"]
        else:
            victim = tmp_path / "config.json"
            argv = ["gradcheck", "--config", str(victim)]
        if victim.exists():
            victim.unlink()
        victim.mkdir(parents=True)
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert "data error" in err and str(victim) in err

    @pytest.mark.parametrize("case", ["train-manifest", "eval-meta.json",
                                      "predict-meta.json", "gradcheck-config"])
    def test_an_input_that_is_not_utf8_is_a_data_error(self, pipeline, tmp_path, capsys,
                                                      case):
        """Exit 2 with a message naming the file, not exit 1 with a bare
        codec error."""
        ckpt, data = tmp_path / "ckpt", tmp_path / "data"
        shutil.copytree(pipeline["ckpt"], ckpt)
        shutil.copytree(pipeline["data"], data)
        image = next((data / "images").iterdir())
        victim, argv = {
            "train-manifest": (data / "manifest.jsonl", [
                "train", "--data", str(data), "--out", str(tmp_path / "run"),
                "--config", str(pipeline["config"]), "--epochs", "1"]),
            "eval-meta.json": (ckpt / "meta.json", [
                "eval", "--data", str(data), "--ckpt", str(ckpt),
                "--report", str(tmp_path / "r.csv")]),
            "predict-meta.json": (ckpt / "meta.json", [
                "predict", "--ckpt", str(ckpt), "--image", str(image),
                "--out", str(tmp_path / "o.pgm")]),
            "gradcheck-config": (tmp_path / "config.json", [
                "gradcheck", "--config", str(tmp_path / "config.json")]),
        }[case]
        victim.write_bytes(b"\xff\xfe")
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert "data error" in err and str(victim) in err

    @pytest.mark.parametrize("case", ["gradcheck-config", "train-manifest",
                                      "predict-meta.json"])
    def test_deeply_nested_json_is_a_data_error(self, pipeline, tmp_path, capsys, case):
        """Exit 2, not a RecursionError traceback with exit 1."""
        ckpt, data = tmp_path / "ckpt", tmp_path / "data"
        shutil.copytree(pipeline["ckpt"], ckpt)
        shutil.copytree(pipeline["data"], data)
        image = next((data / "images").iterdir())
        victim, argv = {
            "gradcheck-config": (tmp_path / "config.json", [
                "gradcheck", "--config", str(tmp_path / "config.json")]),
            "train-manifest": (data / "manifest.jsonl", [
                "train", "--data", str(data), "--out", str(tmp_path / "run"),
                "--config", str(pipeline["config"]), "--epochs", "1"]),
            "predict-meta.json": (ckpt / "meta.json", [
                "predict", "--ckpt", str(ckpt), "--image", str(image),
                "--out", str(tmp_path / "o.pgm")]),
        }[case]
        victim.write_text("[" * 100000)
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert "data error" in err and "invalid JSON" in err and str(victim) in err


class TestAblateCommand:
    def test_sweep_writes_tables_with_invalid_cells(self, pipeline, capsys):
        out = pipeline["base"] / "ablation"
        rc = main(["ablate", "--data", str(pipeline["data"]), "--out",
                   str(out), "--config", str(pipeline["config"]),
                   "--rfin", "0", "--dkin", "2,3", "--epochs", "1"])
        assert rc == 0
        csv = (out / "ablation.csv").read_text().splitlines()
        assert csv[0] == "rfin,dkin,mean_dice_pct,status,note"
        rows = {tuple(line.split(",")[:2]) for line in csv[1:]}
        assert rows == {("0", "2"), ("0", "3"), ("0", "0")}
        assert any(",invalid," in line for line in csv)
        assert os.path.exists(out / "ablation.txt")
