"""End-to-end command-line pipeline on a tiny linear victim."""

import json
import subprocess
import sys

import numpy as np
import pytest

import uapaudio
from uapaudio import cli
from uapaudio.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Dataset + trained linear victim shared by the pipeline tests."""
    root = tmp_path_factory.mktemp("cli")
    rc = main(["gen-data", "--classes", "2", "--per-class", "12", "--dim", "256",
               "--test-per-class", "6", "--seed", "0", "--out", str(root / "data")])
    assert rc == 0
    rc = main(["train-victim", "--arch", "linear", "--data", str(root / "data"),
               "--epochs", "40", "--lr", "0.01", "--batch", "8", "--seed", "0",
               "--out", str(root / "victim.uapc")])
    assert rc == 0
    return root


class TestPipeline:
    def test_dataset_artifacts(self, workspace):
        data = workspace / "data"
        assert (data / "manifest.json").exists()
        assert (data / "labels.csv").exists()
        run = json.loads((data / "run.json").read_text())
        assert run["command"] == "gen-data"
        assert run["args"]["classes"] == 2 and "func" not in run["args"]
        assert run["args"]["out"] == "."  # paths are relative to the manifest
        assert run["versions"]["uapaudio"] == uapaudio.__version__

    def test_manifest_records_blas_and_its_thread_variables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        assert main(["gen-data", "--classes", "2", "--per-class", "2", "--dim", "256",
                     "--test-per-class", "1", "--out", str(tmp_path / "d")]) == 0
        run = json.loads((tmp_path / "d" / "run.json").read_text())
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert run["versions"]["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert "/" not in json.dumps(run["versions"])  # no install paths
        assert run["blas_threads"]["OMP_NUM_THREADS"] == "3"
        assert run["blas_threads"]["MKL_NUM_THREADS"] is None
        assert set(run["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}

    def test_train_manifest_reports_accuracy(self, workspace):
        run = json.loads((workspace / "victim.uapc.run.json").read_text())
        assert run["command"] == "train-victim"
        assert (run["args"]["data"], run["args"]["out"]) == ("data", "victim.uapc")
        assert run["result"]["train_accuracy"] >= 0.9
        assert 0.0 <= run["result"]["test_accuracy"] <= 1.0

    def test_craft_greedy_and_evaluate(self, workspace, capsys):
        rc = main(["craft", "--method", "greedy", "--mode", "untargeted",
                   "--model", str(workspace / "victim.uapc"),
                   "--data", str(workspace / "data"),
                   "--seed", "0", "--out", str(workspace / "greedy.uapc")])
        assert rc == 0
        assert "method=greedy" in capsys.readouterr().out
        pert = uapaudio.load_perturbation(workspace / "greedy.uapc")
        assert pert.method == "greedy"
        run = json.loads((workspace / "greedy.uapc.run.json").read_text())
        assert run["result"]["train_asr"] == pert.train_asr

        rc = main(["evaluate", "--model", str(workspace / "victim.uapc"),
                   "--data", str(workspace / "data"),
                   "--pert", str(workspace / "greedy.uapc"),
                   "--report", str(workspace / "report.csv")])
        assert rc == 0
        header = (workspace / "report.csv").read_text().splitlines()[0]
        assert header == "sample_id,clean_pred,perturbed_pred,snr_db,l_db"
        run = json.loads((workspace / "report.csv.run.json").read_text())
        assert run["command"] == "evaluate"
        assert 0.0 <= run["result"]["test_asr"] <= 1.0
        assert run["result"]["samples"] == 12

    def test_craft_penalty(self, workspace):
        rc = main(["craft", "--method", "penalty", "--mode", "untargeted",
                   "--c", "20", "--iters", "40", "--seed", "0",
                   "--model", str(workspace / "victim.uapc"),
                   "--data", str(workspace / "data"),
                   "--out", str(workspace / "penalty.uapc")])
        assert rc == 0
        pert = uapaudio.load_perturbation(workspace / "penalty.uapc")
        assert pert.method == "penalty" and pert.v_tanh is not None
        run = json.loads((workspace / "penalty.uapc.run.json").read_text())
        assert run["result"]["config"]["c"] == 20.0

    def test_sweep_confidence(self, workspace):
        out = workspace / "kappa.csv"
        rc = main(["sweep", "confidence", "--model", str(workspace / "victim.uapc"),
                   "--data", str(workspace / "data"), "--grid", "0,40",
                   "--c", "20", "--iters", "5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kappa,train_asr,test_asr,mean_snr_db,mean_l_db"
        assert len(lines) == 3

    def test_sweep_datacount(self, workspace):
        out = workspace / "mcount.csv"
        rc = main(["sweep", "datacount", "--model", str(workspace / "victim.uapc"),
                   "--data", str(workspace / "data"), "--grid", "4,8",
                   "--c", "20", "--iters", "5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("method,m,")
        assert len(lines) == 5  # two methods x two sizes

    def test_sweep_datacount_iters_caps_greedy(self, workspace, monkeypatch):
        import uapaudio.evaluation as evaluation

        greedy_uap, epochs = evaluation.greedy_uap, []

        def spy(model, x, cfg):
            result = greedy_uap(model, x, cfg)
            epochs.append((cfg.max_epochs, result.iterations))
            return result

        monkeypatch.setattr(evaluation, "greedy_uap", spy)
        rc = main(["sweep", "datacount", "--model", str(workspace / "victim.uapc"),
                   "--data", str(workspace / "data"), "--grid", "4,8",
                   "--c", "20", "--iters", "1", "--out", str(workspace / "mcount1.csv")])
        assert rc == 0
        assert [cap for cap, _ in epochs] == [1, 1]
        assert all(ran <= 1 for _, ran in epochs)

    def test_transfer(self, workspace):
        rc = main(["train-victim", "--arch", "linear", "--data", str(workspace / "data"),
                   "--epochs", "40", "--lr", "0.01", "--batch", "8", "--seed", "1",
                   "--out", str(workspace / "victim2.uapc")])
        assert rc == 0
        out = workspace / "transfer.csv"
        rc = main(["transfer", "--models",
                   f"{workspace / 'victim.uapc'},{workspace / 'victim2.uapc'}",
                   "--data", str(workspace / "data"), "--method", "greedy",
                   "--m", "8", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "source\\victim,victim,victim2"
        assert len(lines) == 3
        run = json.loads((workspace / "transfer.csv.run.json").read_text())
        assert run["args"]["models"] == "victim.uapc,victim2.uapc"

    def test_unconverged_craft_warns(self, workspace, capsys):
        model = str(workspace / "victim.uapc")
        rc = main(["craft", "--method", "penalty", "--mode", "untargeted", "--iters", "1",
                   "--model", model, "--data", str(workspace / "data"),
                   "--out", str(workspace / "stalled.uapc")])
        assert rc == 0
        assert json.loads((workspace / "stalled.uapc.run.json").read_text())["result"]["converged"] is False
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1
        assert "penalty" in warnings[0] and model in warnings[0] and "train_asr=" in warnings[0]

    def test_converged_craft_does_not_warn(self, workspace, capsys):
        rc = main(["craft", "--method", "greedy", "--mode", "targeted", "--target", "1",
                   "--model", str(workspace / "victim.uapc"), "--data", str(workspace / "data"),
                   "--out", str(workspace / "targeted.uapc")])
        assert rc == 0
        assert json.loads((workspace / "targeted.uapc.run.json").read_text())["result"]["converged"] is True
        assert "warning:" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv, warned", [
        (["--method", "penalty"], ["victim.uapc", "victim2.uapc"]),  # library default c stalls
        (["--method", "greedy", "--mode", "targeted", "--target", "1"], []),
        (["--method", "penalty", "--mode", "targeted", "--target", "1"], ["victim.uapc", "victim2.uapc"]),
        (["--method", "penalty", "--mode", "targeted", "--target", "1", "--c", "50"], []),
    ])
    def test_transfer_warns_per_unconverged_source(self, workspace, capsys, argv, warned):
        rc = main(["train-victim", "--arch", "linear", "--data", str(workspace / "data"),
                   "--epochs", "40", "--lr", "0.01", "--batch", "8", "--seed", "1",
                   "--out", str(workspace / "victim2.uapc")])
        assert rc == 0
        capsys.readouterr()
        models = [str(workspace / "victim.uapc"), str(workspace / "victim2.uapc")]
        rc = main(["transfer", "--models", ",".join(models), "--data", str(workspace / "data"),
                   "--out", str(workspace / "warned.csv")] + argv)
        assert rc == 0
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == len(warned)
        for line, name in zip(warnings, warned):
            assert str(workspace / name) in line and argv[1] in line

    def test_ztest_output(self, capsys):
        assert main(["ztest", "--pl", "0.672", "--ph", "0.854", "--m", "874"]) == 0
        out = capsys.readouterr().out
        assert "Z=-8.94" in out and "H0:reject" in out


class TestDeterminism:
    def test_craft_twice_is_byte_identical(self, workspace):
        args = ["craft", "--method", "penalty", "--mode", "untargeted",
                "--c", "20", "--iters", "10", "--seed", "3",
                "--model", str(workspace / "victim.uapc"),
                "--data", str(workspace / "data")]
        assert main(args + ["--out", str(workspace / "rep1.uapc")]) == 0
        assert main(args + ["--out", str(workspace / "rep2.uapc")]) == 0
        assert (workspace / "rep1.uapc").read_bytes() == (workspace / "rep2.uapc").read_bytes()

    def test_gen_data_twice_is_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            rc = main(["gen-data", "--classes", "2", "--per-class", "3", "--dim", "256",
                       "--seed", "7", "--out", str(tmp_path / name)])
            assert rc == 0
        for rel in ("labels.csv", "manifest.json", "train_00_00000.wav"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


class TestParser:
    @pytest.mark.parametrize("argv,expected", [
        (["sweep", "confidence", "--model", "m.uapc", "--data", "d", "--out", "o.csv"],
         {"batch": 100, "c": None, "command": "sweep", "data": "d", "delta": 0.1, "grid": None,
          "iters": 100, "m": None, "mode": "untargeted", "model": "m.uapc", "out": "o.csv",
          "seed": 0, "target": None, "what": "confidence", "func": cli._cmd_sweep}),
        (["transfer", "--models", "a.uapc,b.uapc", "--data", "d", "--out", "t.csv",
          "--method", "greedy", "--mode", "targeted", "--target", "1", "--c", "2.5",
          "--kappa", "4", "--batch", "7", "--iters", "5", "--seed", "3", "--m", "9"],
         {"batch": 7, "c": 2.5, "command": "transfer", "data": "d", "iters": 5, "kappa": 4.0,
          "m": 9, "method": "greedy", "mode": "targeted", "models": "a.uapc,b.uapc",
          "out": "t.csv", "seed": 3, "target": 1, "func": cli._cmd_transfer}),
    ], ids=["sweep-defaults", "transfer-all-flags"])
    def test_parsed_arguments(self, argv, expected):
        # the namespace is what run.json records as the command's args
        assert vars(cli.build_parser().parse_args(argv)) == expected


class TestErrors:
    def test_missing_model_file(self, workspace, capsys):
        rc = main(["evaluate", "--model", str(workspace / "nope.uapc"),
                   "--data", str(workspace / "data"),
                   "--pert", str(workspace / "greedy.uapc"),
                   "--report", str(workspace / "r.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def _evaluate_broken_checkpoint(self, workspace, edit) -> int:
        from uapaudio.container import read_container, write_container

        manifest, blobs = read_container(workspace / "victim.uapc")
        edit(blobs)
        write_container(workspace / "broken.uapc", manifest, blobs)
        return main(["evaluate", "--model", str(workspace / "broken.uapc"),
                     "--data", str(workspace / "data"),
                     "--pert", str(workspace / "greedy.uapc"),
                     "--report", str(workspace / "r.csv")])

    def test_checkpoint_missing_blob(self, workspace, capsys):
        assert self._evaluate_broken_checkpoint(workspace, lambda blobs: blobs.pop("layer1.weight")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "layer1.weight" in err

    def test_checkpoint_truncated_blob(self, workspace, capsys):
        def truncate(blobs):
            blobs["layer1.weight"] = blobs["layer1.weight"].ravel()[:10]

        assert self._evaluate_broken_checkpoint(workspace, truncate) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "layer 1 (dense" in err

    def test_truncated_wav_in_dataset(self, workspace, tmp_path, capsys):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        wav = data / "test_01_00006.wav"
        wav.write_bytes(wav.read_bytes()[:-1])
        rc = main(["evaluate", "--model", str(workspace / "victim.uapc"), "--data", str(data),
                   "--pert", str(workspace / "greedy.uapc"), "--report", str(tmp_path / "r.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "truncated WAV payload" in err

    def test_wav_sample_rate_mismatch_in_dataset(self, workspace, tmp_path, capsys):
        import shutil

        from uapaudio import AudioSample, load_wav, save_wav

        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        wav = data / "test_01_00006.wav"
        save_wav(AudioSample(load_wav(wav).samples, sample_rate=8000), wav)
        rc = main(["evaluate", "--model", str(workspace / "victim.uapc"), "--data", str(data),
                   "--pert", str(workspace / "greedy.uapc"), "--report", str(tmp_path / "r.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "sample rate 8000" in err

    def test_malformed_dataset_manifest(self, workspace, tmp_path, capsys):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        manifest = json.loads((data / "manifest.json").read_text())
        del manifest["dim"]
        (data / "manifest.json").write_text(json.dumps(manifest))
        rc = main(["craft", "--method", "greedy", "--mode", "untargeted",
                   "--model", str(workspace / "victim.uapc"), "--data", str(data),
                   "--out", str(tmp_path / "p.uapc")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "dim" in err

    @pytest.mark.parametrize("argv,message", [
        (["craft", "--method", "greedy", "--mode", "targeted", "--target", "9"], "not a class"),
        (["craft", "--method", "penalty", "--mode", "targeted", "--target", "9"], "not a class"),
        (["craft", "--method", "penalty", "--mode", "targeted", "--target", "-1"], "not a class"),
        (["craft", "--method", "greedy", "--mode", "untargeted", "--target", "1"], "got target 1"),
        (["craft", "--method", "penalty", "--mode", "untargeted", "--target", "1"], "got target 1"),
        (["craft", "--method", "greedy", "--mode", "untargeted", "--xi", "nan"], "xi must"),
        (["craft", "--method", "penalty", "--mode", "untargeted", "--c", "nan"], "c must"),
        (["craft", "--method", "penalty", "--mode", "untargeted", "--c", "inf"], "c must"),
        (["craft", "--method", "penalty", "--mode", "untargeted", "--kappa", "nan"], "kappa must"),
        (["train-victim", "--arch", "linear", "--lr", "nan"], "learning rate"),
        (["train-victim", "--arch", "linear", "--batch", "0"], "batch size"),
        (["train-victim", "--arch", "linear", "--epochs", "0"], "--epochs"),
        (["sweep", "datacount", "--grid", "nan"], "whole number"),
        (["sweep", "datacount", "--grid", "5,inf"], "whole number"),
    ], ids=["greedy-target-9", "penalty-target-9", "penalty-target-minus-1", "greedy-untargeted-target-1",
            "penalty-untargeted-target-1", "xi-nan", "c-nan",
            "c-inf", "kappa-nan", "lr-nan", "batch-0", "epochs-0", "datacount-nan", "datacount-inf"])
    def test_bad_value_exits_2(self, workspace, tmp_path, capsys, argv, message):
        import warnings

        argv = argv + ["--data", str(workspace / "data"), "--out", str(tmp_path / "out")]
        if argv[0] in ("craft", "sweep"):
            argv += ["--model", str(workspace / "victim.uapc")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NumPy RuntimeWarning is not a clean refusal
            rc = main(argv)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("entry", [{"target": "x"}, {"target": 7}, {"xi": -1.0}, {"xi": "wide"},
                                       {"train_asr": "high"}, {"seed": "s"}, {"params": [1.0]},
                                       {"params": {"epsilon": "x"}}, {"params": {"epsilon": 0.5}}],
                             ids=["target-str", "target-7", "xi-negative", "xi-str", "train-asr-str",
                                  "seed-str", "params-list", "epsilon-str", "epsilon-half"])
    def test_bad_perturbation_entry_exits_2(self, workspace, tmp_path, capsys, entry):
        from uapaudio.container import read_container, write_container

        manifest, blobs = read_container(workspace / "greedy.uapc")
        manifest.update(entry, mode="targeted")
        write_container(tmp_path / "p.uapc", manifest, blobs)
        rc = main(["evaluate", "--model", str(workspace / "victim.uapc"),
                   "--data", str(workspace / "data"), "--pert", str(tmp_path / "p.uapc"),
                   "--report", str(tmp_path / "r.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and next(iter(entry)) in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("defect", ["penalty-signal-only", "greedy-tanh-only", "both-vectors", "no-vector"])
    def test_misfiled_perturbation_vector_exits_2(self, workspace, tmp_path, capsys, defect):
        # a file's method follows from the vector it stores; a file that contradicts it is malformed
        from uapaudio.container import read_container, write_container
        from uapaudio.tanhspace import render_signal_v

        source = "greedy" if defect.startswith("greedy") else "penalty"
        manifest, blobs = read_container(workspace / f"{source}.uapc")
        (vector,) = blobs.values()
        blobs = {"penalty-signal-only": {"v_signal": render_signal_v(vector)},
                 "greedy-tanh-only": {"v_tanh": vector},
                 "both-vectors": {"v_signal": render_signal_v(vector), "v_tanh": vector},
                 "no-vector": {}}[defect]
        write_container(tmp_path / "p.uapc", manifest, blobs)
        rc = main(["evaluate", "--model", str(workspace / "victim.uapc"),
                   "--data", str(workspace / "data"), "--pert", str(tmp_path / "p.uapc"),
                   "--report", str(tmp_path / "r.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and ("does not match" in err or "one vector" in err)
        assert not (tmp_path / "r.csv").exists()

    def test_out_of_range_label_in_dataset(self, workspace, tmp_path, capsys):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        labels = (data / "labels.csv").read_text().replace(",1,test", ",-1,test", 1)
        (data / "labels.csv").write_text(labels)
        rc = main(["train-victim", "--arch", "linear", "--data", str(data),
                   "--out", str(tmp_path / "v.uapc")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "label -1" in err
        assert not (tmp_path / "v.uapc").exists()

    def test_invalid_generation_arguments(self, tmp_path, capsys):
        rc = main(["gen-data", "--classes", "1", "--per-class", "3", "--dim", "256",
                   "--out", str(tmp_path / "d")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--test-per-class", "-1"], ["--val-per-class", "-1"],
                                       ["--rate", "0"], ["--rate", "2147483648"]],
                             ids=["test-minus-1", "val-minus-1", "rate-0", "rate-2-31"])
    def test_bad_generation_argument_writes_nothing(self, tmp_path, capsys, flags):
        rc = main(["gen-data", "--classes", "2", "--per-class", "3", "--dim", "256",
                   "--out", str(tmp_path / "d")] + flags)
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "d").exists()

    def test_noise_past_the_tone_headroom_names_the_noise_level(self, tmp_path, capsys):
        rc = main(["gen-data", "--classes", "2", "--per-class", "3", "--dim", "256", "--noise", "0.9",
                   "--out", str(tmp_path / "d")])
        assert rc == 2
        assert capsys.readouterr().err == "error: noise level 0.9 must lie in [0, 0.82]\n"
        assert not (tmp_path / "d").exists()

    def test_directory_as_perturbation_file(self, workspace, tmp_path, capsys):
        rc = main(["evaluate", "--model", str(workspace / "victim.uapc"),
                   "--data", str(workspace / "data"), "--pert", str(tmp_path),
                   "--report", str(tmp_path / "r.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("models", ["victim.uapc,victim.uapc", "victim.uapc,./victim.uapc"],
                             ids=["same-spelling", "dot-slash"])
    def test_transfer_refuses_one_model_file_twice(self, workspace, tmp_path, capsys, monkeypatch, models):
        # both would craft one perturbation twice and report its self-attack rate as a transfer rate
        monkeypatch.chdir(workspace)
        out = tmp_path / "t.csv"
        rc = main(["transfer", "--models", models, "--data", "data", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "twice" in err
        assert list(tmp_path.iterdir()) == []

    def test_bad_sweep_grid(self, workspace, capsys):
        rc = main(["sweep", "confidence", "--model", str(workspace / "victim.uapc"),
                   "--data", str(workspace / "data"), "--grid", "0,forty",
                   "--out", str(workspace / "bad.csv")])
        assert rc == 2
        assert "bad grid" in capsys.readouterr().err

    def test_degenerate_ztest(self, capsys):
        assert main(["ztest", "--pl", "0", "--ph", "0", "--m", "10"]) == 2
        assert "error:" in capsys.readouterr().err


def test_module_entry_point_version():
    proc = subprocess.run([sys.executable, "-m", "uapaudio.cli", "--version"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"uapaudio {uapaudio.__version__}"
