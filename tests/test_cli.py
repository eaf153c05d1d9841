import json

import pytest

from privateyes import cli
from privateyes.cli import (
    ConfigError,
    ExperimentConfig,
    cmd_attack,
    cmd_bench,
    cmd_report,
    load_config,
    main,
    measure_communication,
)
from privateyes.simnet import overhead_ratio


def write_config(path, extra=""):
    path.write_text(
        "[experiment]\n"
        "seed = 3\n"
        "rounds = 4\n"
        "clients = 5\n"
        "servers = 3\n"
        "scheme = privateyes\n"
        "[train]\n"
        "epochs = 1\n"
        "lr = 0.2\n"
        + extra
    )
    return path


def test_load_config_defaults_and_sections(tmp_path):
    cfg = load_config(write_config(tmp_path / "exp.ini"))
    assert cfg.seed == 3
    assert cfg.rounds == 4
    assert cfg.clients == 5
    assert cfg.eta == 0.1  # default survives
    assert cfg.scheme == "privateyes"


def test_env_overrides(tmp_path):
    cfg = load_config(
        write_config(tmp_path / "exp.ini"),
        environ={"PRIVATEYES_EXPERIMENT_SEED": "99", "PRIVATEYES_TRAIN_LR": "0.5"},
    )
    assert cfg.seed == 99
    assert cfg.lr == 0.5


def test_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nscheme = espresso\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    unknown = tmp_path / "unknown.ini"
    unknown.write_text("[experiment]\nwat = 1\n")
    with pytest.raises(ConfigError):
        load_config(unknown)
    nonnum = tmp_path / "nonnum.ini"
    nonnum.write_text("[experiment]\nseed = many\n")
    with pytest.raises(ConfigError):
        load_config(nonnum)


def test_corrupted_server_bounds():
    cfg = ExperimentConfig(corrupted_servers=3, servers=3)
    with pytest.raises(ConfigError):
        cfg.validate()
    ExperimentConfig(corrupted_servers=2, servers=3).validate()


def test_run_writes_artifacts(tmp_path):
    config = write_config(tmp_path / "exp.ini")
    out = tmp_path / "out"
    status = main(["run", "--config", str(config), "--out", str(out)])
    assert status == 0
    lines = (out / "round_metrics.csv").read_text().splitlines()
    assert len(lines) == 5  # header + 4 rounds
    assert lines[0].startswith("round,test_mae_deg")
    assert all(line.endswith(",0") for line in lines[1:])
    report = json.loads((out / "report.json").read_text())
    assert report["aborted"] is False
    assert report["bytes"]["dealer"] > 0
    assert (out / "transcript.ndjson").exists()


def test_run_abort_exit_code_and_truncated_csv(tmp_path):
    config = write_config(
        tmp_path / "exp.ini",
        extra="[adversary]\ncorrupted_servers = 1\nbehavior = tamper-share\ntarget_round = 3\n",
    )
    out = tmp_path / "out"
    status = main(["run", "--config", str(config), "--out", str(out)])
    assert status == 2
    lines = (out / "round_metrics.csv").read_text().splitlines()
    assert len(lines) == 4  # header + rounds 1..3
    assert lines[-1].endswith(",1")
    report = json.loads((out / "report.json").read_text())
    assert report["aborted"] is True
    assert report["abort_reason"] == "mac-failure"


def test_zero_rounds_header_only(tmp_path):
    config = write_config(tmp_path / "exp.ini", extra="")
    text = config.read_text().replace("rounds = 4", "rounds = 0")
    config.write_text(text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    lines = (out / "round_metrics.csv").read_text().splitlines()
    assert lines == [lines[0]]
    report = json.loads((out / "report.json").read_text())
    assert len(report["final_model"]) == 18


def test_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nscheme = espresso\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1


def test_determinism_byte_identical(tmp_path):
    config = write_config(tmp_path / "exp.ini")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(config), "--out", str(out2)]) == 0
    for name in ("round_metrics.csv", "report.json", "transcript.ndjson"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_mpc_cost_only_scheme(tmp_path):
    config = write_config(tmp_path / "exp.ini")
    config.write_text(config.read_text().replace("scheme = privateyes", "scheme = mpc_cost_only"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert 2.5e7 <= report["generic_mpc_values_per_iteration"] <= 3.5e7


def test_measure_communication_ratio_band():
    secure, baseline = measure_communication(3, 1000)
    ratio = overhead_ratio(secure, baseline)
    assert 6.0 <= ratio <= 8.0


def test_bench_csv(tmp_path):
    cfg = ExperimentConfig()
    out = tmp_path / "bench"
    assert cmd_bench(cfg, out) == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0] == "n_servers,secure_bytes,baseline_bytes,ratio"
    assert len(lines) == 4


def test_attack_subcommand(tmp_path):
    config = write_config(tmp_path / "exp.ini")
    config.write_text(config.read_text().replace("rounds = 4", "rounds = 3"))
    out = tmp_path / "out"
    assert main(["attack", "--config", str(config), "--out", str(out)]) == 0
    lines = (out / "leakage.csv").read_text().splitlines()
    assert lines[0] == "scheme,mae_deg,kl"
    assert len(lines) == 5  # four schemes
    report = json.loads((out / "attack_report.json").read_text())
    assert report["datacentre"]["mean_kl"] == 0.0


@pytest.mark.parametrize("section,line", [
    ("model", "kind = cnn"),
    ("adversary", "behavior = foo"),
    ("train", "epochs = -1"),
    ("train", "batch = 0"),
    ("field", "f_bits = 200"),
    ("attack", "steps = 0"),
    ("attack", "alpha = -1"),
    ("attack", "beta = -0.5"),
    ("attack", "gamma = -2"),
    ("data", "samples_per_round = 0"),
])
def test_bad_values_are_config_errors(tmp_path, capsys, section, line):
    config = tmp_path / "exp.ini"
    config.write_text(f"[experiment]\nrounds = 2\nclients = 3\n[{section}]\n{line}\n")
    status = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert status == 1
    assert err.startswith("config error:")
    assert "Traceback" not in err


def test_passive_corrupted_server_run_exits_zero(tmp_path):
    config = write_config(tmp_path / "exp.ini",
                          extra="[adversary]\ncorrupted_servers = 1\n")
    config.write_text(config.read_text().replace("rounds = 4", "rounds = 3"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["aborted"] is False
    assert report["rounds_completed"] == 3


def _count_trainings(monkeypatch):
    calls = []
    original = cli.run_training

    def counted(*args, **kwargs):
        calls.append(args[3])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "run_training", counted)
    return calls


SMALL = dict(clients=4, rounds=3, steps=40, seed=2)


def test_report_trains_each_scheme_once(tmp_path, monkeypatch):
    calls = _count_trainings(monkeypatch)
    assert cmd_report(ExperimentConfig(**SMALL), tmp_path / "r") == 0
    assert sorted(calls) == ["adaptive_fl", "datacentre", "privateyes"]


def test_attack_trains_each_scheme_once(tmp_path, monkeypatch):
    calls = _count_trainings(monkeypatch)
    assert cmd_attack(ExperimentConfig(**SMALL), tmp_path / "a") == 0
    assert sorted(calls) == ["adaptive_fl", "datacentre", "privateyes"]
    lines = (tmp_path / "a" / "leakage.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == [
        "datacentre", "adaptive_fl", "privateyes", "mpc"]
