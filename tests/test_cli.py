import hashlib
import json
from types import SimpleNamespace

import pytest

from privateyes import cli, protocol
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
from privateyes.protocol import SCHEME_ADAPTIVE_FL, client_wire_id, server_wire_id
from privateyes.simnet import MsgType, Network, overhead_ratio


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


def test_codec_headroom_is_tied_to_client_count(tmp_path, capsys):
    # 84 fraction bits leave headroom for a sum of one value, not of 15.
    ExperimentConfig(f_bits=84, clients=1).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(f_bits=84, clients=15).validate()
    config = tmp_path / "exp.ini"
    config.write_text("[experiment]\nrounds = 1\nclients = 15\n[field]\nf_bits = 84\n")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("config error:")


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
    assert report["abort_phase"] == "opening"


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


def test_zero_rounds_report_is_a_config_error(tmp_path):
    """A report of zero rounds would score the prior alone, with empty
    accuracy cells; it is rejected before any training."""
    out = tmp_path / "r"
    with pytest.raises(ConfigError, match=r"rounds x samples_per_round >= 10 samples, not 0 x"):
        cmd_report(ExperimentConfig(**{**SMALL, "rounds": 0}), out)
    assert not (out / "accuracy.csv").exists()


def test_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nscheme = espresso\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1


def _failure_report(outdir, err):
    report = json.loads((outdir / "report.json").read_text())
    assert report["message"] == err.rstrip("\n") and err.count("\n") == 1
    return report["failure_class"]


def test_config_error_writes_a_failure_report(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nscheme = espresso\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert _failure_report(out, err) == "config"


def test_numerical_failure_writes_a_failure_report(tmp_path, capsys):
    config = tmp_path / "exp.ini"
    config.write_text("[train]\nlr = 1e6\nepochs = 5\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: EncodingRangeError:")
    assert _failure_report(out, err) == "numerical"


@pytest.mark.parametrize("command", ["attack", "report"])
def test_leakage_command_abort_writes_a_failure_report(tmp_path, capsys, command):
    config = write_config(
        tmp_path / "exp.ini",
        extra="[adversary]\ncorrupted_servers = 1\nbehavior = tamper-share\n",
    )
    out = tmp_path / "o"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("protocol abort: the privateyes run aborted in opening:")
    assert _failure_report(out, err) == "protocol"
    report = json.loads((out / "report.json").read_text())
    assert report["scheme"] == "privateyes"
    assert report["abort_reason"] == "mac-failure"
    assert report["abort_phase"] == "opening"
    assert [p.name for p in out.iterdir()] == ["report.json"]


@pytest.mark.parametrize("command", ["bench", "report"])
def test_bench_abort_writes_a_failure_report(tmp_path, capsys, monkeypatch, command):
    def aborted(*args, **kwargs):
        return SimpleNamespace(opened=None, abort_reason="mac-failure", abort_phase="opening")

    monkeypatch.setattr(cli, "run_secure_aggregation", aborted)
    config = write_config(tmp_path / "exp.ini")
    out = tmp_path / "o"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "protocol abort: the n = 2 benchmark round aborted in opening: mac-failure\n"
    assert _failure_report(out, err) == "protocol"
    report = json.loads((out / "report.json").read_text())
    assert (report["abort_reason"], report["abort_phase"]) == ("mac-failure", "opening")
    assert not (out / "bench.csv").exists()


@pytest.mark.parametrize("command,status", [("run", 0), ("attack", 1), ("report", 1)])
def test_leakage_commands_reject_the_mlp_model(tmp_path, capsys, command, status):
    """The probe attacks the linear model only; an MLP run is valid."""
    config = write_config(tmp_path / "exp.ini", extra="[model]\nkind = mlp\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(config), "--out", str(out)]) == status
    if status:
        err = capsys.readouterr().err
        assert err.startswith("config error: the leakage probe attacks the linear model only")
        assert _failure_report(out, err) == "config"
        assert [p.name for p in out.iterdir()] == ["report.json"]


@pytest.mark.parametrize("command,status", [("run", 0), ("attack", 1), ("report", 1)])
def test_leakage_commands_reject_zero_epochs(tmp_path, capsys, command, status):
    """The probe reads gradients off local steps; a run of zero epochs is valid."""
    config = write_config(tmp_path / "exp.ini")
    config.write_text(config.read_text().replace("epochs = 1", "epochs = 0"))
    out = tmp_path / "o"
    assert main([command, "--config", str(config), "--out", str(out)]) == status
    if status:
        err = capsys.readouterr().err
        assert err.startswith("config error: the leakage probe reads gradients off local steps")
        assert _failure_report(out, err) == "config"
        assert [p.name for p in out.iterdir()] == ["report.json"]


@pytest.mark.parametrize("command", ["attack", "report"])
@pytest.mark.parametrize("rounds,samples", [(0, 20), (2, 1), (3, 3)])
def test_leakage_commands_reject_too_few_samples(tmp_path, capsys, monkeypatch, command, rounds,
                                                 samples):
    """The probe scores rounds x samples_per_round samples per client; fewer
    than 10 is a config error, raised before any training."""
    trained = []
    monkeypatch.setattr(cli, "_run_scheme", lambda *args: trained.append(args))
    config = write_config(tmp_path / "exp.ini", extra=f"[data]\nsamples_per_round = {samples}\n")
    config.write_text(config.read_text().replace("rounds = 4", f"rounds = {rounds}"))
    out = tmp_path / "o"
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("config error: the leakage probe needs rounds x samples_per_round >= 10 "
                   f"samples, not {rounds} x {samples}\n")
    assert "Traceback" not in err
    assert _failure_report(out, err) == "config"
    assert [p.name for p in out.iterdir()] == ["report.json"]
    assert trained == []


@pytest.mark.parametrize("target_round", [-1, 3])
def test_out_of_range_target_round_is_a_config_error(tmp_path, capsys, target_round):
    """A deviation scripted for a round the run does not have would never
    fire, and the run would read as honest."""
    config = tmp_path / "exp.ini"
    config.write_text("[experiment]\nrounds = 2\nclients = 3\n[adversary]\ncorrupted_servers = 1\n"
                      f"behavior = tamper-share\ntarget_round = {target_round}\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("config error: target_round must be in [0, rounds = 2] (0 = every round), "
                   f"not {target_round}\n")
    assert "Traceback" not in err
    assert _failure_report(out, err) == "config"


@pytest.mark.parametrize("target_round", [0, 2])
def test_in_range_target_round_fires(tmp_path, target_round):
    """Round 0 means every round; round 2 is the run's last."""
    config = tmp_path / "exp.ini"
    config.write_text("[experiment]\nrounds = 2\nclients = 3\n[adversary]\ncorrupted_servers = 1\n"
                      f"behavior = tamper-share\ntarget_round = {target_round}\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert (report["aborted"], report["abort_reason"]) == (True, "mac-failure")
    assert report["rounds_completed"] == (0 if target_round == 0 else 1)


def _flip_first_byte(payload):
    return bytes([payload[0] ^ 1]) + payload[1:]


@pytest.mark.parametrize("msg_type,round_index,fault,message", [
    (MsgType.OPEN_SHARE, 1, lambda payload: payload[:-1],
     "FieldError: payload is not a vector of 18 field elements"),
    (MsgType.MASK_DELIVERY, 0, _flip_first_byte,
     "KeyShareError: server 0 did not receive its MAC key share intact"),
    (MsgType.BROADCAST_MODEL, 1, _flip_first_byte,
     "FrameError: a client did not receive the round 1 model intact"),
], ids=["truncated-vector", "flipped-key-share", "flipped-model"])
def test_malformed_frames_are_protocol_failures(tmp_path, capsys, monkeypatch, msg_type,
                                                round_index, fault, message):
    class FaultyNetwork(Network):
        def _hooked(self, point, k, endpoints):
            return point == msg_type and k == round_index

        def _mutate(self, msg):
            return msg._replace(payload=fault(msg.payload))

    monkeypatch.setattr(protocol, "Network", FaultyNetwork)
    out = tmp_path / "o"
    assert main(["run", "--config", str(write_config(tmp_path / "exp.ini")),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"protocol failure: {message}\n"
    assert _failure_report(out, err) == "protocol"


def test_single_server_secure_run_completes(tmp_path):
    config = write_config(tmp_path / "exp.ini")
    config.write_text(config.read_text().replace("servers = 3", "servers = 1"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["aborted"] is False
    assert report["rounds_completed"] == 4


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
    # One secure round at d = 1000 against the single-server round's model
    # broadcast and upload: 2 * (24 + 16 * 1000) = 32048 bytes.
    assert lines[1:] == ["2,176744,32048,4.500999", "3,305848,32048,6.501498",
                         "5,661544,32048,10.502496"]


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
    ("model", "d_in = 0"),
    ("model", "hidden = 0"),
    ("adversary", "behavior = foo"),
    ("adversary", "corrupted_clients = 4"),
    ("adversary", "corrupted_clients = -1"),
    ("train", "epochs = -1"),
    ("train", "batch = 0"),
    ("field", "f_bits = 200"),
    ("attack", "steps = 0"),
    ("attack", "alpha = -1"),
    ("attack", "beta = -0.5"),
    ("attack", "gamma = -2"),
    ("data", "samples_per_round = 0"),
    ("data", "heterogeneity = -1"),
    ("data", "sigma_gaze = -0.1"),
    ("data", "sigma_noise = -0.05"),
    ("optimizer", "eta = 0"),
    ("optimizer", "tau = -1"),
    ("optimizer", "beta1 = 1.5"),
    ("optimizer", "beta2 = -0.1"),
    ("experiment", "seed = -1"),
    ("experiment", "cohort_fraction = nan"),
    ("train", "lr = inf"),
    ("optimizer", "eta = nan"),
    ("optimizer", "tau = inf"),
    ("attack", "alpha = nan"),
    ("data", "heterogeneity = nan"),
    ("data", "sigma_gaze = inf"),
    ("experiment", "rounds = -2"),
])
def test_bad_values_are_config_errors(tmp_path, capsys, section, line):
    config = tmp_path / "exp.ini"
    header = "" if section == "experiment" else f"[{section}]\n"
    key = line.split(" = ")[0]
    base = "".join(f"{k} = {v}\n" for k, v in (("rounds", 2), ("clients", 3))
                   if (section, key) != ("experiment", k))
    config.write_text(f"[experiment]\n{base}{header}{line}\n")
    status = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert status == 1
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert _failure_report(tmp_path / "o", err) == "config"
    if key == "rounds":  # named itself, not through the target_round range
        assert err == "config error: rounds must be >= 0, not -2\n"


@pytest.mark.parametrize("command", ["run", "report"])
def test_out_of_memory_is_a_resource_failure(tmp_path, capsys, monkeypatch, command):
    """An allocation the machine cannot make exits 4 with a report, not a
    traceback; the failing allocation is a stand-in, so nothing is allocated."""
    message = "Unable to allocate 1.16 TiB for an array with shape (100000000, 10, 20, 8)"

    def allocation(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "gen_synthetic_population", allocation)
    config = write_config(tmp_path / "exp.ini")
    out = tmp_path / "o"
    assert main([command, "--config", str(config), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == f"resource failure: out of memory: {message}\n"
    assert _failure_report(out, err) == "resource"
    assert [p.name for p in out.iterdir()] == ["report.json"]


@pytest.mark.parametrize("command,text,message", [
    # Every reconstructed sample equals the estimate: the KDE has no covariance.
    ("attack", "[experiment]\nclients = 3\nrounds = 2\n[data]\nsigma_gaze = 0\n",
     "LeakprobeError"),
    # The first round's updates overflow the fixed-point codec.
    ("run", "[train]\nlr = 1e6\nepochs = 5\n", "EncodingRangeError"),
])
def test_numerical_failures_exit_3(tmp_path, capsys, command, text, message):
    config = tmp_path / "exp.ini"
    config.write_text(text)
    status = main([command, "--config", str(config), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert status == 3
    assert err.startswith(f"numerical failure: {message}:")
    assert err.count("\n") == 1
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


def _count_trainings(monkeypatch, log):
    """Record each ``run_training`` call's scheme in the file ``log``, so that
    a forked worker's calls count too; returns a reader of the schemes."""
    original = cli.run_training

    def counted(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(args[3] + "\n")
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "run_training", counted)
    return lambda: log.read_text().split()


SMALL = dict(clients=4, rounds=3, steps=40, seed=2)


def test_report_trains_each_scheme_once(tmp_path, monkeypatch):
    calls = _count_trainings(monkeypatch, tmp_path / "trainings")
    assert cmd_report(ExperimentConfig(**SMALL), tmp_path / "r") == 0
    assert sorted(calls()) == ["adaptive_fl", "datacentre", "privateyes"]


def test_attack_trains_each_scheme_once(tmp_path, monkeypatch):
    calls = _count_trainings(monkeypatch, tmp_path / "trainings")
    assert cmd_attack(ExperimentConfig(**SMALL), tmp_path / "a") == 0
    assert sorted(calls()) == ["adaptive_fl", "datacentre", "privateyes"]
    lines = (tmp_path / "a" / "leakage.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == [
        "datacentre", "adaptive_fl", "privateyes", "mpc"]


# sha256 of the report tables for SMALL, captured when every scheme still
# generated its own population.
PINNED_REPORT_SHA = {
    "accuracy.csv": "e314e59e8741176462b812174f0a52e0418fff630eda7f9317438a80508b4111",
    "leakage.csv": "1dc54cbcfcfe6e28dbc83031d2fd5cee5008f4127bb71b09c20c0e6942628d5f",
    "bench.csv": "99b22445fef9e7346d0e03f357d398fa24795b2ed7e5671be9ec9ca981ae5bc3",
}


def test_report_builds_the_population_once(tmp_path, monkeypatch):
    builds = []
    original = cli.gen_synthetic_population

    def counted(*args, **kwargs):
        builds.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "gen_synthetic_population", counted)
    assert cmd_report(ExperimentConfig(**SMALL), tmp_path / "r") == 0
    assert len(builds) == 1
    for name, digest in PINNED_REPORT_SHA.items():
        assert hashlib.sha256((tmp_path / "r" / name).read_bytes()).hexdigest() == digest


def test_adversary_wire_ids_follow_the_schemes_server_count():
    # adaptive_fl runs one server, so client 0 is wire id 2, not 1 + servers.
    cfg = ExperimentConfig(clients=4, rounds=2, corrupted_clients=1).validate()
    result = cli._run_scheme(cfg, SCHEME_ADAPTIVE_FL, cli._population(cfg))
    view = result.transcript.adversary_view
    assert view
    assert all(client_wire_id(1, 0) in (f["sender"], f["receiver"]) for f in view)
    # Corrupted servers beyond the scheme's own are not parties of its run.
    adversary = ExperimentConfig(corrupted_servers=2).build(1).adversary
    assert adversary.corrupted_servers == {server_wire_id(0)}
