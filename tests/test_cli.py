import json

import numpy as np
import pytest

from bcwave.cli import main
from bcwave.config import (
    ALL_STAGES,
    RunConfig,
    SpectralOptions,
    parse_config,
    write_config,
)
from bcwave.errors import ConfigError
from bcwave.pipeline import run_pipeline

MINIMAL = '{"potential": {"kind": "gaussian", "amplitude": 1.0}, "T": 1.0, "n": 16}'


def test_parse_minimal_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.T == 1.0 and cfg.n == 16
    assert cfg.stages == ALL_STAGES
    assert cfg.out == "out" and cfg.sign == "derived" and cfg.seed == 0
    assert cfg.spectral.half_length == 4.0
    assert cfg.spectral.bc == (1.0, 0.0, 1.0, 0.0)
    assert cfg.spectral.cutoff == 400 and cfg.spectral.mesh == 2048


@pytest.mark.parametrize("text,needle", [
    ('{"potential": {}, "T": 1, "n": 16, "bogus": 1}', "bogus"),
    ('{"potential": {}, "T": 1, "n": 16, "spectral": {"NN": 4}}', "NN"),
    ('{"potential": {"kind": "gaussian", "amp": 2}, "T": 1, "n": 16}', "amp"),
])
def test_unknown_keys_rejected_by_name(text, needle):
    with pytest.raises(ConfigError, match=needle):
        cfg = parse_config(text)
        if cfg.potential is not None:  # potential params checked on build
            from bcwave.potentials import potential_from_config
            potential_from_config(cfg.potential)


def test_round_trip_identity():
    cfg = parse_config(MINIMAL)
    again = parse_config(write_config(cfg))
    assert again == cfg
    custom = RunConfig(T=0.5, n=32,
                       potential={"kind": "sech2", "amplitude": 2.0},
                       spectral=SpectralOptions(3.0, (0.0, 1.0, 0.0, 1.0),
                                                50, 512),
                       stages=("kernels", "response"), out="x",
                       sign="paper", seed=7)
    assert parse_config(write_config(custom)) == custom


def test_required_and_exclusive_fields():
    with pytest.raises(ConfigError, match="'T'"):
        parse_config('{"potential": {}, "n": 16}')
    with pytest.raises(ConfigError):
        parse_config('{"T": 1, "n": 16}')  # neither input
    with pytest.raises(ConfigError):
        parse_config('{"potential": {}, "response_csv": "r.csv", '
                     '"T": 1, "n": 16}')
    with pytest.raises(ConfigError):
        parse_config('{"potential": {}, "T": 1, "n": 4}')
    with pytest.raises(ConfigError, match="stage"):
        parse_config('{"potential": {}, "T": 1, "n": 16, '
                     '"stages": ["warp"]}')
    with pytest.raises(ConfigError, match="sign"):
        parse_config('{"potential": {}, "T": 1, "n": 16, "sign": "up"}')


def test_response_csv_drops_forward_stages():
    cfg = parse_config('{"response_csv": "r.csv", "T": 1, "n": 16}')
    assert cfg.stages == ("connect", "krein", "gl")
    with pytest.raises(ConfigError, match="kernels"):
        parse_config('{"response_csv": "r.csv", "T": 1, "n": 16, '
                     '"stages": ["kernels", "krein"]}')


def test_selftest_passes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "krein.q_rel_error" in out and "FAIL" not in out
    assert (tmp_path / "selftest_out" / "report.json").exists()


def test_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"potential": {}, "T": 1, "n": 16, "bogus": 1}')
    assert main(["krein", "--config", str(bad)]) == 2
    assert "bogus" in capsys.readouterr().err
    assert main(["krein", "--config", str(tmp_path / "missing.json")]) == 2


def test_inverse_only_from_csv(tmp_path, monkeypatch, capsys):
    # forward run to produce a response file
    fwd = tmp_path / "fwd.json"
    fwd.write_text(json.dumps({
        "potential": {"kind": "gaussian", "amplitude": 1.0, "width": 0.3},
        "T": 1.0, "n": 64, "out": str(tmp_path / "fwd_out")}))
    assert main(["response", "--config", str(fwd)]) == 0
    # a directory holding only the response CSV
    iso = tmp_path / "iso"
    iso.mkdir()
    (iso / "response.csv").write_bytes(
        (tmp_path / "fwd_out" / "response.csv").read_bytes())
    inv = tmp_path / "inv.json"
    inv.write_text(json.dumps({
        "response_csv": str(iso / "response.csv"),
        "T": 1.0, "n": 64, "out": str(tmp_path / "inv_out")}))
    assert main(["roundtrip", "--config", str(inv)]) == 0
    report = json.loads((tmp_path / "inv_out" / "report.json").read_text())
    names = [s["name"] for s in report["stages"]]
    assert "kernels" not in names and "krein" in names and "gl" in names
    metrics = {s["name"]: s["metrics"] for s in report["stages"]}
    # no true potential is available on this route, so only internal
    # diagnostics are reported
    assert "q_rel_error" not in metrics["krein"]
    assert metrics["krein"]["valid_fraction"] > 0.9
    assert metrics["krein"]["max_solver_residual"] < 1e-8
    assert metrics["gl"]["operator_identity_residual"] < 1e-2
    assert metrics["gl"]["krein_gl_agreement"] < 0.07


def test_serial_runs_byte_identical(tmp_path, monkeypatch):
    base = {"potential": {"kind": "gaussian", "amplitude": 1.0,
                          "width": 0.3},
            "T": 1.0, "n": 32, "stages": ["kernels", "response", "krein"],
            "out": "out"}
    outputs = []
    for tag in ("a", "b"):
        cwd = tmp_path / tag
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        run_pipeline(parse_config(json.dumps(base)))
        blob = b"".join(p.read_bytes()
                        for p in sorted((cwd / "out").iterdir()))
        outputs.append(blob)
    assert outputs[0] == outputs[1]


def test_paper_sign_and_seed_overrides(tmp_path, capsys):
    c = tmp_path / "c.json"
    c.write_text(json.dumps({
        "potential": {"kind": "gaussian", "amplitude": 1.0, "width": 0.3,
                      "center": 0.3},
        "T": 1.0, "n": 32, "out": str(tmp_path / "o1")}))
    assert main(["gl", "--config", str(c), "--paper-sign", "--seed", "3",
                 "--out", str(tmp_path / "o2")]) in (0, 1)
    report = json.loads((tmp_path / "o2" / "report.json").read_text())
    assert report["config"]["sign"] == "paper"
    assert report["config"]["seed"] == 3
    assert not (tmp_path / "o1").exists()
