import dataclasses
import json

import numpy as np
import pytest

from bcwave import cli
from bcwave.cli import main
from bcwave.config import (
    ALL_STAGES,
    RunConfig,
    SpectralOptions,
    memory_estimate,
    parse_config,
)
from bcwave.errors import ConfigError
from bcwave.goursat import solve_kernels
from bcwave.grid import UniformGrid
from bcwave.pipeline import run_pipeline
from bcwave.potentials import GaussianPotential
from bcwave.response import response_matrix

from oracles import write_config

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
    # and each malformed value, named by what is wrong
    ('{"potential": {}, "T": 1, "n": 16', "invalid JSON"),
    ('[{"potential": {}, "T": 1, "n": 16}]', "JSON object"),
    ('{"potential": 3, "T": 1, "n": 16}', "'potential' must be an object"),
    ('{"potential": {}, "T": 1, "n": "64.5"}', "'n' must be an integer"),
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


@pytest.mark.parametrize("text,token", [
    ('{"potential": {"kind": "gaussian", "amplitude": NaN}, "T": 1, "n": 16}',
     "NaN"),
    ('{"potential": {"kind": "gaussian"}, "T": 1e999, "n": 16}', "1e999"),
    ('{"potential": {"kind": "gaussian"}, "T": 1, "n": 16, '
     '"spectral": {"N": -Infinity}}', "-Infinity"),
    ('{"potential": {"kind": "gaussian"}, "T": 1, "n": 16, '
     '"spectral": {"bc": [1, 0, Infinity, 0]}}', "Infinity"),
])
def test_non_finite_numbers_rejected(text, token):
    with pytest.raises(ConfigError, match="non-finite number '%s'" % token):
        parse_config(text)


@pytest.mark.parametrize("text,key", [
    ('{"potential": {"kind": "gaussian"}, "T": "nan", "n": 16}', "'T'"),
    ('{"potential": {"kind": "gaussian"}, "T": 1%s, "n": 16}' % ("0" * 400),
     "'T'"),
    ('{"potential": {"kind": "gaussian", "amplitude": "inf"}, "T": 1, '
     '"n": 16}', "'potential.amplitude'"),
    ('{"potential": {"kind": "gaussian"}, "T": 1, "n": "nan"}', "'n'"),
    ('{"potential": {"kind": "gaussian"}, "T": 1, "n": 16, '
     '"seed": 1%s}' % ("0" * 400), "'seed'"),
    ('{"potential": {"kind": "gaussian"}, "T": 1, "n": 16, '
     '"spectral": {"cutoff": "-inf"}}', "'spectral.cutoff'"),
    ('{"potential": {"kind": "tabulated", "x": [-1, 0, 1, "nan"], '
     '"q": [0, 0, 0, 0]}, "T": 1, "n": 16}', "'potential.x'"),
    ('{"potential": {"kind": "gaussian"}, "T": 1, "n": 64.7}', "'n'"),
    ('{"potential": {"kind": "gaussian"}, "T": 1, "n": 16, "seed": 2.5}',
     "'seed'"),
    ('{"potential": {"kind": "gaussian"}, "T": 1, "n": 16, '
     '"spectral": {"cutoff": 40.9}}', "'spectral.cutoff'"),
    ('{"potential": {"kind": "gaussian"}, "T": true, "n": 16}', "'T'"),
    ('{"potential": {"kind": "gaussian"}, "T": 1, "n": false}', "'n'"),
    ('{"potential": {"kind": "gaussian"}, "T": 1, "n": 16, "seed": true}',
     "'seed'"),
    ('{"potential": {"kind": "gaussian"}, "T": 1, "n": 16, '
     '"spectral": {"bc": [true, false, 1, 0]}}', "'spectral.bc'"),
    ('{"potential": {"kind": "gaussian"}, "T": 1, "n": 16, '
     '"spectral": {"cutoff": true}}', "'spectral.cutoff'"),
    ('{"potential": {"kind": "gaussian", "amplitude": true}, "T": 1, '
     '"n": 16}', "'potential.amplitude'"),
    ('{"potential": {"kind": "tabulated", "x": [-1, 0, 1, 2], '
     '"q": [0, true, 0, 0]}, "T": 1, "n": 16}', "'potential.q'"),
], ids=["T_nan_string", "T_big_int", "amplitude_inf_string", "n_nan_string",
        "seed_big_int", "cutoff_inf_string", "tabulated_nan_string",
        "n_fraction", "seed_fraction", "cutoff_fraction", "T_bool", "n_bool",
        "seed_bool", "bc_bool", "cutoff_bool", "amplitude_bool",
        "tabulated_bool"])
def test_coerced_numbers_must_be_finite(tmp_path, capsys, text, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text[:-1] + ', "out": %s}' % json.dumps(str(tmp_path)))
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


def test_integral_floats_accepted_as_integers():
    cfg = parse_config('{"potential": {}, "T": 1, "n": 64.0, "seed": 2.0, '
                       '"spectral": {"cutoff": 40.0}}')
    values = (cfg.n, cfg.seed, cfg.spectral.cutoff)
    assert values == (64, 2, 40) and all(type(v) is int for v in values)


@pytest.mark.parametrize("spectral,needle", [
    ('{"cutoff": 0}', "cutoff"),
    ('{"cutoff": -5}', "cutoff"),
    ('{"mesh": 513, "cutoff": 40}', "even"),
    ('{"mesh": 512, "cutoff": 256}', "mesh/2"),
    ('{"N": 0}', "spectral.N"),
    ('{"N": -4}', "spectral.N"),
    ('{"bc": [0, 0, 1, 0]}', "spectral.bc"),
    ('{"bc": [1, 0, 0.0, -0.0]}', "spectral.bc"),
    ('3', "'spectral' must be an object"),
    ('{"bc": [1, 0, 1]}', "spectral.bc must have 4 entries"),
], ids=["cutoff_zero", "cutoff_negative", "mesh_odd", "cutoff_half_mesh",
        "N_zero", "N_negative", "bc_left_zero", "bc_right_zero",
        "not_an_object", "bc_three_entries"])
def test_spectral_options_rejected_at_parse(tmp_path, capsys, spectral,
                                            needle):
    text = ('{"potential": {"kind": "gaussian"}, "T": 1, "n": 16, '
            '"spectral": %s}' % spectral)
    with pytest.raises(ConfigError, match=needle):
        parse_config(text)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text[:-1] + ', "out": %s}' % json.dumps(str(tmp_path)))
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("text", [
    '{"potential": {"kind": "gaussian"}, "T": 1, "n": 1000000000000000000, '
    '"stages": ["kernels"]}',
    '{"response_csv": "r.csv", "T": 1, "n": 1000000000000000000}',
    '{"potential": {"kind": "gaussian"}, "T": 1, "n": 16, '
    '"spectral": {"mesh": 1000000000000000}}',
], ids=["kernels_n", "inverse_n", "spectral_mesh"])
def test_over_memory_budget_exits_2(tmp_path, capsys, text):
    # each config is rejected before anything is allocated or read
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    cfg.write_text(text[:-1] + ', "out": %s}' % json.dumps(str(out)))
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "physical memory" in err
    assert not out.exists()


def test_memory_estimate_terms():
    cfg = parse_config(MINIMAL)
    n, spec = cfg.n, cfg.spectral
    kernels = 2 * (2 * n + 1) ** 2 * 8
    inverse = 7 * (2 * n + 2) ** 2 * 8
    spectral = 4 * spec.cutoff * (spec.mesh + 1) * 8
    assert memory_estimate(cfg) == kernels + inverse + spectral
    cfg = dataclasses.replace(cfg, stages=("kernels", "response"))
    assert memory_estimate(cfg) == kernels


def test_response_csv_drops_forward_stages():
    cfg = parse_config('{"response_csv": "r.csv", "T": 1, "n": 16}')
    assert cfg.stages == ("connect", "krein", "gl")
    cfg = parse_config('{"response_csv": "r.csv", "T": 1, "n": 16, '
                       '"stages": ["krein"]}')
    assert cfg.stages == ("krein",)
    with pytest.raises(ConfigError, match="kernels"):
        parse_config('{"response_csv": "r.csv", "T": 1, "n": 16, '
                     '"stages": ["kernels", "krein"]}')


@pytest.mark.parametrize("source", [
    '"potential": {"kind": "gaussian"}', '"response_csv": "r.csv"'],
    ids=["potential", "response_csv"])
def test_empty_stage_list_exits_2(tmp_path, monkeypatch, capsys, source):
    # a config that asks for no stage is a mistake, not a successful run
    text = '{%s, "T": 1, "n": 16, "stages": []}' % source
    with pytest.raises(ConfigError, match="at least one stage"):
        parse_config(text)
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg)]) == 2
    assert "at least one stage" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fields,key", [
    ('"potential": {"kind": "gaussian"}, "stages": null', "'stages'"),
    ('"potential": {"kind": "gaussian"}, "stages": "krein"', "'stages'"),
    ('"potential": {"kind": "gaussian"}, "stages": [["kernels"]]',
     "'stages'"),
    ('"response_csv": 0', "'response_csv'"),
    ('"response_csv": ["a"]', "'response_csv'"),
    ('"potential": {"kind": "gaussian"}, "out": null', "'out'"),
    ('"potential": {"kind": "gaussian"}, "out": 5', "'out'"),
], ids=["stages_null", "stages_string", "stages_nested", "csv_int",
        "csv_list", "out_null", "out_int"])
def test_wrong_types_rejected_at_parse(tmp_path, monkeypatch, capsys, fields,
                                       key):
    text = '{"T": 1, "n": 16, %s}' % fields
    with pytest.raises(ConfigError, match=key):
        parse_config(text)
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert list(tmp_path.iterdir()) == [cfg]


def test_stages_completed_and_ordered_once(tmp_path, capsys):
    # the library call and ``bcwave run`` give one report for a list out of
    # order, with a duplicate and without prerequisites
    raw = json.loads(MINIMAL)
    raw.update({"stages": ["gl", "krein", "kernels", "response", "krein"],
                "out": str(tmp_path / "out")})
    text = json.dumps(raw)
    assert parse_config(text).stages == ("kernels", "response", "krein",
                                         "gl")
    report = run_pipeline(parse_config(text))
    assert report["ok"]
    library = (tmp_path / "out" / "report.json").read_bytes()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "report.json").read_bytes() == library
    raw.update({"stages": ["krein"]})
    report = run_pipeline(parse_config(json.dumps(raw)))
    assert [s["name"] for s in report["stages"]] == ["kernels", "response",
                                                     "krein"]


def test_run_config_is_frozen_and_rechecked():
    cfg = parse_config(MINIMAL)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.stages = ("kernels",)
    with pytest.raises(ConfigError, match="seed"):
        dataclasses.replace(cfg, seed=-1)
    with pytest.raises(ConfigError, match="spectral.N must exceed T"):
        dataclasses.replace(cfg, T=4.0)


def test_stage_commands_on_a_response_csv(tmp_path, capsys):
    # forward-stage commands need a potential; the inverse ones run
    r = response_matrix(solve_kernels(GaussianPotential(),
                                      UniformGrid(2.0, 32)))
    path = tmp_path / "response.csv"
    r.write_csv(path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"response_csv": str(path), "T": 1, "n": 16,
                               "out": str(tmp_path / "out")}))
    for command in ("kernels", "response", "spectral"):
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "needs a potential" in err
    assert not (tmp_path / "out").exists()
    for command in ("connect", "krein", "gl", "roundtrip", "run"):
        assert main([command, "--config", str(cfg)]) == 0


def test_inverse_commands_exit_1_on_no_potential(tmp_path, capsys,
                                                resp_broken):
    path = tmp_path / "response.csv"
    resp_broken.write_csv(path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"response_csv": str(path), "T": 1, "n": 16}))
    for command in ("roundtrip", "krein", "gl"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        inverse = [s for s in report["stages"] if s["name"] != "ingest"]
        assert inverse and all(s["status"] == "failed" for s in inverse)
        assert "not positive definite" in capsys.readouterr().out


def test_selftest_passes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "krein.q_rel_error" in out and "FAIL" not in out
    report = tmp_path / "selftest_out" / "report.json"
    metrics = {s["name"]: s["metrics"]
               for s in json.loads(report.read_text())["stages"]}
    # the potential is not even, so the consistency gates measure
    # something: for an even one both read exactly 0
    for stage, key, bound in cli.GATES:
        assert 0.0 < metrics[stage][key] <= bound, (stage, key)


def test_failed_selftest_gate_exits_1(tmp_path, monkeypatch, capsys):
    # every stage ok, but krein's q error above its selftest bound
    report = {"ok": True, "stages": [
        {"name": "krein", "status": "ok", "metrics": {"q_rel_error": 0.5}}]}
    monkeypatch.setattr(cli, "run_pipeline", lambda cfg: report)
    assert main(["selftest", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "krein.q_rel_error" in out and "FAIL" in out


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


def test_rerun_into_the_same_out_matches_a_fresh_run(tmp_path, monkeypatch):
    # every file of the n = 32 run is longer than its n = 16 rewrite
    base = {"potential": {"kind": "gaussian", "amplitude": 1.0,
                          "width": 0.3},
            "T": 1.0, "stages": ["kernels", "response", "connect", "krein",
                                 "gl"],
            "out": "out"}
    outputs = {}
    for tag, sizes in (("fresh", [16]), ("rerun", [32, 16])):
        cwd = tmp_path / tag
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        for n in sizes:
            run_pipeline(parse_config(json.dumps(dict(base, n=n))))
        outputs[tag] = {p.name: p.read_bytes()
                        for p in (cwd / "out").iterdir()}
    assert sorted(outputs["fresh"]) == [
        "connecting.csv", "gl_kernel.csv", "kernels.csv", "krein_q.csv",
        "q_gl.csv", "report.json", "response.csv"]
    assert outputs["rerun"] == outputs["fresh"]


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


def test_linalg_error_becomes_failed_stage(tmp_path, monkeypatch):
    from bcwave import pipeline

    def singular(cfg, state, files):
        raise np.linalg.LinAlgError("Matrix is singular")

    monkeypatch.setattr(pipeline, "_stage_connect", singular)
    out = tmp_path / "out"
    cfg = json.loads(MINIMAL)
    cfg.update({"stages": ["kernels", "response", "connect", "krein"],
                "out": str(out)})
    report = run_pipeline(parse_config(json.dumps(cfg)))
    saved = json.loads((out / "report.json").read_text())
    assert saved == report and saved["ok"] is False
    status = {s["name"]: s["status"] for s in saved["stages"]}
    assert status == {"kernels": "ok", "response": "ok", "connect": "failed",
                      "krein": "ok"}
    connect = saved["stages"][2]
    assert connect["error"] == "Matrix is singular"
    assert saved["stages"][3]["metrics"]["failed_horizons"] == 0


def test_stage_commands_rerun_stage_checks(tmp_path, capsys):
    # the config's own stages hold no spectral, the command adds it
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "potential": {"kind": "gaussian"}, "T": 1, "n": 16,
        "spectral": {"N": 0.5, "cutoff": 20, "mesh": 128},
        "stages": ["kernels"], "out": str(out)}))
    assert main(["spectral", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "spectral.N must exceed T" in err
    assert not out.exists()


def test_tabulated_support_narrower_than_spectral_N_exits_2(tmp_path,
                                                           capsys):
    # a table of radius 2 under the default spectral.N = 4T = 4 is
    # rejected before any stage runs
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "potential": {"kind": "tabulated",
                      "x": [-2, -1.5, -1, -0.5, 0, 0.5, 1, 1.5, 2],
                      "q": [0, 0.1, 0.5, 1.2, 1.5, 0.9, 0.4, 0.1, 0]},
        "T": 1, "n": 96,
        "spectral": {"bc": [0, 1, 1, 2], "cutoff": 200, "mesh": 1024},
        "out": str(out)}))
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "spectral.N" in err
    assert not out.exists()
    # the stages that do not evaluate q on [-N, N] still run
    assert main(["kernels", "--config", str(cfg)]) == 0


def test_spectral_stage_on_the_kernel_grid(tmp_path):
    # at T = 1, n = 49 the connecting kernel's horizon n h misses T by an
    # ulp; the spectral controls live on the kernel's grid
    assert 49 * UniformGrid(2.0, 98).h != 1.0
    report = run_pipeline(parse_config(json.dumps({
        "potential": {"kind": "gaussian", "amplitude": 1.0, "width": 0.3},
        "T": 1.0, "n": 49, "spectral": {"cutoff": 40, "mesh": 256},
        "out": str(tmp_path)})))
    stages = {s["name"]: s for s in report["stages"]}
    assert stages["spectral"]["status"] == "ok"
    assert report["ok"]


def test_krein_stage_with_an_empty_error_band(tmp_path):
    # at T = 0.08 no Krein sample lies in 0.1 <= |x| <= 0.8: the stage
    # runs and leaves q_rel_error out of its metrics
    report = run_pipeline(parse_config(json.dumps({
        "potential": {"kind": "gaussian", "amplitude": 1, "width": 0.03},
        "T": 0.08, "n": 16, "stages": ["kernels", "response", "krein"],
        "out": str(tmp_path)})))
    krein = report["stages"][2]
    assert krein["name"] == "krein" and krein["status"] == "ok"
    assert "q_rel_error" not in krein["metrics"] and report["ok"]
    assert json.loads((tmp_path / "report.json").read_text()) == report


@pytest.mark.parametrize("potential,n", [
    ({"kind": "constant", "value": 4.0}, 64),
    ({"kind": "constant", "value": 4.0}, 48),
    ({"kind": "polynomial", "coeffs": [1, 0, 2]}, 48),
], ids=["constant4-n64", "constant4-n48", "polynomial-n48"])
def test_gl_stage_with_an_empty_agreement_band(tmp_path, potential, n):
    # at T = 3 Krein's y has zeros that leave no valid sample in
    # |x| <= 0.8: gl runs and leaves krein_gl_agreement out of its metrics
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"potential": potential, "T": 3.0, "n": n,
                               "stages": ["kernels", "response", "krein",
                                          "gl"]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = _strict_json((tmp_path / "report.json").read_text())
    krein, gl = report["stages"][2:]
    assert krein["status"] == gl["status"] == "ok"
    assert "krein_gl_agreement" not in gl["metrics"]
    assert gl["metrics"]["q_rel_error"] < 0.05


def _strict_json(text):
    """A report.json read as strict JSON: NaN or Infinity raises."""
    def refuse(token):
        raise ValueError("%s in report.json" % token)
    return json.loads(text, parse_constant=refuse)


def test_overflowing_march_fails_kernels(tmp_path, capsys):
    # at amplitude 1e8 the march overflows: kernels fails, writes no
    # kernels.csv, and response is skipped
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "potential": {"kind": "gaussian", "amplitude": 1e8, "width": 0.3},
        "T": 1.0, "n": 32}))
    out = tmp_path / "out"
    assert main(["response", "--config", str(cfg), "--out", str(out)]) == 1
    report = _strict_json((out / "report.json").read_text())
    status = {s["name"]: s["status"] for s in report["stages"]}
    assert status == {"kernels": "failed", "response": "skipped"}
    assert "march overflows" in report["stages"][0]["error"]
    assert "metrics" not in report["stages"][0]
    assert not (out / "kernels.csv").exists()


def test_overflowing_response_norm_fails_spectral(tmp_path):
    # at amplitude 1e5 the kernels stay finite, but the norm of the
    # dynamic response overflows, so its errors are NaN
    report = run_pipeline(parse_config(json.dumps({
        "potential": {"kind": "gaussian", "amplitude": 1e5, "width": 0.3},
        "T": 1.0, "n": 32, "spectral": {"cutoff": 40, "mesh": 256},
        "stages": ["spectral"], "out": str(tmp_path)})))
    status = {s["name"]: s["status"] for s in report["stages"]}
    assert status == {"kernels": "ok", "response": "ok", "spectral": "failed"}
    spectral = report["stages"][-1]
    assert spectral["error"] == \
        "metric smoothed_response_rel_errors is not finite"
    assert spectral["metrics"]["smoothed_response_rel_errors"] == [None] * 3
    assert _strict_json((tmp_path / "report.json").read_text()) == report


@pytest.mark.parametrize("stage, key, value, written, error", [
    ("kernels", "continuity_residual", float("inf"), None,
     "metric continuity_residual is not finite"),
    ("spectral", "smoothed_response_rel_errors", [0.1, float("nan"), 0.2],
     [0.1, None, 0.2], "metric smoothed_response_rel_errors is not finite"),
    # the metrics that once had fail rows of their own: the connecting
    # matrix's smallest eigenvalue and GL's identity residual
    ("connect", "min_eigenvalue", float("nan"), None,
     "metric min_eigenvalue is not finite"),
    ("gl", "operator_identity_residual", float("nan"), None,
     "metric operator_identity_residual is not finite"),
], ids=["kernels", "spectral", "connect", "gl"])
def test_non_finite_metric_fails_its_stage(tmp_path, monkeypatch, stage, key,
                                           value, written, error):
    from bcwave import pipeline

    runner = getattr(pipeline, "_stage_" + stage)

    def non_finite(cfg, state, files):
        metrics = runner(cfg, state, files)
        metrics[key] = value
        return metrics

    monkeypatch.setattr(pipeline, "_stage_" + stage, non_finite)
    cfg = json.loads(MINIMAL)
    cfg.update({"spectral": {"cutoff": 20, "mesh": 128},
                "out": str(tmp_path / "out")})
    report = run_pipeline(parse_config(json.dumps(cfg)))
    assert report["ok"] is False
    for entry in report["stages"]:
        assert entry["status"] == ("failed" if entry["name"] == stage
                                   else "ok")
    entry = next(s for s in report["stages"] if s["name"] == stage)
    assert entry["error"] == error
    assert entry["metrics"][key] == written
    assert entry["files"]       # the stage ran and wrote its files
    for name in entry["files"]:
        assert (tmp_path / "out" / name).exists()
    saved = _strict_json((tmp_path / "out" / "report.json").read_text())
    assert saved == report


@pytest.mark.parametrize("where", ["config", "override"])
def test_negative_seed_exits_2(tmp_path, capsys, where):
    out = tmp_path / "out"
    raw = {"potential": {"kind": "gaussian"}, "T": 1, "n": 16,
           "spectral": {"cutoff": 40, "mesh": 256}, "out": str(out)}
    args = []
    if where == "config":
        raw["seed"] = -3
        with pytest.raises(ConfigError, match="seed"):
            parse_config(json.dumps(raw))
    else:
        args = ["--seed", "-3"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg)] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err
    assert not out.exists()


def test_response_csv_sets_the_inverse_grid(tmp_path):
    # a horizon-4, 128-step response file under a config of T = 1, n = 32:
    # the inverse stages run on the file's [0, 4] and step 1/32, and the
    # config's T only bounds the horizon from below
    r = response_matrix(solve_kernels(GaussianPotential(),
                                      UniformGrid(4.0, 128)))
    path = tmp_path / "response.csv"
    r.write_csv(path)
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"response_csv": str(path), "T": 1, "n": 32,
                               "out": str(out)}))
    assert main(["run", "--config", str(cfg)]) == 0
    x_expected = np.arange(-64, 65) / 32.0
    for name in ("krein_q.csv", "q_gl.csv"):
        x = np.loadtxt(out / name, delimiter=",", skiprows=1, usecols=0)
        np.testing.assert_array_equal(x, x_expected)
    t = np.loadtxt(out / "connecting.csv", delimiter=",", skiprows=1,
                   usecols=0)
    assert len(t) == 65 ** 2 and t[-1] == 2.0


def test_memory_budget_uses_the_response_file(tmp_path, capsys, monkeypatch):
    # a response CSV of n = 64 under a config of n = 16
    r = response_matrix(solve_kernels(GaussianPotential(),
                                      UniformGrid(2.0, 128)))
    path = tmp_path / "response.csv"
    r.write_csv(path)
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"response_csv": str(path), "T": 1, "n": 16,
                               "out": str(out)}))
    small, large = parse_config(cfg.read_text()), 7 * 130 ** 2 * 8
    assert memory_estimate(small) < large // 2
    assert memory_estimate(small, 64) == large
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": large // 2 // 4096}
    monkeypatch.setattr("bcwave.config.os.sysconf", pages.__getitem__)
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n = 64" in err
    assert not (out / "connecting.csv").exists()
