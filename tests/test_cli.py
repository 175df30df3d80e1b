import json

import numpy as np
import pytest

from twoscale.cli import main, run_cell, run_study, write_field_csv, write_json
from twoscale.config import DEFAULT_CONFIG, apply_override, load_config, parse_eps_list
from twoscale.errors import ConfigurationError
from twoscale.grids import CellGrid, MacroGrid, lattice_points


BASE_1D = {
    "problem": {
        "dim": 1,
        "coefficient": {"family": "SMOOTH_PERIODIC", "base": 2.0, "amplitude": 1.0},
        "source": {"family": "CONSTANT", "value": 1.0},
    },
    "discretization": {"m_x": 32, "m_c": 32, "cells_per_period": 8},
    "study": {"eps": [0.25, 0.125, 0.0625]},
}


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_defaults_fill_and_validate(tmp_path):
    cfg = load_config(write_config(tmp_path, BASE_1D))
    assert cfg.raw["nonlinear"] == DEFAULT_CONFIG["nonlinear"]
    assert cfg.eps_list == [0.25, 0.125, 0.0625]


def test_unknown_keys_rejected(tmp_path):
    bad = json.loads(json.dumps(BASE_1D))
    bad["discretization"]["m_q"] = 3
    bad["stdy"] = {}
    with pytest.raises(ConfigurationError) as err:
        load_config(write_config(tmp_path, bad))
    assert "discretization.m_q" in str(err.value)
    assert "stdy" in str(err.value)


def test_eps_parsing_and_validation():
    assert parse_eps_list(["1/8", 0.0625]) == [0.125, 0.0625]
    with pytest.raises(ConfigurationError):
        parse_eps_list([0.3])
    with pytest.raises(ConfigurationError):
        parse_eps_list([0.0625, 0.125])  # must decrease
    with pytest.raises(ConfigurationError, match="strictly decreasing"):
        parse_eps_list(["1/8", "1/8", "1/16", "1/32"])  # a repeat solves and writes eps twice


def test_power_of_two_and_resolution_guards(tmp_path):
    bad = json.loads(json.dumps(BASE_1D))
    bad["discretization"]["m_x"] = 48
    with pytest.raises(ConfigurationError, match="power of two"):
        load_config(write_config(tmp_path, bad))

    coarse = json.loads(json.dumps(BASE_1D))
    coarse["discretization"]["m_x"] = 8
    coarse["study"]["eps"] = ["1/64"]
    with pytest.raises(ConfigurationError, match="macro grid too coarse"):
        load_config(write_config(tmp_path, coarse))


def test_override_parsing():
    cfg = json.loads(json.dumps(BASE_1D))
    apply_override(cfg, "nonlinear.damping=0.5")
    assert cfg["nonlinear"]["damping"] == 0.5
    apply_override(cfg, 'study.eps=["1/4","1/8"]')
    assert cfg["study"]["eps"] == ["1/4", "1/8"]
    with pytest.raises(ConfigurationError):
        apply_override(cfg, "no_equals_sign")


def test_object_overrides_merge_like_config_files(tmp_path):
    # an object merges into its section, keeping the keys it does not name;
    # a family section (coefficient, source) is still replaced wholesale
    path = write_config(tmp_path, BASE_1D)
    cfg = load_config(path, overrides=['study={"eps":["1/8","1/16","1/32"]}'])
    assert cfg.eps_list == [0.125, 0.0625, 0.03125]
    assert cfg.raw["study"]["interior_box"] == DEFAULT_CONFIG["study"]["interior_box"]
    constant = {"family": "CONSTANT", "matrix": [[3.0]]}
    for spec in ("problem.coefficient=" + json.dumps(constant),
                 "problem=" + json.dumps({"coefficient": constant})):
        cfg = load_config(path, overrides=[spec])
        assert cfg.raw["problem"]["coefficient"] == constant
        assert cfg.raw["problem"]["dim"] == 1
    out = tmp_path / "merged"
    assert main(["homogenize", "--config", path, "--out", str(out),
                 "--override", 'discretization={"m_x":16}']) == 0
    assert json.loads((out / "homogenize.json").read_text())["iterations"] == 1
    assert load_config(path).raw["discretization"]["m_c"] == 32


def test_study_cli_end_to_end(tmp_path):
    out = tmp_path / "out"
    code = main([
        "study", "--config", write_config(tmp_path, BASE_1D), "--out", str(out),
        "--check",
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["rows"][0]) == set(report["columns"])
    assert [row["eps"] for row in report["rows"]] == [0.25, 0.125, 0.0625]
    assert report["fits"]["linf_order0"]["slope"] > 0.5
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["status"] == "ok"
    assert (out / "report.csv").exists()
    assert (out / "u0.csv").exists()
    # effective config embedded for reproducibility: re-running from it
    # reproduces the report byte for byte
    out2 = tmp_path / "rerun"
    code = main([
        "study", "--config", write_config(tmp_path, report["config"]),
        "--out", str(out2),
    ])
    assert code == 0
    assert (out2 / "report.csv").read_bytes() == (out / "report.csv").read_bytes()


def test_study_reports_thread_invariant_and_rerun_identical(tmp_path):
    csvs = {}
    jsons = {}
    for threads in (1, 4):
        out = tmp_path / f"out{threads}"
        code = main([
            "study", "--config",
            write_config(tmp_path, {**BASE_1D, "problem": {
                **BASE_1D["problem"],
                "coefficient": {"family": "ROSSELAND", "k_base": 2.0,
                                 "k_amplitude": 1.0, "b": 0.1},
            }}),
            "--out", str(out), "--threads", str(threads),
        ])
        assert code == 0
        csvs[threads] = (out / "report.csv").read_bytes()
        jsons[threads] = (out / "report.json").read_bytes()
    assert csvs[1] == csvs[4]
    assert jsons[1] == jsons[4]


def test_reconstruction_gradient_evaluated_once_per_eps(tmp_path, monkeypatch):
    import twoscale.cli as cli

    calls = []
    original = cli.reconstruction_gradient

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "reconstruction_gradient", counted)
    report = run_study(load_config(write_config(tmp_path, BASE_1D)))
    assert calls == [0.25, 0.125, 0.0625]
    assert all(row["flux_sup_order1"] > 0.0 for row in report.rows)


def test_constant_coefficient_study_flags_noise_floor(tmp_path):
    payload = json.loads(json.dumps(BASE_1D))
    payload["problem"]["coefficient"] = {"family": "CONSTANT", "matrix": [[2.0]]}
    cfg = load_config(write_config(tmp_path, payload))
    report = run_study(cfg)
    for name, fit in report.fits.items():
        # the energy column may fit: its discretization error scales with
        # the fine spacing eps/P and therefore decays with eps itself
        if name == "energy_diff":
            continue
        assert fit is None, f"{name} should sit below the noise floor"
    # value-level columns sit at interpolation-noise level; the H1 and
    # Hoelder columns additionally see the interpolated layer's O(h_x) kinks
    for row in report.rows:
        for col, val in row.items():
            if col in ("eps", "h1_order1", "holder_order2"):
                continue
            assert val <= 1e-4, col
        assert row["h1_order1"] <= 1e-2
        assert row["holder_order2"] <= 1e-3


def test_family_sections_replace_defaults(tmp_path):
    # a MODULATED source must not inherit the default CONSTANT's "value" key
    payload = json.loads(json.dumps(BASE_1D))
    payload["problem"]["source"] = {
        "family": "MODULATED", "base": 1.0, "u_coeff": 0.5,
        "amplitude": 1.0, "frequency": 1,
    }
    cfg = load_config(write_config(tmp_path, payload))
    model = cfg.build_model()
    assert model.source.u_dependent


def test_study_with_u_dependent_source(tmp_path):
    # u-dependence entering only through the source still drives the
    # parameter tables and a genuinely coupled macro fixed point
    payload = json.loads(json.dumps(BASE_1D))
    payload["problem"]["source"] = {
        "family": "MODULATED", "base": 1.0, "u_coeff": 0.5,
        "amplitude": 1.0, "frequency": 1,
    }
    payload["discretization"]["m_c"] = 64
    cfg = load_config(write_config(tmp_path, payload))
    report = run_study(cfg)
    assert report.diagnostics["macro_picard_iterations"] > 1
    assert report.fits["linf_order0"].slope > 0.7


def test_study_with_x_dependent_coefficient(tmp_path):
    # exercises the x-axes of the parameter tables end to end
    payload = json.loads(json.dumps(BASE_1D))
    payload["problem"]["coefficient"] = {
        "family": "SEPARATED", "mu0": 1.0, "mu_u2": 1.0, "mu_x": 0.5,
        "g_base": 2.0, "g_amplitude": 1.0,
    }
    payload["discretization"]["m_c"] = 64
    cfg = load_config(write_config(tmp_path, payload))
    report = run_study(cfg)
    vals = report.column("linf_order0")
    assert all(v > 0 for v in vals)
    assert vals[0] > vals[-1]  # decays with eps
    assert report.fits["linf_order0"].slope > 0.7


def test_study_strong_nonlinearity_rebuilds_table_span(tmp_path):
    # with an order-one unknown the tensor varies strongly in u; tables over
    # too narrow a u span once clamped the lookups and left a non-decaying
    # O(1) error against the resolved solution.  The tables now span the
    # whole u_range at Chebyshev points; the name stays because the
    # benchmark's rosseland_1d_strong workload cites this config by it
    payload = {
        "problem": {
            "dim": 1,
            "coefficient": {"family": "ROSSELAND", "k_base": 2.0,
                             "k_amplitude": 1.0, "b": 1.0},
            "source": {"family": "CONSTANT", "value": 20.0},
            "u_range": [0.0, 2.0],
        },
        "discretization": {"m_x": 64, "m_c": 128, "cells_per_period": 16,
                            "table_u_samples": 9},
        "nonlinear": {"damping": 0.5},
        "study": {"eps": ["1/8", "1/16", "1/32"]},
    }
    cfg = load_config(write_config(tmp_path, payload))
    report = run_study(cfg)
    vals = report.column("linf_order0")
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.45 * vals[0]
    assert report.fits["linf_order0"].pairwise[-1] > 0.8


def test_cell_subcommand_writes_tables(tmp_path):
    out = tmp_path / "cell"
    code = main(["cell", "--config", write_config(tmp_path, BASE_1D), "--out", str(out)])
    assert code == 0
    index = json.loads((out / "index.json").read_text())
    assert index["samples"][0]["u"] == pytest.approx(0.5)
    first_csv = out / index["fields"]["first_0"][0]
    assert first_csv.exists()
    header = first_csv.read_text().splitlines()
    assert header[0].startswith("#")
    a0 = (out / "a0.csv").read_text().splitlines()
    assert a0[0].startswith("sample,u,x0,a0_00")
    # constant-model sanity through the same interface
    const = json.loads(json.dumps(BASE_1D))
    const["problem"]["coefficient"] = {"family": "CONSTANT", "matrix": [[3.0]]}
    out2 = tmp_path / "cell_const"
    assert main(["cell", "--config", write_config(tmp_path, const), "--out", str(out2)]) == 0
    row = (out2 / "a0.csv").read_text().splitlines()[1].split(",")
    assert float(row[-1]) == pytest.approx(3.0, abs=1e-12)


def test_cell_subcommand_csv_bytes_match_direct_writer(tmp_path):
    # run_cell formats each field's stack in one call, and a row bitwise
    # equal to an earlier row (first, hessian) reuses its text; every file
    # must still be what the writer gives for its row alone
    payload = {
        "problem": {"dim": 2, "coefficient": {"family": "SEPARATED", "mu_u2": 1.0, "mu_x": 0.5}},
        "discretization": {"m_c": 8, "table_u_samples": 3, "table_x_samples": 3},
    }
    out = tmp_path / "cell"
    out.mkdir()
    table, _ = run_cell(load_config(write_config(tmp_path, payload)), 1, out)
    assert np.array_equal(table.fields["first_0"][0], table.fields["first_0"][26])
    for name in ("first_0", "hess_01", "slow0_1", "slowg_10", "source"):
        for flat in (0, 1, 13, 26):
            path = out / f"{name}_s{flat:03d}.csv"
            header = [line[2:] for line in path.read_text().splitlines() if line.startswith("# ")]
            direct = tmp_path / "direct.csv"
            write_field_csv([direct], table.cell_grid, [table.fields[name][flat]], [header])
            assert path.read_bytes() == direct.read_bytes(), path.name


def test_homogenize_and_reference_subcommands(tmp_path):
    out = tmp_path / "homog"
    assert main(["homogenize", "--config", write_config(tmp_path, BASE_1D), "--out", str(out)]) == 0
    info = json.loads((out / "homogenize.json").read_text())
    assert info["iterations"] >= 1
    assert (out / "u0.csv").exists()

    out2 = tmp_path / "ref"
    assert main(["reference", "--config", write_config(tmp_path, BASE_1D), "--out", str(out2)]) == 0
    ref = json.loads((out2 / "reference.json").read_text())
    assert ref["eps"] == 0.25
    assert (out2 / "u_eps_1over4.csv").exists()


def test_lemma_subcommand(tmp_path):
    payload = json.loads(json.dumps(BASE_1D))
    payload["lemma"] = {"eps": ["1/8", "1/16", "1/32", "1/64"]}
    out = tmp_path / "lemma"
    assert main(["lemma", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    result = json.loads((out / "lemma.json").read_text())
    assert abs(result["fit"]["slope"] - 1.0) <= 0.05


def test_invariance_subcommand(tmp_path):
    payload = json.loads(json.dumps(BASE_1D))
    payload["invariance"] = {"shift": [0.0], "u": 0.5, "x": [0.5]}
    out = tmp_path / "inv"
    assert main(["invariance", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    result = json.loads((out / "invariance.json").read_text())
    assert result["discrepancy"] == 0.0
    assert result["grid_aligned"] is True


@pytest.mark.parametrize("command, dim, override, message", [
    # a 2-D shift leaves invariance.x at its 1-D default
    ("invariance", 2, "invariance.shift=[0.5,0.25]",
     "invariance.x must be one number per dimension"),
    ("invariance", 1, 'invariance.u="a"', "invariance.u must be a number"),
    ("invariance", 1, "invariance.shift=0.5", "invariance.shift must be one number per dimension"),
    ("lemma", 1, "lemma.p=0", "lemma.p must be"),
    ("lemma", 1, 'lemma.cells_per_period="x"', "lemma.cells_per_period must be an integer >= 1"),
    ("lemma", 1, "lemma.cells_per_period=0", "lemma.cells_per_period must be an integer >= 1"),
    ("lemma", 1, 'lemma.amplitude="x"', "lemma.amplitude must be a number"),
    ("lemma", 1, "lemma.frequency=1.5", "lemma.frequency must be an integer"),
    ("lemma", 1, "lemma.eps=[0.25,0.25,0.125]", "eps list must be strictly decreasing"),
])
def test_bad_lemma_and_invariance_inputs_are_configuration_errors(
        tmp_path, capsys, command, dim, override, message):
    payload = json.loads(json.dumps(BASE_1D))
    payload["problem"]["dim"] = dim
    path = write_config(tmp_path, payload)
    assert main([command, "--config", path, "--out", str(tmp_path / "bad"),
                 "--override", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err


@pytest.mark.parametrize("override, bound", [
    ("lemma.cells_per_period=1", 0.0),  # g sampled at y = 0 alone, where it vanishes
    ("lemma.cells_per_period=2", 1e-16),  # at y = 0 and 1/2: rounding, 3.06e-17
    ("lemma.frequency=64", 1e-14),  # g aliased to zero at every node: rounding, 4.4e-15
])
def test_lemma_with_a_vanishing_primitive_reports_no_rate(tmp_path, capsys, override, bound):
    # a primitive at the rounding level has no rate to fit
    out = tmp_path / "lemma"
    assert main(["lemma", "--config", write_config(tmp_path, BASE_1D), "--out", str(out),
                 "--override", override]) == 0
    result = json.loads((out / "lemma.json").read_text())
    assert len(result["norms"]) == 4 and max(result["norms"]) <= bound
    assert result["fit"] is None
    assert capsys.readouterr().out.count("slope: none") == 1


@pytest.mark.parametrize("override, message", [
    # [0.5, 0.505] holds no whole element of the eps 1/4 fine grid (h = 1/32)
    ("study.interior_box=[0.5,0.505]", "study.interior_box at eps=1/4:"),
    # the eps 1/16 fine grid has 129 nodes; the first two fit
    ("discretization.max_fine_dofs=100", "fine grid has 129 DOFs > cap 100"),
], ids=["box", "dofs"])
def test_study_fine_grid_checks_fail_at_setup(tmp_path, capsys, monkeypatch, override, message):
    from twoscale import cli

    def no_tables(*args):
        raise AssertionError("the tables were built")

    monkeypatch.setattr(cli, "build_tables", no_tables)
    out = tmp_path / "study"
    assert main(["study", "--config", write_config(tmp_path, BASE_1D), "--out", str(out),
                 "--override", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}")
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["failed_stage"] == "setup" and manifest["stages"] == []
    assert [p.name for p in out.iterdir()] == ["MANIFEST.json"]  # no field file


def test_study_writes_both_reports_and_every_truncation(tmp_path):
    out = tmp_path / "out"
    assert main(["study", "--config", write_config(tmp_path, BASE_1D), "--out", str(out)]) == 0
    per_eps = ["u_eps", "reconstruction_order0", "reconstruction_order1",
               "reconstruction_order2", "remainder"]
    want = {"MANIFEST.json", "report.csv", "report.json", "u0.csv"}
    want |= {f"{name}_1over{k}.csv" for name in per_eps for k in (4, 8, 16)}
    assert {p.name for p in out.iterdir()} == want
    assert sorted(json.loads((out / "MANIFEST.json").read_text())["outputs"]) == sorted(
        want - {"MANIFEST.json"})


def test_override_flag_end_to_end(tmp_path):
    out = tmp_path / "ov"
    code = main([
        "study", "--config", write_config(tmp_path, BASE_1D), "--out", str(out),
        "--override", 'study.eps=["1/4","1/8","1/16"]',
        "--override", "output.seed=7",
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 7
    assert [row["eps"] for row in report["rows"]] == [0.25, 0.125, 0.0625]


def test_threads_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("TWOSCALE_THREADS", "2")
    out = tmp_path / "env"
    code = main(["cell", "--config", write_config(tmp_path, BASE_1D), "--out", str(out)])
    assert code == 0


@pytest.mark.parametrize("flag, env", [("0", None), ("-2", None), (None, "abc"), (None, "0")])
def test_bad_thread_count_is_a_configuration_error(tmp_path, monkeypatch, capsys, flag, env):
    if env is not None:
        monkeypatch.setenv("TWOSCALE_THREADS", env)
    out = tmp_path / "threads"
    argv = ["cell", "--config", write_config(tmp_path, BASE_1D), "--out", str(out)]
    if flag is not None:
        argv += ["--threads", flag]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("configuration error: thread count")
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("cell", ["--check"]),
    ("homogenize", ["--check"]),
    ("reference", ["--threads", "2"]),
    ("lemma", ["--threads", "4", "--check"]),
    ("invariance", ["--threads", "1"]),
])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys, command, flags):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", write_config(tmp_path, BASE_1D), "--out", str(out), *flags])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_thread_variable_is_read_only_by_subcommands_with_threads(tmp_path, monkeypatch):
    monkeypatch.setenv("TWOSCALE_THREADS", "abc")
    path = write_config(tmp_path, BASE_1D)
    assert main(["lemma", "--config", path, "--out", str(tmp_path / "lemma")]) == 0
    assert main(["cell", "--config", path, "--out", str(tmp_path / "cell")]) == 2


def test_json_outputs_refuse_non_finite_values(tmp_path):
    path = tmp_path / "out.json"
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            write_json(path, {"value": value})
        assert not path.exists()
    write_json(path, {"value": 1.5})
    assert json.loads(path.read_text()) == {"value": 1.5}


def test_homogenize_reads_many_u_samples_on_a_narrow_range(tmp_path):
    # 129 u samples on [0, 0.01]: the unscaled barycentric weights underflow
    # and the read turned NaN (an assembly error, exit 1)
    payload = json.loads(json.dumps(BASE_1D))
    payload["problem"]["coefficient"] = {"family": "ROSSELAND", "k_base": 2.0,
                                         "k_amplitude": 1.0, "b": 0.1}
    payload["problem"]["u_range"] = [0.0, 0.01]
    payload["discretization"]["table_u_samples"] = 129
    out = tmp_path / "homog"
    with pytest.warns(UserWarning, match="leaves the admissible range"):
        assert main(["homogenize", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 0
    lo, hi = json.loads((out / "homogenize.json").read_text())["range"]
    assert lo == 0.0 < hi < 1.0  # the Dirichlet boundary and a finite interior


def test_layered_config_defaults_to_smoothed_width(tmp_path):
    payload = json.loads(json.dumps(BASE_1D))
    payload["problem"]["coefficient"] = {"family": "LAYERED", "low": 1.0, "high": 4.0}
    cfg = load_config(write_config(tmp_path, payload))
    model = cfg.build_model()
    assert model.width == pytest.approx(2.0 / 32)


def test_check_flag_property_violation_exit_code(tmp_path, monkeypatch):
    import twoscale.cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "_study_property_checks", lambda table: {"forced": False}
    )
    out = tmp_path / "viol"
    code = main([
        "study", "--config", write_config(tmp_path, BASE_1D), "--out", str(out),
        "--check",
    ])
    assert code == 4
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["status"] == "failed"


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["study", "--config", str(bad)]) == 2

    payload = json.loads(json.dumps(BASE_1D))
    payload["bogus_section"] = {}
    assert main(["study", "--config", write_config(tmp_path, payload)]) == 2


@pytest.mark.parametrize("override", [
    "study.eps=[0]",
    'study.eps=["1/0"]',
    'study.eps=["abc"]',
    "study.eps=[]",
    "study.eps=5",
    'study.eps=["1/8","1/8","1/16","1/32"]',
    "study.interior_box=[[0.25,0.75],[0.5,1.0]]",  # touches the boundary
    "study.interior_box=[[0.75,0.25],[0.25,0.75]]",  # reversed
    "study.interior_box=[0.0,0.5]",
    'study.interior_box=["a",0.5]',
    "study.interior_box=[[0.25,0.75],[0.25]]",
])
def test_bad_eps_and_interior_box_rejected_at_load(tmp_path, capsys, override):
    payload = json.loads(json.dumps(BASE_1D))
    payload["problem"]["dim"] = 2
    path = write_config(tmp_path, payload)
    with pytest.raises(ConfigurationError):
        load_config(path, overrides=[override])
    out = tmp_path / "bad"
    assert main(["study", "--config", path, "--out", str(out), "--override", override]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not out.exists()


@pytest.mark.parametrize("override, message", [
    ("study=5", "study must be a section"),
    ('nonlinear.damping="x"', "nonlinear.damping must be a number"),
    ('discretization.table_u_samples="5"', "discretization.table_u_samples must be an integer"),
    ("discretization.table_u_samples=5.0", "discretization.table_u_samples must be an integer"),
    ("discretization.table_x_samples=3.0", "discretization.table_x_samples must be an integer"),
    ("discretization.table_u_samples=513",
     "discretization.table_u_samples must be an integer from 3 to 512"),
    ("discretization.table_x_samples=-1", "discretization.table_x_samples must be an integer >= 3"),
    ("discretization.m_c=1", "discretization.m_c must be a power of two >= 2"),
    ('discretization.max_fine_dofs="x"', "discretization.max_fine_dofs must be an integer >= 1"),
    ("output.seed=1.7", "output.seed must be an integer"),
])
def test_wrongly_typed_overrides_are_configuration_errors(tmp_path, capsys, override, message):
    # a section replaced by a value, or a checked value of the wrong type, is
    # exit 2 with its name, not a traceback
    path = write_config(tmp_path, BASE_1D)
    with pytest.raises(ConfigurationError, match=message):
        load_config(path, overrides=[override])
    assert main(["study", "--config", path, "--out", str(tmp_path / "bad"),
                 "--override", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err


def test_unknown_keys_of_a_section_replaced_by_a_value_are_reported(tmp_path):
    payload = json.loads(json.dumps(BASE_1D))
    payload["study"]["epss"] = [0.5]
    with pytest.raises(ConfigurationError, match=r"unknown config keys: \['study.epss'\]"):
        load_config(write_config(tmp_path, payload), overrides=["study=5"])


def test_study_manifest_records_stage_telemetry(tmp_path):
    out = tmp_path / "out"
    assert main(["study", "--config", write_config(tmp_path, BASE_1D), "--out", str(out)]) == 0
    manifest = json.loads((out / "MANIFEST.json").read_text())
    stages = manifest["stages"]
    assert stages[0] == "setup" and stages[-1] == "write_report"
    assert len(manifest["stage_seconds"]) == len(stages)
    assert len(manifest["stage_peak_rss_mb"]) == len(stages)
    assert min(manifest["stage_seconds"]) >= 0.0
    assert sum(manifest["stage_seconds"]) <= manifest["runtime_seconds"]
    assert 0.0 < manifest["write_seconds"] <= manifest["runtime_seconds"]
    rss = manifest["stage_peak_rss_mb"]
    assert rss[0] > 0.0 and rss == sorted(rss)
    # timings stay out of the report
    assert "seconds" not in (out / "report.json").read_text()


def test_nonconvergence_exit_code_and_manifest(tmp_path, monkeypatch):
    import twoscale.macro as macro

    payload = json.loads(json.dumps(BASE_1D))
    payload["problem"]["coefficient"] = {
        "family": "ROSSELAND", "k_base": 2.0, "k_amplitude": 1.0, "b": 0.1,
    }
    monkeypatch.setattr(macro, "_MAX_STEPS", 1)
    out = tmp_path / "fail"
    code = main(["study", "--config", write_config(tmp_path, payload), "--out", str(out)])
    assert code == 3
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["status"] == "failed"
    assert "failed_stage" in manifest


@pytest.mark.parametrize("section, key, value", [
    ("nonlinear", "tol", 1e-14),
    ("nonlinear", "max_iter", 1),
    ("output", "formats", ["json"]),
    ("study", "orders", [0, 1, 2]),
])
def test_retired_newton_keys_are_unknown(tmp_path, capsys, section, key, value):
    # the Newton tolerance and step budget are constants of the solve, and a
    # study writes every report and truncation
    payload = json.loads(json.dumps(BASE_1D))
    payload.setdefault(section, {})[key] = value
    assert main(["study", "--config", write_config(tmp_path, payload),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: unknown config keys") and f"{section}.{key}" in err


def test_library_fine_solve_is_the_reference_subcommand_bit_for_bit(tmp_path):
    # the 2-D Rosseland reference of CI: called with no rule, solve_fine
    # solves with the model's rule, the one the subcommand solves with
    from twoscale.expansion import fine_grid_for, solve_fine

    payload = {
        "problem": {
            "dim": 2,
            "coefficient": {"family": "ROSSELAND", "k_base": 2.0, "k_amplitude": 1.0, "b": 1.0},
            "source": {"family": "CONSTANT", "value": 20.0},
            "u_range": [0.0, 2.0],
        },
        "discretization": {"m_x": 32, "m_c": 64, "cells_per_period": 16},
        "study": {"eps": ["1/8"]},
    }
    path, out = write_config(tmp_path, payload), tmp_path / "ref"
    assert main(["reference", "--config", path, "--out", str(out)]) == 0
    fine = fine_grid_for(1 / 8, 16, 2)
    u_eps, _ = solve_fine(load_config(path).build_model(), 1 / 8, fine)
    lib = write_field_csv([tmp_path / "lib.csv"], fine, [u_eps.values], [()])[0]
    assert lib.read_bytes() == (out / "u_eps_1over8.csv").read_bytes()


def column_stack_csv(grid, values, header_lines=()):
    """The writer's former formatting: every row of column_stack through repr."""
    coords = grid.dof_coords() if isinstance(grid, CellGrid) else lattice_points(grid.axes())
    lines = [f"# {line}" for line in header_lines]
    lines.append(",".join([f"x{d}" for d in range(grid.dim)] + ["value"]))
    table = np.column_stack([coords, np.asarray(values, dtype=float)]).tolist()
    lines.extend(",".join(map(repr, row)) for row in table)
    return "\n".join(lines) + "\n"


def test_write_field_csv_bytes_match_column_stack_formatting(tmp_path):
    rng = np.random.default_rng(3)
    cell, macro = CellGrid(2, 12), MacroGrid(2, 10)
    header = ["field=first_0", "u=0.5", "x=0.25 0.75", "m_c=12 dim=2"]
    # alternate grids so the one-grid prefix cache is rebuilt and reused;
    # MacroGrid(2, 100) has 10,201 nodes, more than one formatting pass
    for grid, lines in [
        (cell, header), (macro, ()), (cell, header), (MacroGrid(1, 7), ()), (CellGrid(1, 9), ()),
        (MacroGrid(2, 100), header),
    ]:
        values = rng.standard_normal(grid.ndof) * 10.0 ** rng.integers(-30, 30, grid.ndof)
        values[:4] = [-0.0, 1e-300, -1e-300, 0.1]
        special = [np.nan, np.inf, -np.inf, 5e-324, 1e-310, 1e16, 1e-5]
        values[-len(special) :] = special
        if grid.ndof > 8200:  # either side of the seam between two passes
            values[8188:8196] = special + [9999999999999998.0]
        path = tmp_path / "field.csv"
        write_field_csv([path], grid, [values], [lines])
        assert path.read_text() == column_stack_csv(grid, values, lines)
    # a stack of files on one grid, rows 0 and 2 bitwise equal
    stack = np.stack([values, 2.0 * values, values])
    paths = [tmp_path / f"stack{i}.csv" for i in range(3)]
    assert write_field_csv(paths, grid, stack, [header, (), header]) == paths
    for path, row, lines in zip(paths, stack, [header, (), header]):
        assert path.read_text() == column_stack_csv(grid, row, lines)
    with pytest.raises(ValueError):
        write_field_csv(paths, grid, stack, [header])
    with pytest.raises(ValueError):
        write_field_csv([tmp_path / "short.csv"], cell, [np.zeros(cell.ndof - 1)], [()])


def test_write_field_csv_is_a_repr_join(tmp_path):
    # rows of whole words: a coordinate prefix of 42 bytes, not a multiple of
    # 8, padded with NUL; a pass that crosses the CHUNK seam; bitwise-equal
    # rows that share their chunks
    from twoscale import _floatfmt, cli

    grid = MacroGrid(2, 96)
    axes = grid.axes()
    assert sum(max(len(repr(x)) for x in axis.tolist()) + 1 for axis in axes) == 42
    assert grid.ndof > _floatfmt.CHUNK
    rng = np.random.default_rng(32)
    values = rng.standard_normal(grid.ndof) * 10.0 ** rng.integers(-320, 300, grid.ndof)
    special = [
        0.0, -0.0, 1e-05, -1e-05, 0.0001, 9.999999999999999e-05, 1e16, 9999999999999998.0,
        -1.2345e-123, 2.5e200, 1e-100, 5e-324, -1e-310, 2.2250738585072014e-308,
        np.nan, np.inf, -np.inf,
    ]
    values[: len(special)] = special
    seam = _floatfmt.CHUNK - 8
    values[seam : seam + len(special)] = special
    stack = [values, -values, values.copy()]
    chunks = dict(cli._csv_rows(grid, stack))
    assert len(chunks[0]) == 2 and chunks[2] is chunks[0] and chunks[1] is not chunks[0]

    paths = [tmp_path / f"field{i}.csv" for i in range(3)]
    write_field_csv(paths, grid, stack, [["field=u"], (), ["field=u"]])
    nodes = lattice_points(axes).tolist()
    for path, row, head in zip(paths, stack, ["# field=u\n", "", "# field=u\n"]):
        lines = [f"{x0!r},{x1!r},{v!r}\n" for (x0, x1), v in zip(nodes, row.tolist())]
        assert path.read_bytes() == (head + "x0,x1,value\n" + "".join(lines)).encode()


def test_field_files_are_written_from_shared_row_chunks(tmp_path, monkeypatch):
    # a file of more than one formatting pass is its list of chunks, shared by
    # bitwise-equal rows, written by writev; short writes and a small limit on
    # buffers per call only split the calls, never the bytes
    import os

    from twoscale import cli

    grid = MacroGrid(2, 100)  # 10,201 nodes: two passes of 8,192
    x = lattice_points(grid.axes())
    values = np.sin(7.0 * x[:, 0]) * np.exp(x[:, 1]) - 0.0
    values[::97] = -0.0
    stack = np.stack([values, 2.0 * values, values.copy()])
    rows = dict(cli._csv_rows(grid, stack))
    assert len(rows[0]) == 2 and rows[0] is rows[2] and rows[1] is not rows[0]
    assert all(isinstance(chunk, bytes) for chunk in rows[1])

    calls = []
    writev = os.writev

    def short_writev(fd, buffers):  # at most 1,000 bytes of at most 2 buffers
        calls.append(len(buffers))
        assert len(buffers) <= 2
        return writev(fd, [memoryview(b"".join(bytes(b) for b in buffers))[:1000]])

    monkeypatch.setattr(cli, "_IOV_MAX", 2)
    monkeypatch.setattr(cli.os, "writev", short_writev)
    header = ["field=u", "eps=1/8"]
    paths = [tmp_path / f"f{i}.csv" for i in range(3)]
    write_field_csv(paths, grid, stack, [header, (), header])
    for path, row, lines in zip(paths, stack, [header, (), header]):
        assert path.read_text() == column_stack_csv(grid, row, lines)
    assert len(calls) == sum(-(-path.stat().st_size // 1000) for path in paths)
    monkeypatch.undo()
    write_field_csv([tmp_path / "once.csv"], grid, [values], [()])
    assert (tmp_path / "once.csv").read_bytes() == paths[0].read_bytes().split(b"\n", 2)[2]
