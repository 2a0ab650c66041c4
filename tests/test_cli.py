import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import relaycast
from relaycast import PowerConfig, TwoLayerAllocation, simplex_equal_throughput
from relaycast.cli import main
from relaycast.validation import family_z


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_rate_matches_library_call(tmp_path):
    out = tmp_path / "rate.csv"
    rc = main(["rate", "--scheme", "simplex-equal", "--ps-db", "10",
               "--pr-db", "10", "--q-db", "20", "--alpha", "0.7",
               "--eta1", "0.3", "--eta2", "1.8", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 1
    alloc = TwoLayerAllocation(alpha=0.7, eta1=0.3, eta2=1.8)
    cfg = PowerConfig(p_s=10.0, p_r=10.0, q=100.0)
    want = simplex_equal_throughput(alloc, cfg).r_av
    assert float(rows[0]["throughput_nats"]) == pytest.approx(want, rel=1e-11)
    manifest = json.loads((str(out) + ".manifest.json" and
                           (tmp_path / "rate.csv.manifest.json").read_text()))
    assert manifest["seed"] == 20_240_001 and "relaycast" in manifest["artifact"]


def test_bits_flag_converts_units(tmp_path):
    nats_out, bits_out = tmp_path / "n.csv", tmp_path / "b.csv"
    base = ["rate", "--scheme", "single-user", "--ps-db", "10"]
    assert main(base + ["--out", str(nats_out)]) == 0
    assert main(base + ["--bits", "--out", str(bits_out)]) == 0
    nats = float(read_csv(nats_out)[0]["throughput_nats"])
    bits = float(read_csv(bits_out)[0]["throughput_bits"])
    assert bits == pytest.approx(nats / math.log(2.0), rel=1e-10)


def test_figure_preset_schema_and_reproducibility(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    argv = ["figure", "fig6", "--ps-db", "0,10", "--q-db", "15"]
    assert main(argv + ["--out", str(d1)]) == 0
    assert main(argv + ["--out", str(d2)]) == 0
    rows = read_csv(d1 / "fig6.csv")
    assert list(rows[0].keys()) == ["ps_db", "q_db", "pr_over_ps", "scheme",
                                    "throughput_nats"]
    assert {r["scheme"] for r in rows} == {"direct-2", "simplex-equal"}
    assert (d1 / "fig6.csv").read_bytes() == (d2 / "fig6.csv").read_bytes()
    manifest = json.loads((d1 / "fig6.csv.manifest.json").read_text())
    assert manifest["grid"]["ps_db"] == [0.0, 10.0]


def test_figure_rejects_unknown_preset(capsys):
    with pytest.raises(SystemExit) as err:
        main(["figure", "fig99", "--out", "x"])
    assert err.value.code == 2


def test_unwritable_output_fails(tmp_path):
    target = tmp_path / "file.csv"
    target.write_text("x")
    rc = main(["figure", "fig6", "--ps-db", "0", "--q-db", "15",
               "--out", str(target)])  # a file where a directory must go
    assert rc != 0


def test_validate_small_run(tmp_path):
    out = tmp_path / "report.csv"
    # the family-wise bound for the 12 comparisons, with the blocks raised
    # by (3.93 / 3)^2 over 20000 at |z| <= 3
    rc = main(["validate", "--draws", "2", "--blocks", "35000", "--seed", "7",
               "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 12  # 6 schemes x 2 draws
    assert all(abs(float(r["z"])) <= family_z(12) for r in rows)


def test_sweep_grid_order_and_workers(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--scheme", "single-user", "--ps-db-start", "0",
               "--ps-db-stop", "10", "--ps-db-step", "5", "--workers", "2",
               "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert [r["ps_db"] for r in rows] == ["0", "5", "10"]
    vals = [float(r["throughput_nats"]) for r in rows]
    assert vals == sorted(vals)


@pytest.mark.parametrize("step,want", [("0.6", ["0", "0.6"]), ("0.4", ["0", "0.4", "0.8"])])
def test_sweep_grid_stops_at_or_below_its_stop(tmp_path, step, want):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scheme", "single-user", "--ps-db-start", "0",
                 "--ps-db-stop", "1", "--ps-db-step", step, "--out", str(out)]) == 0
    assert [r["ps_db"] for r in read_csv(out)] == want


def test_sweep_plans_once_per_source_power(tmp_path, monkeypatch):
    import relaycast.figures as figures

    calls = []
    plan = figures.oblivious_rate_plan

    def counted(p_s):
        calls.append(p_s)
        return plan(p_s)

    monkeypatch.setattr(figures, "oblivious_rate_plan", counted)
    outputs = []
    for workers in ("1", "2"):
        calls.clear()
        out = tmp_path / f"sweep{workers}.csv"
        rc = main(["sweep", "--scheme", "simplex-equal", "--q-db", "15,20",
                   "--ratio", "0.5,1", "--ps-db-start", "0", "--ps-db-stop", "10",
                   "--ps-db-step", "5", "--workers", workers, "--out", str(out)])
        assert rc == 0
        assert len(calls) == len(set(calls)) == 3
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    rows = read_csv(tmp_path / "sweep1.csv")
    assert len(rows) == 12
    p_s = 10.0
    want = simplex_equal_throughput(plan(p_s), PowerConfig(p_s=p_s, p_r=p_s, q=100.0))
    got = [r for r in rows if (r["ps_db"], r["q_db"], r["pr_over_ps"]) == ("10", "20", "1")]
    assert float(got[0]["throughput_nats"]) == float(f"{want.r_av:.12g}")


def test_sweep_rejects_bad_grid():
    with pytest.raises(SystemExit):
        main(["sweep", "--scheme", "single-user", "--ps-db-start", "10",
              "--ps-db-stop", "0", "--ps-db-step", "5"])


@pytest.mark.parametrize("flag,value", [
    *((flag, value) for flag in ("--ps-db-start", "--ps-db-stop", "--ps-db-step")
      for value in ("nan", "inf")),
    ("--ps-db-step", "1e-320"),  # finite bounds, but (stop - start) / step overflows
    ("--ps-db-step", "1e-300"),  # a finite count of 10^301 points
])
def test_sweep_rejects_a_non_finite_grid(flag, value):
    grid = {"--ps-db-start": "0", "--ps-db-stop": "10", "--ps-db-step": "5", flag: value}
    argv = ["sweep", "--scheme", "single-user"]
    for name, text in grid.items():
        argv += [name, text]
    with pytest.raises(SystemExit, match="invalid --ps-db grid"):
        main(argv)


def test_optimize_subcommand(tmp_path):
    out = tmp_path / "opt.csv"
    rc = main(["optimize", "--scheme", "direct", "--free", "alpha,eta1,eta2",
               "--ps-db", "10", "--coarse", "10", "--out", str(out)])
    assert rc == 0
    row = read_csv(out)[0]
    assert 0.0 <= float(row["alpha"]) <= 1.0
    assert float(row["eta1"]) <= float(row["eta2"])
    assert int(row["n_evals"]) > 0


@pytest.mark.parametrize("coarse", ["0", "-2"])
def test_optimize_rejects_a_coarse_grid_below_one(coarse, capsys):
    with pytest.raises(SystemExit) as err:
        main(["optimize", "--scheme", "direct", "--coarse", coarse])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "--coarse: must be >= 1" in stderr and "Traceback" not in stderr


def test_validate_reports_violations_and_still_writes_its_csv(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(["validate", "--draws", "1", "--blocks", "2000", "--z-max", "0",
               "--out", str(out)])
    assert rc == 1
    violations = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("violation: ")]
    assert len(violations) == 6  # every case: no |z| is <= 0
    assert len(read_csv(out)) == 6


@pytest.mark.parametrize("z_max", ["-1", "nan", "-inf"])
def test_validate_rejects_a_z_max_below_zero_or_nan(z_max, capsys):
    # they used to run every case and then flag each row as a VIOLATION
    with pytest.raises(SystemExit) as err:
        main(["validate", "--draws", "1", "--blocks", "100", f"--z-max={z_max}"])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "--z-max: must be >= 0" in stderr and "Traceback" not in stderr


def test_optimize_requires_all_parameters():
    with pytest.raises(SystemExit):
        main(["optimize", "--scheme", "direct", "--free", "alpha"])


@pytest.mark.parametrize("argv", [
    # the simplex-unequal form rejects beta < alpha
    ["rate", "--scheme", "simplex-unequal", "--alpha", "0.7", "--beta", "0.3",
     "--eta1", "0.3", "--eta2", "1.8"],
    # a plan with eta1 > eta2
    ["rate", "--scheme", "simplex-equal", "--alpha", "0.7", "--eta1", "1.8", "--eta2", "0.3"],
    # no source power (it printed "relaycast: float division by zero")
    ["optimize", "--scheme", "miso-equal", "--ps-db=-inf"],
])
def test_library_errors_exit_with_one_line(tmp_path, capsys, argv):
    rc = main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("relaycast: ") and err.count("\n") == 1
    expected = {"simplex-unequal": "beta >= alpha required",
                "simplex-equal": "eta1 <= eta2 required",
                "miso-equal": "p_s must be positive and finite, got 0.0"}
    assert expected[argv[2]] in err


def test_an_allocation_failure_exits_with_one_line(monkeypatch, capsys):
    # --coarse 2000000 asks for a 3.64 TiB eta-pair mask; no test allocates it
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 3.64 TiB for an array")

    monkeypatch.setattr(relaycast.cli, "maximize_throughput", fail)
    assert main(["optimize", "--scheme", "direct", "--ps-db", "10", "--coarse", "2000000"]) == 1
    err = capsys.readouterr().err
    assert err == "relaycast: Unable to allocate 3.64 TiB for an array\n"


@pytest.mark.parametrize("argv", [
    # scipy's quad warned on this simplex plan, in three lines of its own
    # format; the lower range's fixed rule leaves nothing to warn about
    ["rate", "--scheme", "simplex-equal", "--alpha", "0.48717948717948717",
     "--eta1", "3.5897435897435894", "--eta2", "3.5897435897435894"],
    # P_r/P_s = 10^12: a doubling bracket clamped the upper layering boundary
    # at 1e9 and warned; the root is now exact
    ["rate", "--scheme", "continuous-miso", "--ps-db", "-20", "--pr-db", "100"],
    # one-layer plans whose t overflows near 0, where beta_bar = 0 made the
    # layer-1 threshold warn of inf * 0
    ["rate", "--scheme", "simplex-equal", "--ps-db", "40", "--pr-db", "40", "--q-db", "0.4",
     "--alpha", "1", "--eta1", "1", "--eta2", "1"],
    ["rate", "--scheme", "single-sdf", "--ps-db", "40", "--pr-db", "40", "--q-db", "0.4",
     "--rate", "9.2"],
    # P_r/P_s = 10^12 at P_s = -70 dB: the clamped boundary left no layering
    # range, and the command failed
    ["rate", "--scheme", "continuous-miso", "--ps-db", "-70", "--pr-db", "50", "--q-db", "0"],
])
def test_warnings_print_one_line_each(tmp_path, argv):
    # inputs that once warned (or failed) now succeed silently, in a fresh
    # interpreter as for a user; test_a_library_warning_prints_one_line keeps
    # the one-line format
    env = {**os.environ, "PYTHONPATH": str(Path(relaycast.__file__).resolve().parent.parent)}
    run = subprocess.run([sys.executable, "-m", "relaycast.cli", *argv,
                          "--out", str(tmp_path / "out.csv")],
                         capture_output=True, text=True, env=env, check=False)
    assert run.returncode == 0
    assert run.stderr == ""
    before = warnings.formatwarning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv + ["--out", str(tmp_path / "again.csv")]) == 0
    assert warnings.formatwarning is before


def test_a_library_warning_prints_one_line(tmp_path):
    # no documented input warns, so a library call warns on purpose, over
    # two lines; a fresh interpreter, so the warning reaches stderr as it
    # does for a user
    code = ("import sys, warnings\n"
            "import relaycast.broadcast as broadcast, relaycast.cli as cli\n"
            "rate = broadcast.siso_broadcast_rate\n"
            "def warned(p_s):\n"
            "    warnings.warn('a library warning\\nover two lines')\n"
            "    return rate(p_s)\n"
            "broadcast.siso_broadcast_rate = warned\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(relaycast.__file__).resolve().parent.parent)}
    run = subprocess.run([sys.executable, "-c", code, "rate", "--scheme", "continuous-siso",
                          "--out", str(tmp_path / "out.csv")],
                         capture_output=True, text=True, env=env, check=False)
    assert run.returncode == 0
    assert run.stderr == "relaycast: warning: a library warning over two lines\n"


def test_rate_of_a_two_layer_scheme_needs_its_plan():
    with pytest.raises(SystemExit) as err:
        main(["rate", "--scheme", "simplex-equal", "--alpha", "0.7"])
    assert err.value.code == "this scheme needs --alpha, --eta1 and --eta2"


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"])
def test_unreadable_config_exits_with_one_line(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    assert main(["--config", str(cfg), "rate", "--scheme", "single-user"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("relaycast: cannot read config: ") and err.count("\n") == 1


def test_optimize_simplex_equal_over_its_default_free_set(tmp_path):
    # the coarse grid holds alpha = 0 and eta1 = eta2 plans
    out = tmp_path / "opt.csv"
    assert main(["optimize", "--scheme", "simplex-equal", "--ps-db", "10",
                 "--coarse", "10", "--out", str(out)]) == 0
    row = read_csv(out)[0]
    assert 0.0 < float(row["throughput_nats"]) < math.inf


def test_rate_and_sweep_agree_on_every_shared_scheme(tmp_path):
    # one table per kind of scheme: rate at its defaults (P_s = P_r = 10 dB,
    # Q = 20 dB) and a one-point sweep give the same throughput, miso-single
    # included
    from relaycast import figures

    for scheme in (*figures._SINGLE_LAYER, *figures._BOUNDS):
        rate_out, sweep_out = tmp_path / f"r-{scheme}.csv", tmp_path / f"s-{scheme}.csv"
        assert main(["rate", "--scheme", scheme, "--out", str(rate_out)]) == 0
        assert main(["sweep", "--scheme", scheme, "--ps-db-start", "10",
                     "--ps-db-stop", "10", "--ps-db-step", "1", "--q-db", "20",
                     "--ratio", "1", "--out", str(sweep_out)]) == 0
        want = read_csv(rate_out)[0]["throughput_nats"]
        assert [r["throughput_nats"] for r in read_csv(sweep_out)] == [want], scheme


def test_two_layer_scheme_names_resolve_through_the_table():
    from relaycast import figures, twolayer, validation
    from relaycast.cli import build_parser

    def choices(command):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        return set(next(a for a in sub.choices[command]._actions
                        if a.dest == "scheme").choices)

    table = set(twolayer.CLOSED_FORMS)
    assert table == {"direct", "miso-equal", "miso-unequal", "simplex-equal",
                     "simplex-unequal"}
    assert choices("optimize") == table
    assert choices("rate") - table == {
        "single-user", "single-sdf", "miso-single", "ergodic-miso",
        "continuous-siso", "continuous-relay", "continuous-miso"}
    assert table <= choices("rate")
    assert choices("rate") - table == set(figures._SINGLE_LAYER) | set(figures._BOUNDS)
    assert choices("sweep") == set(figures._SINGLE_LAYER) | set(figures._BOUNDS) | {
        "direct-2", "simplex-equal", "simplex-unequal-opt", "miso-equal"}
    assert set(validation.SCHEMES) - table == {"single-layer-SDF"}
    assert table <= set(validation.SCHEMES)


def test_config_file_and_env_seed(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ps_db": [5.0], "q_db": [15.0]}))
    out = tmp_path / "figs"
    assert main(["--config", str(cfg), "figure", "fig6", "--out", str(out)]) == 0
    rows = read_csv(out / "fig6.csv")
    assert {r["ps_db"] for r in rows} == {"5"}

    monkeypatch.setenv("RELAYCAST_SEED", "31337")
    out2 = tmp_path / "r.csv"
    assert main(["rate", "--scheme", "single-user", "--ps-db", "0",
                 "--out", str(out2)]) == 0
    manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
    assert manifest["seed"] == 31337


@pytest.mark.parametrize("argv", [
    ["rate", "--scheme", "single-user", "--workers", "2"],  # rate has no simulation
    ["optimize", "--scheme", "direct", "--workers", "2"],  # nor has optimize
    ["validate", "--draws", "1", "--blocks", "100", "--workers", "0"],
    ["figure", "fig9", "--blocks", "100", "--workers", "-1"],
])
def test_workers_is_rejected_where_unread_or_below_one(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "--workers" in stderr and "Traceback" not in stderr


def test_validate_rejects_draws_below_one(capsys):
    # -3 draws ran no case: a header-only CSV and exit 0
    with pytest.raises(SystemExit) as err:
        main(["validate", "--draws", "-3", "--blocks", "100"])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "--draws" in stderr and "Traceback" not in stderr


@pytest.mark.parametrize("argv", [
    ["validate", "--draws", "1", "--blocks", "0"],
    ["figure", "fig9", "--ps-db", "0", "--blocks", "-5"],
])
def test_blocks_below_one_is_a_usage_error(argv, capsys):
    # it used to exit 1 only once the command had started (fig9 after its plan)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "--blocks" in stderr and "Traceback" not in stderr


@pytest.mark.parametrize("argv, out, csv", [
    (["validate", "--draws", "1", "--blocks", "200000", "--z-max", "inf"], "v.csv", "v.csv"),
    (["figure", "fig9", "--ps-db", "0,10", "--q-db", "0,10", "--blocks", "200000"],
     ".", "fig9.csv"),
])
def test_simulations_write_the_same_bytes_at_any_worker_count(tmp_path, argv, out, csv):
    # four chunks per simulation: two workers run (0-1) and (2-3), and the
    # chunks' statistics still merge in chunk order
    outputs = []
    for workers in ("1", "2"):
        (tmp_path / workers).mkdir()
        assert main(argv + ["--workers", workers, "--out", str(tmp_path / workers / out)]) == 0
        outputs.append((tmp_path / workers / csv).read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv,csv", [
    (["rate", "--scheme", "single-user"], ""),
    (["figure", "fig7", "--q-db", "10", "--ratio", "1"], "fig7.csv"),
])
@pytest.mark.parametrize("ps_db", [[5.0], 5])
def test_config_values_parse_like_flags(tmp_path, capsys, argv, csv, ps_db):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ps_db": ps_db}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), *argv, "--out", str(out)]) == 0
    assert {r["ps_db"] for r in read_csv(out / csv)} == {"5"}
    cfg.write_text(json.dumps({"ps_db": "abc"}))
    with pytest.raises(SystemExit) as err:
        main(["--config", str(cfg), *argv])
    assert err.value.code == 2
    assert "argument --ps-db: invalid" in capsys.readouterr().err


def test_a_bad_seed_variable_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("RELAYCAST_SEED", "abc")
    with pytest.raises(SystemExit) as err:
        main(["rate", "--scheme", "single-user"])
    assert err.value.code == 2
    assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err


def test_validate_bits_converts_its_rate_columns(tmp_path):
    out = tmp_path / "report.csv"
    assert main(["validate", "--draws", "1", "--blocks", "20000", "--seed", "7",
                 "--bits", "--out", str(out)]) == 0
    assert list(read_csv(out)[0]) == ["scheme", "index", "analytic_bits", "mc_bits",
                                      "stderr_bits", "z"]


def test_figure_fig5_takes_a_source_power_list(tmp_path):
    assert main(["figure", "fig5", "--ps-db", "30", "--pr-db", "0,20",
                 "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "fig5.csv")
    assert [(r["ps_db"], r["pr_db"]) for r in rows] == [("30", "0")] * 2 + [("30", "20")] * 2


def _preset_parsers():
    from relaycast.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    figure = sub.choices["figure"]
    return next(a for a in figure._actions if a.dest == "name").choices


def test_each_preset_takes_exactly_the_grid_flags_of_its_signature():
    import inspect

    from relaycast import figures

    common = {"-h", "--help", "--out", "--bits", "--seed", "--workers"}
    parsers = _preset_parsers()
    assert set(parsers) == set(figures.PRESETS)
    pairs = 0
    for name, preset in figures.PRESETS.items():
        options = {flag for action in parsers[name]._actions for flag in action.option_strings}
        assert "--workers" in options  # the benchmark passes it to every preset
        flags = options - common
        params = {flag[2:].replace("-", "_") for flag in flags}
        params = {"ratios" if p == "ratio" else p for p in params}
        assert params == set(inspect.signature(preset).parameters) - {"seed", "workers"}, name
        pairs += len(flags)
    assert pairs == 20


def test_a_grid_flag_the_preset_does_not_read_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["figure", "fig3", "--ps-db", "10", "--q-db", "5", "--out", str(tmp_path)])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "unrecognized arguments: --q-db 5" in stderr and "Traceback" not in stderr
    assert not (tmp_path / "fig3.csv").exists()


def test_config_keys_a_preset_does_not_take_are_ignored(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q_db": [15.0], "blocks": 7}))
    plain, configured = tmp_path / "plain", tmp_path / "configured"
    assert main(["figure", "fig3", "--ps-db", "10", "--out", str(plain)]) == 0
    assert main(["--config", str(cfg), "figure", "fig3", "--ps-db", "10",
                 "--out", str(configured)]) == 0
    for name in ("fig3.csv", "fig3.csv.manifest.json"):
        assert (plain / name).read_bytes() == (configured / name).read_bytes()
    assert json.loads((plain / "fig3.csv.manifest.json").read_text())["grid"] == {
        "ps_db": [10.0]}


@pytest.mark.parametrize("config", [
    {"ratios": [2.0]},  # the manifest's grid key; the option is ratio
    {"ps-db": [5.0], "ps_db": [10.0]},  # the flag's spelling
])
def test_a_config_key_that_names_no_option_is_rejected(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["--config", str(cfg), "figure", "fig7", "--ps-db", "10", "--q-db", "10",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("relaycast: config keys that name no option: ")
    assert err.count("\n") == 1 and next(iter(config)) in err
    assert not (tmp_path / "fig7.csv").exists()


@pytest.mark.parametrize("argv,config", [
    (["figure", "fig6", "--ps-db", ",", "--q-db", "15"], None),
    (["sweep", "--scheme", "single-user", "--q-db", ","], None),
    (["figure", "fig7"], {"ps_db": []}),
])
def test_an_empty_list_is_a_usage_error(tmp_path, capsys, argv, config):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg), *argv]
    with pytest.raises(SystemExit) as err:
        main([*argv, "--out", str(tmp_path / "out")])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "no values in" in stderr and "Traceback" not in stderr


def test_validate_calls_an_undecidable_convention_check_inconclusive(capsys):
    # at 2,000 blocks the two readings lie only ~8 z apart
    assert main(["validate", "--draws", "1", "--blocks", "2000", "--z-max", "inf"]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("convention-check"))
    assert line.endswith("(inconclusive)")


@pytest.mark.parametrize("scheme", ["single-user", "single-sdf", "miso-single"])
@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_a_non_finite_rate_exits_with_one_line(scheme, rate, capsys):
    assert main(["rate", "--scheme", scheme, f"--rate={rate}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"relaycast: rate must be finite and nonnegative, got {rate}\n"


def test_validate_takes_a_negative_seed(capsys):
    # the corpus keys its Philox with the seed modulo 2**64, as every MC run does
    assert main(["validate", "--draws", "1", "--blocks", "2000", "--seed", "-1",
                 "--z-max", "inf"]) == 0
