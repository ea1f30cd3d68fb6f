import csv
import json
import math
import subprocess
import sys

import pytest

from projcut.cli import CEILINGS, load_config, main
from projcut.errors import ConfigError

BASE_SET = {
    "balls": [
        {"center": [[1, 0], [0.2, 0.1]], "radius": 0.05},
        {"center": [[0.3, 0], [1, 0]], "radius": 0.05},
    ]
}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "projcut", *args],
                          capture_output=True, text=True)


def write_config(path, **overrides):
    cfg = {
        "k": 1, "sigma": 0.1, "delta0": 0.4, "S": 600, "seed": 42,
        "alpha": 1, "deltas": [0.1], "set": BASE_SET,
        "grid": 40, "n_inner": 40, "n_outer": 40,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def verify_config(tmp_path_factory):
    return write_config(tmp_path_factory.mktemp("cfg") / "verify.json")


@pytest.fixture(scope="module")
def scaling_config(tmp_path_factory):
    return write_config(tmp_path_factory.mktemp("cfg") / "scaling.json",
                        deltas=[0.2, 0.1, 0.05], slope_band=[-2.5, -0.3])


def test_verify_passes_and_writes_schema(verify_config, tmp_path):
    out = tmp_path / "out"
    result = run_cli("verify", "--config", str(verify_config), "--out", str(out))
    assert result.returncode == 0, result.stderr
    payload = json.loads((out / "verify_0.1.json").read_text())
    assert set(payload) == {"max_dev_on_K", "max_val_off_Kdelta", "euclid_audit_max",
                            "euclid_audit_bound", "fs_audit_max", "fs_audit_bound", "pass"}
    assert payload["pass"] is True
    assert payload["max_dev_on_K"] == 0.0
    assert payload["max_val_off_Kdelta"] == 0.0


def test_verify_rejects_delta_beyond_delta0(tmp_path):
    cfg = write_config(tmp_path / "bad.json", deltas=[0.5])
    result = run_cli("verify", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 2
    assert "deltas" in result.stderr


def test_verify_single_sample_still_passes(tmp_path):
    cfg = write_config(tmp_path / "s1.json", S=1, n_inner=20, n_outer=20)
    result = run_cli("verify", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr


def test_verify_wide_sigma_passes(tmp_path):
    # the log chart is not defined on every group element the wide sigma-ball
    # reaches; config creation must not depend on it
    cfg = write_config(tmp_path / "wide.json", sigma=0.5, S=300, n_inner=20, n_outer=20)
    out = tmp_path / "out"
    result = run_cli("verify", "--config", str(cfg), "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert json.loads((out / "verify_0.1.json").read_text())["pass"] is True


def test_verify_reruns_byte_identical(verify_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("verify", "--config", str(verify_config), "--out", str(out1)).returncode == 0
    assert run_cli("verify", "--config", str(verify_config), "--out", str(out2)).returncode == 0
    assert (out1 / "verify_0.1.json").read_bytes() == (out2 / "verify_0.1.json").read_bytes()


def test_seed_override_changes_report(verify_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("verify", "--config", str(verify_config), "--out", str(out1)).returncode == 0
    assert run_cli("verify", "--config", str(verify_config), "--out", str(out2),
                   "--seed", "7").returncode == 0
    assert (out1 / "verify_0.1.json").read_bytes() != (out2 / "verify_0.1.json").read_bytes()


def test_scaling_writes_csv_and_summary(scaling_config, tmp_path):
    out = tmp_path / "out"
    result = run_cli("scaling", "--config", str(scaling_config), "--out", str(out),
                     "--threads", "1")
    assert result.returncode == 0, result.stderr
    lines = (out / "scaling_alpha1.csv").read_text().splitlines()
    assert lines[0] == "delta,theta,seminorm"
    assert len(lines) == 4
    deltas = [float(line.split(",")[0]) for line in lines[1:]]
    assert deltas == sorted(deltas, reverse=True)
    summary = json.loads((out / "scaling_alpha1_summary.json").read_text())
    assert set(summary) == {"slope", "stderr", "alpha"}
    assert summary["alpha"] == 1
    assert -2.5 <= summary["slope"] <= -0.3


def test_scaling_band_violation_exits_1(tmp_path):
    cfg = write_config(tmp_path / "band.json", deltas=[0.2, 0.1, 0.05],
                       slope_band=[-0.05, -0.01])
    result = run_cli("scaling", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--threads", "1")
    assert result.returncode == 1
    assert "slope" in result.stderr


def test_scaling_needs_three_deltas(tmp_path):
    cfg = write_config(tmp_path / "two.json", deltas=[0.2, 0.1])
    result = run_cli("scaling", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 2
    assert "deltas" in result.stderr


@pytest.mark.parametrize("deltas", [[0.1, 0.1, 0.1], [0.2, 0.1, 0.1]])
def test_scaling_rejects_repeated_deltas(deltas, tmp_path):
    cfg = write_config(tmp_path / "repeat.json", deltas=deltas)
    result = run_cli("scaling", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--threads", "1")
    assert result.returncode == 2
    assert "config error: deltas:" in result.stderr


def test_scaling_threads_agree(scaling_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("scaling", "--config", str(scaling_config), "--out", str(out1),
                   "--threads", "1").returncode == 0
    assert run_cli("scaling", "--config", str(scaling_config), "--out", str(out2),
                   "--threads", "2").returncode == 0
    assert (out1 / "scaling_alpha1.csv").read_bytes() == (out2 / "scaling_alpha1.csv").read_bytes()


def test_eval_center_and_far_point(verify_config, tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("re0,im0,re1,im1\n1,0,0.2,0.1\n0,0,1,0\n")
    out = tmp_path / "out"
    result = run_cli("eval", "--config", str(verify_config), "--points", str(pts),
                     "--out", str(out))
    assert result.returncode == 0, result.stderr
    with open(out / "pts_chi.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert float(rows[0]["chi"]) == 1.0  # a center of the set
    assert float(rows[1]["chi"]) == 0.0  # far away


def test_eval_empty_input(verify_config, tmp_path):
    pts = tmp_path / "empty.csv"
    pts.write_text("")
    out = tmp_path / "out"
    result = run_cli("eval", "--config", str(verify_config), "--points", str(pts),
                     "--out", str(out))
    assert result.returncode == 0
    assert (out / "empty_chi.csv").read_text() == "re0,im0,re1,im1,chi\n"


@pytest.mark.parametrize("points", ["", "re0,im0,re1,im1\n", "re0,im0,re1,im1\n1,0,0,0\n"])
def test_eval_config_error_writes_nothing(points, tmp_path):
    # verify refuses this config; eval must too, whatever the points, and
    # before it opens the output
    cfg = write_config(tmp_path / "wide.json", sigma=1.0, delta0=6.0)
    pts = tmp_path / "pts.csv"
    pts.write_text(points)
    out = tmp_path / "out"
    result = run_cli("eval", "--config", str(cfg), "--points", str(pts), "--out", str(out))
    assert result.returncode == 2
    assert "delta0" in result.stderr
    assert not (out / "pts_chi.csv").exists()


def test_eval_malformed_row_reports_line(verify_config, tmp_path):
    pts = tmp_path / "bad.csv"
    pts.write_text("re0,im0,re1,im1\n1,0,0.2,0.1\n1,0,oops,0\n")
    result = run_cli("eval", "--config", str(verify_config), "--points", str(pts),
                     "--out", str(tmp_path / "out"))
    assert result.returncode == 2
    assert "row 3" in result.stderr


def test_eval_rejects_zero_vector_row(verify_config, tmp_path):
    pts = tmp_path / "zero.csv"
    pts.write_text("re0,im0,re1,im1\n0,0,0,0\n")
    result = run_cli("eval", "--config", str(verify_config), "--points", str(pts),
                     "--out", str(tmp_path / "out"))
    assert result.returncode == 2
    assert "row 2" in result.stderr


def test_eval_rejects_wrong_header(verify_config, tmp_path):
    pts = tmp_path / "hdr.csv"
    pts.write_text("x0,y0,x1,y1\n1,0,0,0\n")
    result = run_cli("eval", "--config", str(verify_config), "--points", str(pts),
                     "--out", str(tmp_path / "out"))
    assert result.returncode == 2
    assert "header" in result.stderr


def test_diagnostics(verify_config, tmp_path):
    out = tmp_path / "out"
    result = run_cli("diagnostics", "--config", str(verify_config), "--out", str(out))
    assert result.returncode == 0, result.stderr
    payload = json.loads((out / "diagnostics.json").read_text())
    assert payload["exp_log_roundtrip_max"] <= 1e-10
    assert abs(payload["jacobian_determinant"]["0"] - 1.0) <= 1e-6
    assert abs(payload["measure_mass_quadrature"] - 1.0) <= 1e-3
    assert abs(payload["measure_mass_mc"] - 1.0) <= 3 * payload["measure_mass_mc_stderr"]
    assert set(payload["jacobian_determinant"]) == {"0", "0.005", "0.01", "0.02"}


def test_unknown_config_field(tmp_path):
    cfg = write_config(tmp_path / "unknown.json")
    data = json.loads(cfg.read_text())
    data["bogus"] = 1
    cfg.write_text(json.dumps(data))
    result = run_cli("verify", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 2
    assert "bogus" in result.stderr


def test_out_dir_is_an_unknown_config_field(tmp_path):
    # output goes to --out; the config key that nothing read is gone
    cfg = write_config(tmp_path / "out_dir.json", out_dir=str(tmp_path / "elsewhere"))
    result = run_cli("verify", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 2
    assert "out_dir: unknown config field" in result.stderr


def test_verify_and_eval_run_without_scipy(verify_config, tmp_path):
    # numpy is the only run-time dependency: block every scipy import
    pts = tmp_path / "pts.csv"
    pts.write_text("re0,im0,re1,im1\n1,0,0.2,0.1\n0,0,1,0\n")
    verify = ["verify", "--config", str(verify_config), "--out", str(tmp_path / "v")]
    evaluate = ["eval", "--config", str(verify_config), "--points", str(pts),
                "--out", str(tmp_path / "e")]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from projcut import cli\n"
        f"print(cli.main({verify!r}), cli.main({evaluate!r}))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "0"]


def test_missing_set_field(tmp_path):
    cfg = write_config(tmp_path / "noset.json")
    data = json.loads(cfg.read_text())
    del data["set"]
    cfg.write_text(json.dumps(data))
    result = run_cli("verify", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 2
    assert "set" in result.stderr


@pytest.mark.parametrize("field, value", [
    ("k", 1.7), ("k", True), ("alpha", 1.9), ("S", 300.9), ("S", "300"),
    ("seed", 3.5), ("grid", False), ("n_inner", 20.5), ("n_outer", 20.0),
    ("sigma", "0.1"), ("sigma", True), ("sigma", math.inf), ("delta0", math.inf),
    pytest.param("delta0", 10 ** 400, id="'delta0'-10**400"),
    ("deltas", [0.1, "0.05"]), ("deltas", [True]), ("slope_band", [-2.0, True]),
], ids=repr)
def test_config_numbers_are_not_coerced(field, value, tmp_path, capsys):
    # integer fields take JSON integers, real fields finite JSON numbers:
    # nothing is truncated, parsed from a string or read from a boolean
    cfg = write_config(tmp_path / "bad.json", **{field: value})
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("field", sorted(CEILINGS))
def test_integer_fields_have_ceilings(field, tmp_path, capsys):
    # refused at parse time, before anything of that size is allocated
    for value in (CEILINGS[field] + 1, 10 ** 30):
        cfg = write_config(tmp_path / "huge.json", **{field: value})
        with pytest.raises(ConfigError, match=f"^{field}: must be at most"):
            load_config(cfg)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {field}:" in capsys.readouterr().err


def test_k_out_of_range(tmp_path):
    cfg = write_config(tmp_path / "k9.json", k=9)
    result = run_cli("verify", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 2
    assert "k" in result.stderr


def test_verify_unreachable_distance_is_a_config_error(tmp_path):
    # one ball covering nearly all of P^1 leaves no point at distance delta
    big = {"balls": [{"center": [[1, 0], [0, 0]], "radius": 1.5}]}
    cfg = write_config(tmp_path / "big.json", set=big, S=300)
    result = run_cli("verify", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert result.returncode == 2
    assert "set" in result.stderr


def test_verify_k3_passes_on_seed_zero(tmp_path):
    # the sampled distortion check used to refuse this seed at k=3
    ball = {"balls": [{"center": [[1, 0], [0.2, 0.1], [0, 0], [0.1, 0]], "radius": 0.05}]}
    cfg = write_config(tmp_path / "k3.json", k=3, set=ball, S=300, n_inner=10, n_outer=10)
    out = tmp_path / "out"
    result = run_cli("verify", "--config", str(cfg), "--out", str(out), "--seed", "0")
    assert result.returncode == 0, result.stderr
    assert json.loads((out / "verify_0.1.json").read_text())["pass"] is True


def test_bundled_configs_are_valid():
    from pathlib import Path

    from projcut.cli import load_config

    config_dir = Path(__file__).resolve().parent.parent / "configs"
    names = ["verify_two_balls.json", "scaling_alpha1.json",
             "scaling_alpha2.json", "diagnostics.json"]
    for name in names:
        cfg = load_config(config_dir / name)
        assert cfg.S == 20000 and cfg.seed == 42
