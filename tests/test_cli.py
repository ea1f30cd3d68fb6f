import csv
import json
import math
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from projcut.cli import CEILINGS, DEFAULT_BANDS, load_config, main
from projcut.cutoff import DEFAULT_S, CutoffConfig, build_cutoff
from projcut.errors import ConfigError
from projcut.lie import _expm_plan, _frob, block_samples
from projcut.regularize import MAX_S, RegularizedFunction

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
                        deltas=[0.2, 0.1, 0.05])


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
    lo, hi = DEFAULT_BANDS[1]
    assert lo <= summary["slope"] <= hi


def test_scaling_band_violation_exits_1(scaling_config, tmp_path, monkeypatch, capsys):
    # a claim failure is a result: both files are still written
    monkeypatch.setitem(DEFAULT_BANDS, 1, (-0.05, -0.01))
    out = tmp_path / "out"
    assert main(["scaling", "--config", str(scaling_config), "--out", str(out),
                 "--threads", "1"]) == 1
    assert "slope" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["scaling_alpha1.csv",
                                                     "scaling_alpha1_summary.json"]


def test_slope_band_is_not_a_config_field(tmp_path, capsys):
    # the band belongs to the program: a config cannot loosen the claim
    cfg = write_config(tmp_path / "band.json", deltas=[0.2, 0.1, 0.05], slope_band=[-2.5, -0.3])
    assert main(["scaling", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--threads", "1"]) == 2
    assert "config error: slope_band: unknown config field" in capsys.readouterr().err


@pytest.mark.parametrize("deltas, delta0", [([0.2, 0.1, 2e-4], 0.4), ([0.5, 0.1, 0.05], 0.8)])
def test_scaling_refuses_deltas_outside_the_stencil_window(deltas, delta0, tmp_path, capsys):
    # the step delta / 40 must lie in [1e-5, 1e-2], so delta in [4e-4, 0.4];
    # both configs pass load_config, and the refusal comes before any build
    cfg = write_config(tmp_path / "window.json", deltas=deltas, delta0=delta0)
    out = tmp_path / "out"
    assert main(["scaling", "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 2
    assert "config error: deltas:" in capsys.readouterr().err
    assert not out.exists()


def test_scaling_needs_three_deltas(tmp_path):
    cfg = write_config(tmp_path / "two.json", deltas=[0.2, 0.1])
    out = tmp_path / "out"
    result = run_cli("scaling", "--config", str(cfg), "--out", str(out))
    assert result.returncode == 2
    assert "deltas" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("deltas", [[0.1, 0.1, 0.1], [0.2, 0.1, 0.1]])
def test_scaling_rejects_repeated_deltas(deltas, tmp_path):
    cfg = write_config(tmp_path / "repeat.json", deltas=deltas)
    result = run_cli("scaling", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--threads", "1")
    assert result.returncode == 2
    assert "config error: deltas:" in result.stderr


def test_negative_threads_is_a_usage_error(scaling_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["scaling", "--config", str(scaling_config), "--out", str(out),
                 "--threads", "-1"]) == 2
    assert "config error: threads:" in capsys.readouterr().err
    assert not out.exists()


def test_scaling_threads_agree(scaling_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("scaling", "--config", str(scaling_config), "--out", str(out1),
                   "--threads", "1").returncode == 0
    assert run_cli("scaling", "--config", str(scaling_config), "--out", str(out2),
                   "--threads", "2").returncode == 0
    assert (out1 / "scaling_alpha1.csv").read_bytes() == (out2 / "scaling_alpha1.csv").read_bytes()


def test_verify_draws_the_sample_once(tmp_path, sampler_calls):
    cfg = write_config(tmp_path / "verify.json", deltas=[0.2, 0.1, 0.05])
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert sampler_calls == [600]


def test_scaling_draws_the_sample_once_at_any_worker_count(tmp_path, monkeypatch,
                                                           sampler_calls):
    # the stand-in pool runs each task here after a pickle round trip, as a
    # worker process receives it: the sample travels with the config
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, (pickle.loads(pickle.dumps(t)) for t in tasks))

    monkeypatch.setattr("projcut.cutoff.ProcessPoolExecutor", RecordingPool)
    cfg = write_config(tmp_path / "scaling.json", deltas=[0.2, 0.1, 0.05, 0.025], grid=10)
    outputs = []
    for threads in ("1", "4"):
        sampler_calls.clear()
        out = tmp_path / threads
        assert main(["scaling", "--config", str(cfg), "--out", str(out),
                     "--threads", threads]) in (0, 1)
        assert sampler_calls == [600]
        outputs.append((out / "scaling_alpha1.csv").read_bytes())
    assert sizes == [4]
    assert outputs[0] == outputs[1]


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


def test_eval_rows_of_extreme_scale(verify_config, tmp_path):
    # (1e-170, 2e-171) is the point (1, 0.2): every scale of a row gets the
    # row's value, bit for bit and with no numpy warning
    base = [(1.0, 0.0, 0.2, 0.1), (1.0, 0.0, 0.2, 0.0), (0.0, 0.0, 1.0, 0.0),
            (0.3, 0.02, 1.0, -0.1)]
    lines = [",".join(repr(s * v) for v in row)
             for s in (1.0, 1e-300, 1e-170, 1e170, 1e300) for row in base]
    pts = tmp_path / "pts.csv"
    pts.write_text("re0,im0,re1,im1\n" + "\n".join(lines) + "\n")
    out = tmp_path / "out"
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "projcut",
                             "eval", "--config", str(verify_config), "--points", str(pts),
                             "--out", str(out)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    with open(out / "pts_chi.csv", newline="") as f:
        chi = [r["chi"] for r in csv.DictReader(f)]
    assert chi == chi[:4] * 5
    assert float(chi[0]) == 1.0 and float(chi[2]) == 0.0 and 0.0 < float(chi[1]) < 1.0


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
    # leave no output directory
    cfg = write_config(tmp_path / "wide.json", sigma=1.0, delta0=6.0)
    pts = tmp_path / "pts.csv"
    pts.write_text(points)
    out = tmp_path / "out"
    result = run_cli("eval", "--config", str(cfg), "--points", str(pts), "--out", str(out))
    assert result.returncode == 2
    assert "delta0" in result.stderr
    assert not out.exists()


def test_eval_malformed_row_reports_line(verify_config, tmp_path):
    pts = tmp_path / "bad.csv"
    pts.write_text("re0,im0,re1,im1\n1,0,0.2,0.1\n1,0,oops,0\n")
    out = tmp_path / "out"
    result = run_cli("eval", "--config", str(verify_config), "--points", str(pts),
                     "--out", str(out))
    assert result.returncode == 2
    assert "row 3" in result.stderr
    assert not out.exists()


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


@pytest.mark.parametrize("field", sorted({**CEILINGS, "S": MAX_S}))
def test_integer_fields_have_ceilings(field, tmp_path, capsys):
    # refused at parse time, before anything of that size is allocated
    ceiling = {**CEILINGS, "S": MAX_S}[field]
    for value in (ceiling + 1, 10 ** 30):
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


def test_verify_config_error_at_a_later_delta_writes_nothing(tmp_path, capsys):
    # delta 0.1 leaves room beyond a ball of radius 1.4 and passes; 0.2 leaves
    # none (1.4 + 0.2 > pi/2), so the run exits 2 and no report is written
    big = {"balls": [{"center": [[1, 0], [0, 0]], "radius": 1.4}]}
    cfg = write_config(tmp_path / "big.json", set=big, S=300, deltas=[0.1, 0.2],
                       n_inner=10, n_outer=10)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error: set:" in capsys.readouterr().err
    assert not out.exists()


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
    names = ["verify_two_balls.json", "scaling_alpha1.json", "scaling_alpha2.json",
             "scaling_k2_alpha1.json", "scaling_k2_alpha2.json", "scaling_k3_alpha1.json",
             "scaling_k3_alpha2.json", "diagnostics.json"]
    for name in names:
        cfg = load_config(config_dir / name)
        assert cfg.S == 20000 and cfg.seed == 42
    cfg = load_config(config_dir / "verify_k3.json")  # several sample blocks at k = 3
    assert cfg.k == 3 and cfg.S > 2 * block_samples(4)
    cfg = load_config(config_dir / "verify_rp1_net.json")  # a 128-ball cover of RP^1
    assert cfg.k == 1 and len(cfg.set_spec.balls) == 128 and cfg.S == 2000


COMMANDS = ["verify", "scaling", "eval", "diagnostics"]


def _argv(command, cfg, out, tmp_path):
    """The argv of one command on cfg into out; eval reads one point."""
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "eval":
        pts = tmp_path / "pts.csv"
        pts.write_text("re0,im0,re1,im1\n1,0,0.2,0.1\n")
        argv += ["--points", str(pts)]
    return argv


@pytest.mark.parametrize("command", COMMANDS)
def test_out_that_is_a_file_exits_2_before_the_command(command, verify_config, tmp_path,
                                                         monkeypatch, capsys):
    from projcut import cli

    def refuse(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, f"cmd_{command}", refuse)
    out = tmp_path / "out"
    out.write_text("keep")
    assert main(_argv(command, verify_config, out, tmp_path)) == 2
    assert "config error: --out:" in capsys.readouterr().err
    assert out.read_text() == "keep"


def test_out_that_cannot_be_created_exits_2(verify_config, tmp_path):
    # the parent of --out is a file: mkdir fails after the work, with exit 2
    # and a message naming --out, not a traceback
    (tmp_path / "file").write_text("keep")
    result = run_cli("diagnostics", "--config", str(verify_config),
                     "--out", str(tmp_path / "file" / "out"))
    assert result.returncode == 2
    assert "config error: --out:" in result.stderr and "Traceback" not in result.stderr


@pytest.mark.parametrize("bad_set", [
    {"balls": [{"center": [[1, 0], [0.2, 0.1]], "radius": "0.05"}]},
    {"balls": [{"center": [[1, 0], [0.2, True]], "radius": 0.05}]},
    {"balls": [{"center": [[1, 0], [0.2, "0.1"]], "radius": 0.05}]},
    {"balls": [{"center": [[1, 0], [0.2, 0.1]], "radius": 0.05, "weight": 2}]},
    {"balls": [{"center": [[1, 0], [0.2, 0.1]], "radius": 0.05}], "extra": 1},
    {"balls": [{"center": [[1, 0], [0.2, 0.1, 0.0]], "radius": 0.05}]},
    {"balls": [{"center": [[1, 0], [0.2, 0.1]]}]},
    {"balls": []},
    [{"center": [[1, 0], [0.2, 0.1]], "radius": 0.05}],
], ids=["radius-string", "center-true", "center-string", "ball-unknown-key",
        "set-unknown-key", "center-triple", "no-radius", "no-balls", "set-a-list"])
def test_set_takes_json_numbers_and_known_fields_only(bad_set, tmp_path, capsys):
    cfg = write_config(tmp_path / "bad_set.json", set=bad_set)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error: set:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["config", "flag"])
@pytest.mark.parametrize("command", COMMANDS)
def test_negative_seed_exits_2_for_every_command(command, source, tmp_path, capsys):
    # one rule, CutoffConfig's, before any work and before --out is created
    seeds = {"seed": -1} if source == "config" else {}
    cfg = write_config(tmp_path / "seed.json", deltas=[0.2, 0.1, 0.05], **seeds)
    out = tmp_path / "out"
    argv = _argv(command, cfg, out, tmp_path) + (["--seed", "-3"] if source == "flag" else [])
    assert main(argv) == 2
    assert "config error: seed:" in capsys.readouterr().err
    assert not out.exists()


def test_diagnostics_refuses_what_the_other_commands_refuse(tmp_path, capsys):
    # sigma 2 and delta0 8 leave no distortion bound: every command exits 2
    cfg = write_config(tmp_path / "wide.json", sigma=2.0, delta0=8.0)
    for command in COMMANDS:
        out = tmp_path / command
        assert main(_argv(command, cfg, out, tmp_path)) == 2
        assert "config error: delta0:" in capsys.readouterr().err
        assert not out.exists()


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_bundled_builds_exponentiate_under_one_percent(name, expm_draws):
    # at each bundled theta, with the default S, the build exponentiates no
    # draw at all: its closed-form certificate bounds every stored element
    # and stays within the per-sample bound, and its plan is that of the
    # largest scaled draw
    cfg = load_config(CONFIG_DIR / name)
    config = CutoffConfig(cfg.k, cfg.sigma, cfg.delta0, DEFAULT_S, cfg.seed)
    for delta in cfg.deltas:
        cf = build_cutoff(cfg.set_spec, delta, config)
        assert expm_draws == []
        rf = cf.rf
        assert rf.plan == _expm_plan(float(_frob(rf.theta * rf.draws).max()))
        assert float(_frob(rf.matrices - np.eye(cfg.k + 1)).max()) <= rf.eps <= cf.frob_bound
        expm_draws.clear()


@pytest.mark.parametrize("name", ["verify_two_balls.json", "verify_k3.json"])
def test_bundled_verify_never_forms_the_stack(name, tmp_path, monkeypatch, expm_draws):
    # every row verify evaluates is decided by the certificate, which
    # exponentiates nothing: neither the group elements nor the forms
    # are formed
    def refuse(self):
        raise AssertionError("verify formed the group elements or the forms")

    monkeypatch.setattr(RegularizedFunction, "matrices", property(refuse))
    monkeypatch.setattr(RegularizedFunction, "forms", property(refuse))
    assert main(["verify", "--config", str(CONFIG_DIR / name), "--out", str(tmp_path)]) == 0
    assert expm_draws == []


@pytest.mark.parametrize("command", ["eval", "scaling"])
def test_commands_with_band_rows_exponentiate_each_draw_once_per_build(
        command, tmp_path, monkeypatch, expm_draws):
    # the builds exponentiate nothing; each build's form pass exponentiates
    # every draw once, block by block; the stack of group elements is
    # never formed
    def refuse(self):
        raise AssertionError(f"{command} formed the group elements")

    monkeypatch.setattr(RegularizedFunction, "matrices", property(refuse))
    cfg = write_config(tmp_path / "cfg.json", deltas=[0.2, 0.1, 0.05])
    argv = _argv(command, cfg, tmp_path / "out", tmp_path)
    if command == "eval":  # one row on K, one in the band
        (tmp_path / "pts.csv").write_text("re0,im0,re1,im1\n1,0,0.2,0.1\n1,0,0.36,0.1\n")
    assert main(argv + ["--threads", "1"]) == 0
    builds = 1 if command == "eval" else 3
    assert expm_draws == [600] * builds
