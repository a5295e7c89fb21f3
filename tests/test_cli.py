"""Experiment runner: configs, CSV schema, determinism, exit codes."""

import csv
import inspect
import io
import json
import math

import pytest

from stathyp import cli, convex, stats
from stathyp.spaces import EuclideanSpace, HyperbolicPlane, Net, RegularTree, space_class

ESTIMATE_CFG = """\
[space]
kind = euclidean
dim = 2
p = 2

[experiment]
kind = estimate-e
r = 1.0
k = 0.0
n = 20000
seed = 42
"""

EST_TINY = "[experiment]\nkind = estimate-e\nn = 100\n"
MAHLER_TINY = "[experiment]\nkind = mahler\nn = 100\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_round_trip_lossless(self):
        cfg = cli.parse_config(ESTIMATE_CFG)
        text = cli.serialize_config(cfg)
        assert cli.parse_config(text) == cfg

    def test_unknown_kind(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config("[experiment]\nkind = frobnicate\n")

    def test_missing_experiment_section(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config("[space]\nkind = euclidean\n")

    def test_unknown_parameter(self):
        cfg = cli.parse_config("[experiment]\nkind = estimate-e\nbogus = 3\n")
        with pytest.raises(cli.ConfigError):
            cli.run_config(cfg)

    @pytest.mark.parametrize("text", ["100000", "1e5", "100000.0"])
    def test_whole_number_spellings(self, text):
        cfg = cli.parse_config(f"[experiment]\nkind = estimate-e\nn = {text}\n")
        n = cli._params(cfg, "estimate-e", None)["n"]
        assert n == 100000 and isinstance(n, int)

    def test_case_sensitive_keys(self):
        # C (neighborhood threshold) and c (net separation) must not collide
        cfg = cli.parse_config(
            "[experiment]\nkind = discretize\nc = 0.25\nn = 3\nr = 4\ntau = 1.5\n")
        assert cli._params(cfg, "discretize", None)["c"] == 0.25


class TestCatalog:
    def test_exactly_nine_kinds(self):
        catalog = cli.list_experiments()
        assert len(catalog) == 9
        assert set(catalog) == {
            "estimate-e", "thick-stat", "p1", "separation", "thin-triangle",
            "mahler", "densities", "coarse-check", "discretize"}

    def test_every_entry_names_its_claim(self):
        for kind, entry in cli.list_experiments().items():
            assert entry["claim"].strip(), kind
            assert "parameters" in entry and "seed" in entry["parameters"]

    def test_catalog_round_trips_through_parser(self):
        for kind, entry in cli.list_experiments().items():
            lines = ["[experiment]", f"kind = {kind}"]
            lines += [f"{k} = {v}" for k, v in entry["parameters"].items()]
            cfg = cli.parse_config("\n".join(lines) + "\n")
            params = cli._params(cfg, kind, None)
            for key, default in entry["parameters"].items():
                assert params[key] == pytest.approx(default)


class TestRun:
    def test_run_writes_csv_and_summary(self, tmp_path, capsys):
        cfg_path = write(tmp_path, "e.ini", ESTIMATE_CFG)
        code = cli.main(["run", "--config", cfg_path, "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        csv_text = (tmp_path / "e.csv").read_text()
        header, row = list(csv.reader(io.StringIO(csv_text)))
        assert header == list(cli.CSV_COLUMNS)
        assert row[0] == "estimate-e"
        assert row[5] == "42"
        assert 1.2 < float(row[6]) < 1.35
        assert (tmp_path / "e.summary.txt").exists()

    def test_bit_identical_across_worker_counts(self, tmp_path, capsys):
        cfg_dir = tmp_path / "cfg"
        cfg_dir.mkdir()
        write(cfg_dir, "one.ini", ESTIMATE_CFG)
        write(cfg_dir, "two.ini", ESTIMATE_CFG.replace("seed = 42", "seed = 1"))
        write(cfg_dir, "three.ini", "[experiment]\nkind = separation\nn = 3000\n")
        # the two kinds that probe or discretize one sample at a time
        write(cfg_dir, "four.ini", "[space]\nkind = hyperbolic\n\n"
              "[experiment]\nkind = discretize\nn = 12\nr = 8\n")
        write(cfg_dir, "five.ini", "[space]\nkind = sup-product\n"
              "components = hyperbolic ; euclidean dim=2\n\n"
              "[experiment]\nkind = thin-triangle\nn = 6\nr = 8\n")
        outs = []
        for workers in (1, 4):
            out_dir = tmp_path / f"w{workers}"
            code = cli.main(["sweep", "--config", str(cfg_dir), "--out", str(out_dir),
                             "--workers", str(workers)])
            assert code == 0
            files = sorted(p.name for p in out_dir.iterdir())
            outs.append((capsys.readouterr().out,
                         [(name, (out_dir / name).read_bytes()) for name in files]))
        assert len(outs[0][1]) == 10
        assert outs[0] == outs[1]

    def test_run_has_no_workers_flag(self, tmp_path):
        cfg_path = write(tmp_path, "e.ini", ESTIMATE_CFG)
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", cfg_path, "--out", str(tmp_path),
                      "--workers", "2"])
        assert exc.value.code == 2

    def test_parameter_violation_exits_2(self, tmp_path, capsys):
        bad = ESTIMATE_CFG.replace("k = 0.0", "k = 2.0")
        cfg_path = write(tmp_path, "bad.ini", bad)
        code = cli.main(["run", "--config", cfg_path, "--out", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.ini"),
                         "--out", str(tmp_path)]) == 2

    def test_failed_rename_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        # the temporary file is removed and the error reaches main
        cfg_path = write(tmp_path, "e.ini", EST_TINY)
        out_dir = tmp_path / "out"

        def no_rename(src, dst):
            raise OSError(f"cannot rename to {dst}")
        monkeypatch.setattr(cli.os, "replace", no_rename)
        assert cli.main(["run", "--config", cfg_path, "--out", str(out_dir)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: cannot rename to {out_dir / 'e.csv'}\n"
        assert list(out_dir.iterdir()) == []

    def test_seed_flag_overrides(self, tmp_path):
        cfg_path = write(tmp_path, "e.ini", ESTIMATE_CFG)
        cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "a"),
                  "--seed", "7"])
        row = list(csv.reader(io.StringIO((tmp_path / "a" / "e.csv").read_text())))[1]
        assert row[5] == "7"

    def test_seed_above_2_53_is_exact(self, tmp_path, capsys):
        cfg_path = write(tmp_path, "e.ini", EST_TINY + "seed = 9007199254740993\n")
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path),
                         "--format", "csv"]) == 0
        row = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1]
        assert row[5] == "9007199254740993"

    def test_csv_format_flag(self, tmp_path, capsys):
        cfg_path = write(tmp_path, "e.ini", ESTIMATE_CFG)
        cli.main(["run", "--config", cfg_path, "--out", str(tmp_path),
                  "--format", "csv"])
        out = capsys.readouterr().out
        assert out.startswith(",".join(cli.CSV_COLUMNS))


class TestOtherExperiments:
    def test_mahler_config(self, tmp_path, capsys):
        text = ("[body]\nkind = polytope\nvertices = 1 1; 1 -1; -1 1; -1 -1\n\n"
                "[experiment]\nkind = mahler\n")
        cfg_path = write(tmp_path, "m.ini", text)
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        row = list(csv.reader(io.StringIO((tmp_path / "m.csv").read_text())))[1]
        assert float(row[6]) == pytest.approx(8.0, abs=1e-9)

    def test_mahler_line_prints_the_checked_interval(self, tmp_path, capsys):
        # a Monte Carlo run is checked against the bounds widened by three
        # standard errors; the line shows that interval, the CSV the bounds
        text = "[body]\nkind = lp\ndim = 3\np = 3\nmethod = monte-carlo\n" + MAHLER_TINY
        cfg_path = write(tmp_path, "m.ini", text)
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        report = convex.mahler(convex.LpBall(3, 3.0), "monte-carlo", 100, 0)
        lo, hi = report.checked
        assert lo < report.lower_bound and hi > report.upper_bound
        assert (f"PASS: Mahler volume within bounds ({lo:.6f} <= {report.value:.6f} "
                f"<= {hi:.6f})") in capsys.readouterr().out
        row = list(csv.reader(io.StringIO((tmp_path / "m.csv").read_text())))[1]
        assert row[8:12] == ["lower", repr(report.lower_bound), "upper", repr(report.upper_bound)]

    def test_densities_config(self, tmp_path):
        text = "[body]\nkind = lp\ndim = 2\np = inf\n\n[experiment]\nkind = densities\n"
        cfg_path = write(tmp_path, "d.ini", text)
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        row = list(csv.reader(io.StringIO((tmp_path / "d.csv").read_text())))[1]
        assert float(row[6]) == pytest.approx(math.pi ** 2 / 8.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind,body,shown", [
        ("densities", "kind = ellipsoid\naxes = 1e-200, 1e-200\n",
         "volume estimate 0.0 is outside the positive float range"),
        ("mahler", "kind = lp\ndim = 400\n", "l2.0-ball volume overflows in dimension 400"),
        ("densities", "kind = lp\ndim = 400\n", "l2.0-ball volume overflows in dimension 400"),
        ("mahler", "kind = ellipsoid\naxes = 1e300, 1e300\n",
         "volume estimate inf is outside the positive float range"),
    ], ids=["tiny-ellipsoid", "lp-400-mahler", "lp-400-densities", "huge-ellipsoid"])
    def test_volume_outside_the_float_range_exits_2(self, tmp_path, capsys, kind, body,
                                                     shown):
        # these ended in a ZeroDivisionError, an OverflowError or value=nan
        cfg_path = write(tmp_path, "v.ini", f"[body]\n{body}\n[experiment]\nkind = {kind}\n")
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: parameter error in {kind}: {shown}\n"
        assert not (tmp_path / "v.csv").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("axes", ["1e160, 1", "1e-170, 1"])
    @pytest.mark.parametrize("kind", ["mahler", "densities"])
    def test_monte_carlo_ellipsoid_far_from_unit_size(self, tmp_path, capsys, kind, axes):
        # the support function squared each semi-axis: the box of 1e160
        # overflowed to a traceback, and that of 1e-170 to a zero volume
        text = (f"[body]\nkind = ellipsoid\naxes = {axes}\nmethod = monte-carlo\n\n"
                f"[experiment]\nkind = {kind}\n")
        argv = ["run", "--config", write(tmp_path, "e.ini", text), "--out", str(tmp_path),
                "--format", "csv"]
        assert cli.main(argv) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        # every ellipsoid in the plane has Mahler volume pi^2, and densities
        # prints the ratio vol(unit disc)^2 / Mahler
        want = math.pi ** 2 if kind == "mahler" else 1.0
        assert abs(float(row["mean"]) - want) <= 4 * float(row["std_error"])

    def test_sup_product_space(self, tmp_path):
        text = ("[space]\nkind = sup-product\ncomponents = euclidean dim=1 ; euclidean dim=1\n\n"
                "[experiment]\nkind = estimate-e\nr = 2.0\nn = 2000\n")
        cfg_path = write(tmp_path, "sp.ini", text)
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0

    @pytest.mark.filterwarnings("error")
    def test_large_p_norm_estimate_passes(self, tmp_path, capsys):
        # a ** p overflowed at p = 1000 and turned every distance to inf
        text = ("[space]\nkind = euclidean\np = 1000\n\n"
                "[experiment]\nkind = estimate-e\nr = 5\nn = 2000\n")
        cfg_path = write(tmp_path, "p1000.ini", text)
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("space", ["hyperbolic", "modular"])
    def test_slim_triangle_check_can_fail(self, tmp_path, capsys, monkeypatch, space):
        # hyperbolic triangles are ln(1+sqrt2)-slim, so C = 1 must hit every
        # time; a distance that is off by a factor must turn the check to FAIL
        text = (f"[space]\nkind = {space}\n\n[experiment]\nkind = thin-triangle\n"
                "n = 10\nr = 10\nC = 1.0\n")
        cfg_path = write(tmp_path, "slim.ini", text)
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        assert "PASS: hit_rate 1 at C >= ln(1+sqrt2)" in capsys.readouterr().out
        exact = HyperbolicPlane.distance_to_segment
        monkeypatch.setattr(HyperbolicPlane, "distance_to_segment",
                            lambda self, P, u, v: 1e3 * exact(self, P, u, v))
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 3
        out = capsys.readouterr().out
        assert "FAIL: hit_rate 1 at C >= ln(1+sqrt2)" in out
        assert "PASS: reported minima nonnegative" in out

    def test_sweep_exits_3_when_a_config_fails_a_check(self, tmp_path, capsys, monkeypatch):
        # a FAIL in one config sets the exit code; a later PASS keeps it
        write(tmp_path, "a.ini", "[space]\nkind = hyperbolic\n\n[experiment]\n"
              "kind = thin-triangle\nn = 10\nr = 10\nC = 1.0\n")
        write(tmp_path, "b.ini", "[experiment]\nkind = estimate-e\nn = 100\n")
        exact = HyperbolicPlane.distance_to_segment
        monkeypatch.setattr(HyperbolicPlane, "distance_to_segment",
                            lambda self, P, u, v: 1e3 * exact(self, P, u, v))
        code = cli.main(["sweep", "--config", str(tmp_path), "--out", str(tmp_path / "out")])
        assert code == 3
        first, second = capsys.readouterr().out.split("== b.ini")
        assert "FAIL: hit_rate 1" in first
        assert "PASS: normalized mean" in second and "FAIL" not in second

    def test_slim_triangle_check_only_where_it_holds(self, tmp_path, capsys):
        # below ln(1+sqrt2), and on spaces that are not hyperbolic, there is
        # nothing to check
        for space, c in (("hyperbolic", "0.5"), ("euclidean", "3.0")):
            text = (f"[space]\nkind = {space}\n\n[experiment]\nkind = thin-triangle\n"
                    f"n = 5\nr = 10\nC = {c}\n")
            cfg_path = write(tmp_path, "c.ini", text)
            assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0
            assert "ln(1+sqrt2)" not in capsys.readouterr().out

    @pytest.mark.parametrize("text", [
        "[space]\nkind = sup-product\ncomponents = hyperbolic ; euclidean dim=2\n\n"
        "[experiment]\nkind = thin-triangle\nn = 6\nr = 8\n",
        "[space]\nkind = hyperbolic\n\n[experiment]\nkind = discretize\nn = 12\nr = 8\n",
    ], ids=["thin-triangle", "discretize"])
    def test_repeat_runs_write_identical_csv(self, tmp_path, text):
        cfg_path = write(tmp_path, "again.ini", text)
        outs = []
        for run in range(2):
            out_dir = tmp_path / f"run{run}"
            assert cli.main(["run", "--config", cfg_path, "--out", str(out_dir),
                             "--format", "csv"]) == 0
            outs.append(((out_dir / "again.csv").read_bytes(),
                         (out_dir / "again.summary.txt").read_bytes()))
        assert outs[0] == outs[1]

    def test_discretize_check_can_fail(self, tmp_path, capsys, monkeypatch):
        # a net holding only the segment's start covers no mark past 2c
        monkeypatch.setattr(stats, "build_net", lambda space, u, v, c: Net(space.singleton(u), c))
        text = "[space]\nkind = hyperbolic\n\n[experiment]\nkind = discretize\nn = 5\n"
        cfg_path = write(tmp_path, "d.ini", text)
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 3
        out = capsys.readouterr().out
        assert "FAIL: step-tau and 2c-proximity invariants (5 violations over 5 runs)" in out
        assert "violations=5 path_points=0" in out

    def test_tree_walks_past_the_cap_exit_2(self, tmp_path, capsys):
        # refused before the walks are drawn
        text = "[space]\nkind = tree\n\n[experiment]\nkind = estimate-e\nr = 1e7\nn = 50\n"
        cfg_path = write(tmp_path, "far.ini", text)
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: parameter error in estimate-e: 50 tree walks to radius")
        assert "above the cap of" in err and err.count("\n") == 1
        assert not (tmp_path / "far.csv").exists()

    @pytest.mark.parametrize("kind", ["thin-triangle", "discretize"])
    def test_tree_refused_before_sampling(self, tmp_path, capsys, monkeypatch, kind):
        # tree geodesics exist only at integer times; the runner must say so
        # before it draws a single ray
        def no_rays(*args, **kwargs):
            raise AssertionError("sampled rays on the tree")
        monkeypatch.setattr(RegularTree, "rays_chunk", no_rays)
        text = f"[space]\nkind = tree\nq = 3\n\n[experiment]\nkind = {kind}\nn = 2\n"
        cfg_path = write(tmp_path, "t.ini", text)
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert "needs continuous geodesics" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("space", ["hyperbolic", "modular"])
    def test_separation_exact_past_the_cartesian_horizon(self, tmp_path, capsys, space):
        # d <= 2t < M0 for every pair at t = 400, where the Cartesian points overflow
        text = (f"[space]\nkind = {space}\n\n[experiment]\nkind = separation\n"
                "r = 800\nsigma = 0.5\nM0 = 1000\nn = 1000\n")
        cfg_path = write(tmp_path, "far.ini", text)
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        assert "separation: fraction=1.0 at t=400.0" in capsys.readouterr().out

    def test_thin_triangle_past_the_float_horizon_exits_2(self, tmp_path, capsys):
        text = "[space]\nkind = hyperbolic\n\n[experiment]\nkind = thin-triangle\nr = 400\n"
        cfg_path = write(tmp_path, "far.ini", text)
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "past the float range of upper-half-plane coordinates" in err
        assert "Traceback" not in err and not (tmp_path / "far.csv").exists()

    def test_discretize_tau_floor_exits_2(self, tmp_path, capsys):
        text = ("[space]\nkind = hyperbolic\n\n[experiment]\nkind = discretize\n"
                "tau = 1\nc = 0.5\nn = 3\n")
        cfg_path = write(tmp_path, "d.ini", text)
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: parameter error in discretize: need tau > 4c")
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("kind,key,step", [("discretize", "c", "5e-301")])
    def test_oversized_time_grid_exits_2(self, tmp_path, capsys, kind, key, step):
        # the grid's size is checked before it is allocated; the net's
        # candidate step is c/2
        text = (f"[space]\nkind = hyperbolic\n\n[experiment]\nkind = {kind}\n"
                f"n = 2\n{key} = 1e-300\n")
        cfg_path = write(tmp_path, "g.ini", text)
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: parameter error in {kind}: time grid on [")
        assert err.endswith(f" with step {step} exceeds 400000 points; increase the step\n")
        assert "np.float64" not in err and err.count("\n") == 1
        assert not (tmp_path / "g.csv").exists()

    def test_thin_triangle_step_changes_no_output(self, tmp_path, capsys):
        # the probe reads each interval at its two ends, so ds, still taken
        # for the configs that set it, moves no printed value
        outputs = []
        for ds in ("0.05", "1e-300"):
            text = ("[space]\nkind = hyperbolic\n\n[experiment]\nkind = thin-triangle\n"
                    f"n = 20\nds = {ds}\n")
            cfg_path = write(tmp_path, "t.ini", text)
            assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0
            head = capsys.readouterr().out.splitlines()[1]
            outputs.append(((tmp_path / "t.csv").read_text(), head))
        assert outputs[0] == outputs[1]
        assert outputs[0][1].startswith("thin-triangle: hit_rate=1.0 ")

    def test_coarse_check_notes_m0_below_the_floor(self, tmp_path, capsys):
        text = "[experiment]\nkind = coarse-check\nn = 50\nM0 = 2\n"
        cfg_path = write(tmp_path, "cc.ini", text)
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "NOTE: M0=2.0 is below the documented floor 360.0; sandwich guarantees do not apply")

    def test_coarse_check_config(self, tmp_path):
        text = "[experiment]\nkind = coarse-check\nn = 2000\n"
        cfg_path = write(tmp_path, "cc.ini", text)
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        row = list(csv.reader(io.StringIO((tmp_path / "cc.csv").read_text())))[1]
        assert row[-1] == "1"
        assert float(row[6]) == 0.0

    @pytest.mark.parametrize("key,value,shown", [
        ("eps", "0", "eps=0.0"), ("eps", "2", "eps=2.0"), ("eps", "nan", "eps=nan"),
        ("n", "0", "n=0"), ("n", "-5", "n=-5"), ("M0", "-3", "M0=-3.0"),
        ("n", "nan", "'nan'"), ("M0", "inf", "M0=inf"),
    ])
    def test_coarse_check_rejects_bad_parameter(self, tmp_path, capsys, key, value, shown):
        params = {"n": "200", key: value}
        text = "[experiment]\nkind = coarse-check\n" + "".join(
            f"{k} = {v}\n" for k, v in params.items())
        cfg_path = write(tmp_path, "cc.ini", text)
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and shown in err
        assert not (tmp_path / "cc.csv").exists()

    @pytest.mark.parametrize("kind,space,key,value,shown", [
        ("thick-stat", "modular", "eps", "0", "eps=0.0"),
        ("thick-stat", "modular", "r", "nan", "r=nan"),
        ("thick-stat", "modular", "dt", "nan", "dt=nan"),
        ("p1", "modular", "dt", "nan", "dt=nan"),
        ("p1", "modular", "eps", "-1", "eps=-1.0"),
        ("thick-stat", "modular", "eps", "1.5", "0 < eps <= 1"),
        ("p1", "modular", "eps", "1.5", "0 < eps <= 1"),
        ("separation", "euclidean", "M0", "nan", "M0=nan"),
        ("thin-triangle", "hyperbolic", "n", "0", "n=0"),
        ("thin-triangle", "hyperbolic", "ds", "nan", "ds=nan"),
        ("thin-triangle", "hyperbolic", "C", "nan", "C=nan"),
        ("thin-triangle", "hyperbolic", "r", "-1", "r=-1.0"),
        ("discretize", "hyperbolic", "n", "0", "n=0"),
    ])
    def test_geodesic_kinds_reject_bad_parameter(self, tmp_path, capsys, kind, space,
                                                 key, value, shown):
        # each case used to end in a traceback or a vacuous PASS
        text = f"[space]\nkind = {space}\n[experiment]\nkind = {kind}\n{key} = {value}\n"
        cfg_path = write(tmp_path, "bad.ini", text)
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and shown in err
        assert not (tmp_path / "bad.csv").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind,eps", [("thick-stat", "1e-170"), ("p1", "1e-200")])
    def test_torus_eps_below_every_float_height_is_all_thick(self, tmp_path, capsys, kind,
                                                             eps):
        # eps^2 underflows to 0 below about 1.5e-162, and 1 / eps^2 ended in
        # a ZeroDivisionError; the thin height is then past every float
        # height, so the thin part is empty
        text = f"[space]\nkind = modular\n[experiment]\nkind = {kind}\neps = {eps}\nn = 20\n"
        cfg_path = write(tmp_path, "tiny.ini", text)
        argv = ["run", "--config", cfg_path, "--out", str(tmp_path), "--format", "csv"]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert float(next(csv.DictReader(io.StringIO(out)))["mean"]) == 1.0

    @pytest.mark.parametrize("r", ["1e-13", "2e-12"])
    def test_torus_ray_below_the_grid_tolerance_is_read(self, tmp_path, capsys, r):
        # a ray shorter than 1e-12 has no grid time and is all partial step;
        # dropping that step read r = 1e-13 as all thin
        text = f"[space]\nkind = modular\n[experiment]\nkind = thick-stat\nr = {r}\nn = 20\n"
        cfg_path = write(tmp_path, "short.ini", text)
        argv = ["run", "--config", cfg_path, "--out", str(tmp_path), "--format", "csv"]
        assert cli.main(argv) == 0
        assert float(next(csv.DictReader(io.StringIO(capsys.readouterr().out)))["mean"]) == 1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind,r", [("thick-stat", "1e20"), ("p1", "1e300")])
    def test_torus_grid_of_2_53_steps_exits_2(self, tmp_path, capsys, kind, r):
        # the step count was cast to int64 past the float range: a warning,
        # or else a garbage count and a walk that did not end
        text = f"[space]\nkind = modular\n[experiment]\nkind = {kind}\nr = {r}\nn = 20\n"
        cfg_path = write(tmp_path, "long.ini", text)
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: parameter error in {kind}: a ray of length ")
        assert err.endswith(" has 2^53 or more grid steps of dt=0.1\n")
        assert not (tmp_path / "long.csv").exists()

    @pytest.mark.parametrize("components", ["modular ; modular", "modular ; hyperbolic"])
    @pytest.mark.parametrize("kind", ["thick-stat", "p1"])
    def test_product_with_a_torus_factor_exits_2(self, tmp_path, capsys, kind, components):
        # the product has a thin part but no ray walker
        text = (f"[space]\nkind = sup-product\ncomponents = {components}\n"
                f"[experiment]\nkind = {kind}\n")
        cfg_path = write(tmp_path, "prod.ini", text)
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: parameter error in {kind}: the sup-product model has no ray walker\n")
        assert not (tmp_path / "prod.csv").exists()

    @pytest.mark.parametrize("text,args,shown", [
        ("[space]\nkind = hyperbolic\nh = abc\n" + EST_TINY, [], "[space] h = 'abc'"),
        ("[space]\ndim = two\n" + EST_TINY, [], "[space] dim = 'two'"),
        ("[space]\nkind = sup-product\ncomponents = euclidean dim ; euclidean\n" + EST_TINY,
         [], "[space] components = 'euclidean dim'"),
        ("[space]\nkind = hyperbolic\nh = nan\n" + EST_TINY, [], "got nan"),
        ("[space]\nkind = hyperbolic\nh = inf\n" + EST_TINY, [], "got inf"),
        ("[space]\nkind = tree\nh = -1\n" + EST_TINY, [], "got -1.0"),
        ("[body]\nkind = ellipsoid\n" + MAHLER_TINY, [], "[body] has no axes entry"),
        ("[body]\nkind = lp\np = x\n" + MAHLER_TINY, [], "[body] p = 'x'"),
        ("[body]\nkind = ellipsoid\naxes = 1, nan\n" + MAHLER_TINY, [], "[1.0, nan]"),
        ("[body]\nkind = ellipsoid\naxes =\n" + MAHLER_TINY, [], "got []"),
        (EST_TINY + "seed = -1\n", [], "seed=-1"),
        (EST_TINY, ["--seed", "-1"], "seed=-1"),
        (EST_TINY.replace("n = 100", "n = 100.9"), [], "[experiment] n = '100.9'"),
        (EST_TINY + "seed = 1.5\n", [], "[experiment] seed = '1.5'"),
        ("[space]\nkind = tree\nq = 3.9\n" + EST_TINY, [], "[space] q = '3.9'"),
        ("[space]\nkind = sup-product\ncomponents = euclidean dim=1.5 ; euclidean\n" + EST_TINY,
         [], "[space] components = 'euclidean dim=1.5'"),
        ("[space]\nkind = sup-product\ncomponents = euclidean dimm=3 ; euclidean dim=1 bogus=7\n"
         + EST_TINY, [], "[space] components = 'euclidean dimm=3': has no key 'dimm'"),
        ("[space]\nkind = sup-product\ncomponents = euclidean dim=1 ; euclidean dim=1 bogus=7\n"
         + EST_TINY, [], "[space] components = 'euclidean dim=1 bogus=7': has no key 'bogus'"),
        ("[body]\nkind = lp\ndim = 2.5\n" + MAHLER_TINY, [], "[body] dim = '2.5'"),
        ("[spcae]\nkind = hyperbolic\n" + EST_TINY, [], "unknown section [spcae]"),
        ("[space]\ndimm = 3\n" + EST_TINY, [], "[space] has no key 'dimm'"),
        ("[body]\nkind = ellipsoid\naxis = 1, 2\n" + MAHLER_TINY, [],
         "[body] has no key 'axis'"),
        ("[space]\nkind = hyperbolic\ndim = 7\nq = 9\n" + EST_TINY, [],
         "[space] has no key 'dim' for kind 'hyperbolic'"),
        ("[space]\nkind = modular\ncomponents = euclidean ; euclidean\n" + EST_TINY, [],
         "[space] has no key 'components' for kind 'modular'"),
        ("[space]\nkind = tree\np = 1\n" + EST_TINY, [],
         "[space] has no key 'p' for kind 'tree'"),
        ("[space]\nq = 4\n" + EST_TINY, [],
         "[space] has no key 'q' for kind 'euclidean'"),
        ("[space]\nkind = sup-product\ndim = 2\ncomponents = euclidean ; euclidean\n"
         + EST_TINY, [], "[space] has no key 'dim' for kind 'sup-product'"),
        ("[space]\nkind = sup-product\ncomponents = hyperbolic dim=3 ; euclidean\n" + EST_TINY,
         [], "'hyperbolic dim=3': has no key 'dim' for kind 'hyperbolic'"),
        ("[space]\ndim =\n" + EST_TINY, [], "[space] dim = ''"),
        ("[space]\nkind = tree\nq =\n" + EST_TINY, [], "[space] q = ''"),
        ("[space]\nkind = sup-product\ncomponents = euclidean dim= ; euclidean\n" + EST_TINY,
         [], "[space] components = 'euclidean dim=': dim = ''"),
        ("[body]\nkind = ellipsoid\naxes = 1, 2\ndim = 7\np = 3\n" + MAHLER_TINY, [],
         "[body] has no key 'dim' for kind 'ellipsoid'; known keys: axes method"),
        ("[body]\nkind = polytope\nvertices = 1 1; 1 -1; -1 1; -1 -1\ndim = 5\n" + MAHLER_TINY,
         [], "[body] has no key 'dim' for kind 'polytope'; known keys: vertices method"),
        ("[body]\naxes = 1, 2\n" + MAHLER_TINY, [],
         "[body] has no key 'axes' for kind 'lp'; known keys: dim p method"),
    ], ids=["h-abc", "dim-two", "component-without-equals", "h-nan", "h-inf", "tree-h-negative",
            "ellipsoid-without-axes", "lp-p-x", "ellipsoid-nan-axis", "ellipsoid-empty-axes",
            "seed-negative", "seed-flag-negative", "n-fractional",
            "seed-fractional", "tree-q-fractional", "component-dim-fractional",
            "component-key-typo", "component-unknown-key", "body-dim-fractional",
            "section-typo", "space-key-typo", "body-key-typo", "hyperbolic-stray-keys",
            "modular-stray-components", "tree-stray-p", "euclidean-stray-q",
            "product-stray-dim", "factor-stray-dim", "dim-blank", "tree-q-blank",
            "component-dim-blank", "ellipsoid-stray-dim-p", "polytope-stray-dim",
            "lp-stray-axes"])
    def test_bad_config_values_exit_2(self, tmp_path, capsys, text, args, shown):
        # each case used to end in a traceback or in a vacuous PASS
        cfg_path = write(tmp_path, "bad.ini", text)
        assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err and shown in err
        assert not (tmp_path / "bad.csv").exists()


class TestSpaceKeys:
    # the keys of each kind are its constructor's parameters, in their order
    @pytest.mark.parametrize("name,known", [
        ("euclidean", "dim p h"), ("euclidean-p-norm", "dim p h"), ("hyperbolic", "h"),
        ("hyperbolic-plane", "h"), ("modular", "h"), ("modular-torus", "h"),
        ("tree", "q h"), ("regular-tree", "q h"), ("sup-product", "components h"),
    ])
    def test_keys_are_the_constructor_parameters(self, name, known):
        assert " ".join(inspect.signature(space_class(name)).parameters) == known
        # a factor token may name any kind, so its error lists the kind's keys
        with pytest.raises(cli.ConfigError, match=f"for kind '{name}'; known keys: {known}$"):
            cli._space({"space": {"kind": "sup-product",
                                  "components": f"{name} bogus=1 ; euclidean"}})

    def test_listed_space_defaults_are_the_constructor_defaults(self):
        listed = cli.list_experiments()["estimate-e"]["space_defaults"]
        euclidean = inspect.signature(EuclideanSpace).parameters
        tree = inspect.signature(RegularTree).parameters
        assert space_class(listed["kind"]) is EuclideanSpace
        assert listed["dim"] == euclidean["dim"].default and listed["p"] == euclidean["p"].default
        assert listed["q"] == tree["q"].default

    @pytest.mark.parametrize("space,shown", [
        ("kind = hyperbolic\nh =", "hyperbolic-plane(h=1.0)"),
        ("kind = tree\nh =", f"regular-tree(q=3,h={math.log(2.0)})"),
        ("kind = sup-product\nh =\ncomponents = hyperbolic h= ; euclidean h=",
         "sup-product(h=1.0,[hyperbolic-plane(h=1.0),euclidean-p-norm(dim=1,p=2.0,h=0.0)])"),
    ], ids=["hyperbolic", "tree", "sup-product"])
    def test_blank_h_is_the_model_default(self, space, shown):
        assert cli._space(cli.parse_config(f"[space]\n{space}\n" + EST_TINY)).describe() == shown


class TestBodyKeys:
    # the keys of each body kind are its constructor's parameters, then method
    @pytest.mark.parametrize("kind,cls,known", [
        ("lp", convex.LpBall, "dim p method"), ("ellipsoid", convex.Ellipsoid, "axes method"),
        ("polytope", convex.Polytope, "vertices method"),
    ])
    def test_keys_are_the_constructor_parameters(self, kind, cls, known):
        assert " ".join([*inspect.signature(cls).parameters, "method"]) == known
        with pytest.raises(cli.ConfigError, match=f"for kind '{kind}'; known keys: {known}$"):
            cli._body({"body": {"kind": kind, "bogus": "1"}})

    def test_wrapped_constructor_keeps_its_keys(self, monkeypatch):
        # a profiler's wrapper takes (*args, **kwargs); the keys are read at import
        init = convex.Polytope.__init__
        monkeypatch.setattr(convex.Polytope, "__init__", lambda self, *a, **k: init(self, *a, **k))
        square = {"kind": "polytope", "vertices": "1 1; -1 -1; 1 -1; -1 1"}
        body, method = cli._body({"body": square})
        assert (body.describe(), method) == ("polytope(dim=2,k=4)", "exact")

    def test_listed_body_defaults_are_the_constructor_defaults(self):
        listed = cli.list_experiments()["mahler"]["body_defaults"]
        lp = inspect.signature(convex.LpBall).parameters
        assert listed == {"kind": "lp", "dim": lp["dim"].default, "p": lp["p"].default,
                          "method": "exact"}


class TestSweep:
    def test_sweep_runs_all_and_reports(self, tmp_path, capsys):
        write(tmp_path, "one.ini", ESTIMATE_CFG)
        write(tmp_path, "two.ini", ESTIMATE_CFG.replace("seed = 42", "seed = 1"))
        out_dir = tmp_path / "out"
        code = cli.main(["sweep", "--config", str(tmp_path), "--out", str(out_dir),
                         "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "== one.ini" in out and "== two.ini" in out
        assert (out_dir / "one.csv").exists() and (out_dir / "two.csv").exists()

    def test_sweep_flags_config_errors(self, tmp_path):
        write(tmp_path, "ok.ini", ESTIMATE_CFG)
        write(tmp_path, "bad.ini", ESTIMATE_CFG.replace("k = 0.0", "k = 9.0"))
        assert cli.main(["sweep", "--config", str(tmp_path),
                         "--out", str(tmp_path / "out")]) == 2

    def test_empty_dir(self, tmp_path):
        assert cli.main(["sweep", "--config", str(tmp_path),
                         "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_exits_2(self, tmp_path, capsys, workers):
        # a count below 1 once ran the sweep on one worker and exited 0
        write(tmp_path, "one.ini", ESTIMATE_CFG)
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(tmp_path), "--out", str(out_dir),
                         "--workers", workers]) == 2
        assert f"--workers must be at least 1, got {workers}" in capsys.readouterr().err
        assert not out_dir.exists()


class TestListCommand:
    def test_list_is_json(self, capsys):
        assert cli.main(["list"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "estimate-e" in payload
