import argparse
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import haar_besov as hb
from haar_besov import cli, experiments
from haar_besov.cli import main as cli_main
from haar_besov.experiments import (
    CSV_COLUMNS,
    default_config,
    fit_log2_slope,
    random_step,
    run_experiment,
)
from haar_besov.rng import RandomStream, derive_seed, splitmix64


def _cli_choices(command: str, dest: str) -> list[str]:
    """The choices the CLI parser offers for option ``dest`` of ``command``."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions if a.dest == dest)


class TestRandomStream:
    def test_splitmix_reference_value(self):
        # first splitmix64 output of seed 0 (standard test vector)
        assert int(splitmix64(0, 1)[0]) == 0xE220A8397B1DCDAF

    def test_determinism(self):
        a = RandomStream(123).uniform(1000, -1, 1)
        b = RandomStream(123).uniform(1000, -1, 1)
        assert np.array_equal(a, b)

    def test_seed_avalanche(self):
        a = RandomStream(7).uniform(256)
        b = RandomStream(8).uniform(256)
        assert np.max(np.abs(a - b)) > 0.1

    def test_uniform_range_and_mean(self):
        u = RandomStream(42).uniform(100_000, -1, 1)
        assert u.min() >= -1.0 and u.max() < 1.0
        assert -0.02 < u.mean() < 0.02

    def test_normal_moments(self):
        z = RandomStream(9).normal(100_000)
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_derive_seed_stable(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)


class TestRandomStep:
    def test_same_seed_identical(self):
        f = random_step(5, 2, 3)
        g = random_step(5, 2, 3)
        assert np.array_equal(f.values, g.values)

    def test_neighbour_seed_differs(self):
        f = random_step(5, 2, 3)
        g = random_step(6, 2, 3)
        assert np.max(np.abs(f.values - g.values)) > 0.1

    def test_sample_mean_smoke(self):
        vals = np.concatenate(
            [random_step(derive_seed(0, i), 1, 10).flat() for i in range(100)]
        )
        assert vals.size > 100_000 and -0.02 < vals.mean() < 0.02

    def test_budget(self):
        # 2^28 cells, over the fixed 2^26-cell budget
        with pytest.raises(hb.CapacityError, match=r"2\*\*28"):
            random_step(0, 2, 14)

    def test_distributions(self):
        u = random_step(3, 1, 5, "uniform")
        n = random_step(3, 1, 5, "normal")
        assert not np.array_equal(u.values, n.values)
        with pytest.raises(ValueError):
            random_step(3, 1, 5, "cauchy")


class TestFits:
    def test_exact_power(self):
        pts = [(x, 2.0 ** (3 * x)) for x in range(1, 8)]
        slope, intercept, r2 = fit_log2_slope(pts)
        assert slope == pytest.approx(3.0, abs=1e-12)
        assert r2 == pytest.approx(1.0)

    def test_constant_series(self):
        slope, _, _ = fit_log2_slope([(x, 5.0) for x in range(5)])
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_noisy_slope_recovered(self):
        stream = RandomStream(1)
        noise = stream.uniform(10, -0.0144, 0.0144)  # ~1% multiplicative
        pts = [
            (x, 7.0 * 2.0 ** (1.5 * x) * (1.0 + e)) for x, e in zip(range(10), noise)
        ]
        slope, _, _ = fit_log2_slope(pts)
        assert 1.4 < slope < 1.6

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_log2_slope([(0, 1.0), (1, 2.0)])
        with pytest.raises(ValueError):
            fit_log2_slope([(0, 1.0), (1, -2.0), (2, 3.0)])

    @pytest.mark.parametrize("x, y", [(1, math.nan), (1, math.inf), (math.inf, 2.0), (math.nan, 2.0)])
    def test_rejects_non_finite_points(self, x, y):
        with pytest.raises(ValueError, match="^x and y values must be finite$"):
            fit_log2_slope([(0, 1.0), (x, y), (2, 3.0)])

    def test_growth_fit_uses_scales_from_two(self, monkeypatch):
        # the k = 1 row is reported, and left out of the fit
        cfg = default_config("tensor-fail", k_lo=1, k_hi=6)
        res = run_experiment(cfg)
        rows = [(r["scale"], r["value"]) for r in res.rows]
        assert [k for k, _ in rows] == [1, 2, 3, 4, 5, 6] and res.summary["rows"] == 6
        fit = res.summary["fits"]["rank_one_ratio"]
        slope, intercept, r2 = fit_log2_slope(rows[1:])
        assert (fit["slope"], fit["intercept"], fit["r2"]) == (slope, intercept, r2)
        assert fit_log2_slope(rows)[1] != intercept
        # an outlier at k = 1 leaves the fit and the verdict alone
        real = experiments.tensor_spike_pair
        monkeypatch.setattr(
            experiments,
            "tensor_spike_pair",
            lambda k, d, prm: SimpleNamespace(ratio=1e6 if k == 1 else real(k, d, prm).ratio),
        )
        spiked = run_experiment(cfg)
        assert spiked.rows[0]["value"] == 1e6
        assert spiked.summary["fits"] == res.summary["fits"] and spiked.passed


class TestRunExperiment:
    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            default_config("frobnicate")

    def test_regime_constraints_enforced(self):
        with pytest.raises(ValueError):
            run_experiment(default_config("basis-fail", q=0.5))  # needs p < q
        with pytest.raises(ValueError):
            run_experiment(default_config("uncond-fail", q=0.9))  # needs q <= p
        with pytest.raises(ValueError):
            run_experiment(default_config("tensor-fail", d=1))

    def test_trivial_dual_passes(self):
        res = run_experiment(default_config("trivial-dual"))
        assert res.passed
        assert res.summary["regime"] == "NotBasisTrivialDual"

    def test_uncond_fail_passes(self):
        res = run_experiment(default_config("uncond-fail"))
        assert res.passed
        assert res.summary["regime"] == "ConditionalBasis"
        assert res.summary["fits"]["a_norm_pow_q_slope"] > 0

    def test_basis_fail_d2_passes(self):
        res = run_experiment(default_config("basis-fail", p=0.8, d=2, k_hi=7))
        assert res.passed
        fit = res.summary["fits"]["projector_ratio"]
        assert fit["relative_deviation"] <= 0.2
        assert res.summary["regime"] == "NotBasisUnboundedProjectors"

    def test_basis_fail_default_reports_transient_window(self):
        # d=1 at k=2..8 sits before the asymptotic regime; the run completes,
        # carries the theoretical exponent d(1/p - 1/q) = 0.4286, and honestly
        # reports a threshold failure
        res = run_experiment(default_config("basis-fail"))
        assert not res.passed
        fit = res.summary["fits"]["projector_ratio"]
        assert fit["theoretical_slope"] == pytest.approx(0.4285714285714286)
        assert fit["relative_deviation"] > 0.2

    def test_tensor_fail_passes(self):
        res = run_experiment(default_config("tensor-fail"))
        assert res.passed
        assert res.summary["regime"] == "NotBasisTensor"

    def test_classify_sweep(self):
        res = run_experiment(default_config("classify-sweep"))
        assert res.passed
        assert res.summary["lattice_points"] >= 10_000
        assert res.summary["unclassified"] == 0
        assert res.summary["examples_ok"]

    def test_equivalence_band_small(self):
        res = run_experiment(default_config("equivalence", samples=4))
        assert res.summary["band"]["max_over_min"] <= 50.0

    def test_route_harness_builds_only_what_it_reads(self, monkeypatch):
        # equivalence builds no modulus table and modulus-vs-approx runs no
        # analyze, which keeps each one's lattice cost; one function read at
        # three q, on both routes and both finest-scale terms, builds each
        # part once
        built = {}

        def counting(name):
            build = getattr(experiments, name)

            def counted(*args):
                built[name] = built.get(name, 0) + 1
                return build(*args)

            return counted

        for name in ("approximation_profile", "analyze", "ModulusTable"):
            monkeypatch.setattr(experiments, name, counting(name))
        run_experiment(default_config("equivalence", m_hi=2, samples=2))
        assert built == {"approximation_profile": 4, "analyze": 4}
        built.clear()
        run_experiment(default_config("modulus-vs-approx", m_hi=2, samples=2))
        assert built == {"approximation_profile": 4, "ModulusTable": 4}
        built.clear()
        routes = experiments._Routes(random_step(7, 2, 3), 1.5)
        for q in (0.5, 1.0, 2.0):
            for route in ("coefficient", "modulus"):
                routes.ratio(route, hb.BesovParams(1.5, q, 0.5, 2))
                routes.finest_ratio(route, 0.5)
        assert built == {"approximation_profile": 1, "analyze": 1, "ModulusTable": 1}

    @pytest.mark.parametrize("route", ["coefficient", "modulus"])
    def test_finest_ratio_of_a_constant_function_names_the_cause(self, route):
        # E_{m-1} = 0 and both routes' finest terms are 0: the ratio is 0/0
        for values in (np.ones(8), np.repeat([0.5, -2.0, 3.0, 0.0], 2)):
            routes = experiments._Routes(hb.DyadicStepFunction(1, 3, values), 2.0)
            with pytest.raises(ValueError, match="constant on every level-2 cube"):
                routes.finest_ratio(route, 0.25)

    @pytest.mark.parametrize("route", ["coefficient", "modulus"])
    def test_finest_ratio_at_level_zero_names_the_cause(self, route):
        routes = experiments._Routes(hb.DyadicStepFunction(2, 0, [[1.5]]), 1.5)
        with pytest.raises(ValueError, match="level 0 has no finest scale"):
            routes.finest_ratio(route, 0.25)

    def test_rows_and_summary_schema(self):
        res = run_experiment(default_config("tensor-fail"))
        assert res.summary["schema"] == 1
        assert set(CSV_COLUMNS) >= set(res.rows[0].keys()) or set(
            res.rows[0].keys()
        ) == set(CSV_COLUMNS)
        text = res.csv_text()
        header = text.splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert len(text.splitlines()) == len(res.rows) + 1
        assert "citation" in res.summary

    def test_byte_identical_reports(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        run_experiment(default_config("uncond-fail")).write(str(out1))
        run_experiment(default_config("uncond-fail")).write(str(out2))
        assert (out1.with_suffix(".csv")).read_bytes() == (
            out2.with_suffix(".csv")
        ).read_bytes()
        assert (out1.with_suffix(".json")).read_bytes() == (
            out2.with_suffix(".json")
        ).read_bytes()

    def test_json_format_single_file(self, tmp_path):
        out = tmp_path / "r"
        res = run_experiment(default_config("trivial-dual"))
        res.write(str(out), "json")
        blob = json.loads((out.with_suffix(".json")).read_text())
        assert "rows" in blob and "summary" in blob
        assert len(blob["rows"]) == len(res.rows)


class TestCli:
    def test_classify_json(self, capsys):
        rc = cli_main(
            ["classify", "--p", "0.8", "--q", "0.8", "--s", "0.25", "--d", "1"]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["regime"] == "ConditionalBasis"
        assert "citation" in out

    def test_classify_degenerate_needs_flag(self, capsys):
        args = ["classify", "--p", "2", "--q", "1", "--s", "0.9", "--d", "1"]
        assert cli_main(args) == 1
        assert cli_main(args + ["--allow-degenerate"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["regime"] == "DegenerateSpace"

    def test_generate_norm_transform_pipeline(self, tmp_path, capsys):
        fpath = tmp_path / "f.json"
        rc = cli_main(
            ["generate", "random", "--seed", "3", "--d", "1", "--m", "3", "--out", str(fpath)]
        )
        assert rc == 0
        rc = cli_main(
            ["norm", "--input", str(fpath), "--p", "2", "--q", "2", "--s", "0.25",
             "--route", "lp", "--route", "a", "--route", "square"]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"lp", "a", "square"}
        f = hb.function_from_json(fpath.read_text())
        assert out["lp"] == pytest.approx(hb.lp_quasinorm(f, 2.0), rel=1e-12)

        cpath = tmp_path / "c.json"
        assert cli_main(["transform", "--input", str(fpath), "--out", str(cpath)]) == 0
        back = tmp_path / "g.json"
        assert (
            cli_main(
                ["transform", "--input", str(cpath), "--inverse", "--m", "3", "--out", str(back)]
            )
            == 0
        )
        g = hb.function_from_json(back.read_text())
        np.testing.assert_allclose(g.values, f.values, atol=1e-12)
        tensor = ["--system", "tensor"]
        assert cli_main(["transform", "--input", str(fpath), "--out", str(cpath)] + tensor) == 0
        for m in ([], ["--m", "4"]):
            args = ["transform", "--input", str(cpath), "--inverse", "--out", str(back)]
            assert cli_main(args + tensor + m) == 0
            g = hb.function_from_json(back.read_text())
            np.testing.assert_allclose(g.values, hb.densify(f, g.level).values, atol=1e-12)

    def test_tensor_transform_near_double_range_prints_finite_json(self, tmp_path, capsys):
        # the tensor cascade halves before it adds, so its sums stay finite,
        # as the isotropic transform's do
        fpath = tmp_path / "top.json"
        fpath.write_text(json.dumps({"d": 2, "m": 1, "values": [1.7e308, -1.7e308] * 2}))

        def strict(token):
            raise AssertionError(f"invalid JSON constant {token}")

        for system in ("isotropic", "tensor"):
            args = ["transform", "--input", str(fpath), "--system", system]
            assert cli_main(args) == 0
            out = json.loads(capsys.readouterr().out, parse_constant=strict)
            if system == "tensor":
                assert out == {"d": 2, "entries": [{"n": [1, 2], "value": 1.7e308}]}

    def test_generate_families(self, tmp_path, capsys):
        for fam in ("nested", "spike", "scattered", "tensor-spike"):
            rc = cli_main(["generate", fam, "--d", "2", "--m", "3", "--k", "1"])
            assert rc == 0
            obj = json.loads(capsys.readouterr().out)
            assert obj["kind"] == "sparse"

    @pytest.mark.parametrize("family", _cli_choices("generate", "family"))
    def test_every_generator_prints_the_library_function(self, family, capsys):
        assert cli_main(["generate", family, "--d", "2", "--m", "3", "--k", "1"]) == 0
        expect = {
            "nested": lambda: hb.nested_family(hb.NestedSpec(2, 3)),
            "spike": lambda: hb.spike_pair(3, 2).f,
            "spike-sums": lambda: hb.spike_pair(3, 2).g(1),
            "scattered": lambda: hb.scattered(hb.ScatteredSpec(1, 2, 0.5)),
            "tensor-spike": lambda: hb.tensor_spike_pair(1, 2, hb.BesovParams(0.5, 1, 0, 2)).f,
            "random": lambda: random_step(0, 2, 3),
        }[family]()
        assert capsys.readouterr().out == hb.function_to_json(expect) + "\n"

    @pytest.mark.parametrize("route", _cli_choices("norm", "route"))
    def test_every_norm_route_prints_the_library_value(self, route, tmp_path, capsys):
        f = random_step(5, 2, 3)
        fpath = tmp_path / "f.json"
        fpath.write_text(hb.function_to_json(f))
        args = ["norm", "--input", str(fpath), "--p", "1.5", "--q", "2", "--s", "0.25"]
        assert cli_main(args + ["--route", route]) == 0
        prm = hb.BesovParams(1.5, 2.0, 0.25, 2)
        sup = lambda: hb.linf_lp_norm(hb.analyze(f), hb.BesovParams(1.5, hb.INF, 0.25, 2))
        expect = {
            "lp": lambda: {"lp": hb.lp_quasinorm(f, 1.5)},
            "a": lambda: {"a": hb.a_norm(f, prm)},
            "modulus": lambda: {"modulus": hb.b_norm_modulus(f, prm)},
            "lqlp": lambda: {"lqlp": hb.lqlp_norm(hb.analyze(f), prm)},
            "linflp": lambda: {
                "linflp": sup().value,
                "linflp_per_level": sup().per_level.tolist(),
            },
            "square": lambda: {"square": hb.square_function_norm(f, 1.5)},
            "b0221": lambda: {"b0221": hb.b0_221_weighted_sum(f)},
        }[route]()
        assert json.loads(capsys.readouterr().out) == expect
        if route == "linflp":
            assert len(expect["linflp_per_level"]) == 4
            assert cli_main(["norm", "--input", str(fpath), "--p", "1.5", "--route", route]) == 1
            assert capsys.readouterr().err == "error: route linflp needs --s\n"

    def test_modulus_scale_sum_underflow_exits_one(self, tmp_path, capsys):
        fpath = tmp_path / "f.json"
        fpath.write_text(json.dumps({"d": 1, "m": 2, "values": [0.3, -1, 0.5, 2]}))
        args = ["norm", "--input", str(fpath), "--p", "2", "--q", "1", "--s", "0.499"]
        assert cli_main(args + ["--route", "modulus"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the modulus-route scale sum") and "Traceback" not in err

    def test_experiment_exit_codes(self, tmp_path):
        assert cli_main(["experiment", "trivial-dual", "--out", str(tmp_path / "t")]) == 0
        # default basis-fail window is pre-asymptotic: threshold failure
        assert cli_main(["experiment", "basis-fail"]) == 2

    def test_usage_errors_exit_one(self, tmp_path, capsys):
        assert cli_main(["experiment", "basis-fail", "--q", "0.5"]) == 1
        assert cli_main(["classify", "--p", "0", "--q", "1", "--s", "0", "--d", "1"]) == 1
        assert cli_main(["norm", "--input", "/nonexistent", "--p", "2"]) == 1
        assert cli_main(["frobnicate"]) == 1
        capsys.readouterr()
        # malformed JSON input names the bad field instead of a traceback
        atom = {"level": 1, "index": [0], "sign": 1}
        entry = {"parent": [0], "pattern": 1, "value": 1.0}
        cases = [
            (["norm", "--p", "2"], {"kind": "dense", "values": [1, 2]}, "'d'"),
            (["norm", "--p", "2"], [1, 2], "got list"),
            (["norm", "--p", "2"], {"kind": "sparse", "d": 1, "atoms": [atom]}, "'log2mag'"),
            (["norm", "--p", "2"], {"kind": "sparse", "d": 1, "atoms": 3}, "'atoms'"),
            (["transform", "--inverse"], {"d": 1, "levels": []}, "'K'"),
            (
                ["transform", "--inverse"],
                {"d": 1, "K": 1, "levels": [{"k": 1, "entries": [{**entry, "parent": [1]}]}]},
                "'parent'",
            ),
            # numpy would wrap a negative parent index or pattern 0 silently
            (
                ["transform", "--inverse"],
                {"d": 1, "K": 2, "levels": [{"k": 2, "entries": [{**entry, "parent": [-1]}]}]},
                "'parent'",
            ),
            (
                ["transform", "--inverse"],
                {"d": 1, "K": 1, "levels": [{"k": 1, "entries": [{**entry, "pattern": 0}]}]},
                "pattern",
            ),
            (["transform", "--inverse", "--system", "tensor"], {"d": 1}, "'entries'"),
            (
                ["transform", "--inverse", "--system", "tensor"],
                {"d": 2, "entries": [{"n": [1], "value": 1.0}]},
                "needs 2 components",
            ),
        ]
        # a non-integer in an integer field is malformed, not truncated or parsed
        norm, haar = ["norm", "--p", "2"], ["transform", "--inverse"]
        tensor = haar + ["--system", "tensor"]
        atom = {**atom, "level": 2, "index": [1], "log2mag": 0.0}
        level = lambda k, rec: [{"k": k, "entries": [{**entry, **rec}]}]
        cases += [
            (args, obj, f"JSON field '{name}' is malformed")
            for args, obj, name in [
                (norm, {"d": 1, "atoms": [{**atom, "level": 2.9}]}, "level"),
                (norm, {"d": 1, "atoms": [{**atom, "index": [1.7]}]}, "index"),
                (norm, {"d": 1, "atoms": [{**atom, "sign": 0.5}]}, "sign"),
                (norm, {"d": 1.5, "atoms": [atom]}, "d"),
                (norm, {"d": 1.5, "m": 1, "values": [1, 2]}, "d"),
                (norm, {"d": "2", "m": 1, "values": [1, 2, 3, 4]}, "d"),
                (norm, {"d": 1, "m": 1.5, "values": [1, 2]}, "m"),
                (haar, {"d": 1, "K": 2.5, "levels": []}, "K"),
                (haar, {"d": 1.5, "K": 1, "levels": []}, "d"),
                (haar, {"d": 1, "K": 1, "levels": level(1.5, {})}, "k"),
                (haar, {"d": 1, "K": 2, "levels": level(2, {"parent": [0.5]})}, "parent"),
                (haar, {"d": 1, "K": 1, "levels": level(1, {"pattern": 1.5})}, "pattern"),
                (tensor, {"d": 2, "entries": [{"n": [1.5, 2], "value": 1.0}]}, "n"),
                (tensor, {"d": 2.0, "entries": []}, "d"),
            ]
        ]
        fpath = tmp_path / "bad.json"
        for args, obj, field in cases:
            fpath.write_text(json.dumps(obj))
            assert cli_main(args + ["--input", str(fpath)]) == 1, obj
            err = capsys.readouterr().err
            assert err.startswith("error: ") and field in err, err
            assert "Traceback" not in err

    def test_capacity_error_exits_one(self, tmp_path, capsys):
        assert cli_main(["generate", "random", "--d", "3", "--m", "12"]) == 1
        err = capsys.readouterr().err
        assert "2**36" in err and "Traceback" not in err
        fpath = tmp_path / "s.json"
        args = ["generate", "scattered", "--k", "3", "--d", "2", "--out", str(fpath)]
        assert cli_main(args) == 0
        args = ["norm", "--input", str(fpath), "--p", "2", "--q", "2", "--s", "0.25"]
        assert cli_main(args + ["--route", "modulus"]) == 1
        err = capsys.readouterr().err
        assert "2**70" in err and "Traceback" not in err

    def test_non_finite_input_exits_one(self, tmp_path, capsys):
        fpath = tmp_path / "nan.json"
        fpath.write_text('{"kind":"dense","d":1,"m":1,"values":[NaN,1.0]}')
        args = ["norm", "--input", str(fpath), "--p", "2", "--q", "2", "--s", "0.25"]
        for route in ("lp", "a", "lqlp", "modulus"):
            args += ["--route", route]
        assert cli_main(args) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("route", ["lp", "a", "modulus"])
    def test_atom_beyond_double_range_exits_one(self, route, tmp_path, capsys):
        fpath = tmp_path / "big.json"
        atom = {"level": 20, "index": [3], "sign": 1, "log2mag": 2000.0}
        fpath.write_text(json.dumps({"kind": "sparse", "d": 1, "atoms": [atom]}))
        args = ["norm", "--input", str(fpath), "--p", "0.5", "--q", "1", "--s", "0.1"]
        assert cli_main(args + ["--route", route]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "beyond double range" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "routes,name",
        [
            ([], "approximation-route sum"),  # the default routes, lp and a
            (["modulus"], "modulus-route scale sum"),
            (["b0221"], "b0221 sum"),
        ],
    )
    def test_route_total_beyond_double_range_exits_one(
        self, routes, name, tmp_path, capsys
    ):
        fpath = tmp_path / "big.json"
        fpath.write_text(json.dumps({"d": 1, "m": 2, "values": [1e300, -1e300] * 2}))
        args = ["norm", "--input", str(fpath), "--p", "0.5", "--q", "0.05", "--s", "0"]
        for route in routes:
            args += ["--route", route]
        assert cli_main(args) == 1
        err = capsys.readouterr().err
        assert err == f"error: the {name} overflows double range\n"

    def test_square_route_past_lambda_squared_overflow_prints_the_norm(self, tmp_path, capsys):
        # lambda^2 = 1e600 overflows but the norm does not: the route scales the
        # coefficients by a power of two and prints S = 1e300
        fpath = tmp_path / "big.json"
        fpath.write_text(json.dumps({"d": 1, "m": 2, "values": [1e300, -1e300] * 2}))
        args = ["norm", "--input", str(fpath), "--p", "0.5", "--route", "square"]
        assert cli_main(args) == 0
        assert json.loads(capsys.readouterr().out)["square"] == pytest.approx(1e300, rel=1e-15)

    def test_sparse_sums_beyond_double_range_exit_one(self, tmp_path, capsys):
        atoms = [{"level": lev, "index": [0], "sign": 1, "log2mag": 1023.9} for lev in (0, 1)]
        fpath = tmp_path / "sum.json"
        fpath.write_text(json.dumps({"kind": "sparse", "d": 1, "atoms": atoms}))
        args = ["norm", "--input", str(fpath), "--p", "2", "--q", "1", "--s", "0.1"]
        assert cli_main(args + ["--route", "a"]) == 1
        err = capsys.readouterr().err
        assert err == "error: the approximation-route error E_0 overflows double range\n"
        assert cli_main(args + ["--route", "lp"]) == 1
        assert capsys.readouterr().err == "error: histogram values must be finite\n"

    def test_lqlp_beyond_double_range_exits_one_nesting_lp_prints_the_norm(
        self, tmp_path, capsys
    ):
        # 128 finest coefficients of 1e300 at p = 0.25: the lqlp norm is
        # 2^{-0.08} 2^28 1e300, past the largest double
        fpath = tmp_path / "fine.json"
        fpath.write_text(json.dumps({"d": 1, "m": 8, "values": [1e300, -1e300] * 128}))
        args = ["norm", "--input", str(fpath), "--p", "0.25", "--q", "1", "--s", "3.99"]
        assert cli_main(args + ["--route", "lqlp"]) == 1
        err = capsys.readouterr().err
        assert err == "error: the lqlp norm overflows double range\n"
        # two nesting atoms: |value|^2 overflows, the L_2 norm is about 2^999
        atoms = [
            {"level": lev, "index": [0], "sign": 1, "log2mag": 1000.0} for lev in (2, 20)
        ]
        fpath.write_text(json.dumps({"kind": "sparse", "d": 1, "atoms": atoms}))
        args = ["norm", "--input", str(fpath), "--p", "2", "--route", "lp"]
        assert cli_main(args) == 0
        lp = json.loads(capsys.readouterr().out)["lp"]
        assert lp == pytest.approx(2.0**999 * (1 + 3 * 2.0**-18) ** 0.5, rel=1e-12)

    @pytest.mark.parametrize(
        "flags,field", [(["--samples", "0"], "samples"), (["--m", "0"], "m_hi")]
    )
    def test_empty_experiment_range_exits_one(self, flags, field, capsys):
        assert cli_main(["experiment", "equivalence"] + flags) == 1
        assert field in capsys.readouterr().err

    def test_cli_experiment_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["experiment", "uncond-fail", "--out", str(a)]) == 0
        assert cli_main(["experiment", "uncond-fail", "--out", str(b)]) == 0
        assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()
