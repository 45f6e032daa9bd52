import dataclasses
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hjbpi
from hjbpi import cli
from hjbpi import legendre as legendre_module
from hjbpi.cli import (
    EXIT_BLOWUP,
    EXIT_INTERNAL,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_VALIDATION,
    ExperimentConfig,
    InlineProblemSpec,
    main,
    parse_config,
    run_experiment,
    serialize_config,
)
from hjbpi.errors import (
    CFLValidationError,
    ConfigParseError,
    MonotonicityError,
    NumericalBlowupError,
)
from hjbpi.pi import fit_geometric_rate

MINIMAL = """
# minimal experiment
benchmark: eikonal-cos
scheme.h: 0.1
scheme.T: 1.0
mode: solve
"""


def run_python(args, cwd):
    # the child runs from cwd, where a relative PYTHONPATH entry such as
    # "src" no longer resolves; hand it the package this process imported
    package_root = str(Path(hjbpi.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          env=env, capture_output=True, text=True)


def run_cli(args, cwd):
    return run_python(["-m", "hjbpi", *args], cwd)


def read_summary(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            key, _, value = line.partition(":")
            out[key.strip()] = value.strip()
    return out


class TestParseConfig:
    def test_minimal_defaults(self):
        config = parse_config(MINIMAL)
        assert config.benchmark == "eikonal-cos"
        assert config.mode == "solve"
        assert config.tau is None and config.N is None

    def test_cfl_violation_rejected_at_parse(self):
        text = MINIMAL + "scheme.tau: 0.2\n"
        with pytest.raises(CFLValidationError):
            parse_config(text)

    def test_unknown_key_carries_line(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config("benchmark: zero\nscheme.h: 0.1\nwibble: 3\n")
        assert err.value.line_no == 3 and err.value.key == "wibble"

    @pytest.mark.parametrize("key", ["seed", "threads", "pi.record_every"])
    def test_removed_knobs_are_unknown_keys(self, key, tmp_path):
        with pytest.raises(ConfigParseError) as err:
            parse_config(f"benchmark: zero\nscheme.h: 0.1\n{key}: 3\n")
        assert err.value.line_no == 3 and err.value.key == key
        (tmp_path / "exp.cfg").write_text(f"benchmark: zero\n{key}: 0\n")
        result = run_cli(["solve", "--config", "exp.cfg"], cwd=tmp_path)
        assert result.returncode == EXIT_VALIDATION
        assert f"unknown key '{key}'" in result.stderr

    def test_unknown_mode_carries_line(self, tmp_path, capsys):
        text = "benchmark: zero\nmode: bogus\nscheme.h: 0.1\n"
        with pytest.raises(ConfigParseError,
                           match=r"line 2: bad value for 'mode': unknown mode 'bogus'"):
            parse_config(text)
        # a subcommand replaces the file's mode, but a bad one is still an error
        (tmp_path / "exp.cfg").write_text(text)
        assert main(["solve", "--config", str(tmp_path / "exp.cfg"),
                     "--output", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert "line 2: bad value for 'mode'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigParseError):
            parse_config("benchmark: zero\nbenchmark: zero\nscheme.h: 0.1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigParseError):
            parse_config("benchmark: zero\nscheme.h: fast\n")

    @pytest.mark.parametrize("key", ["scheme.h", "scheme.tau", "scheme.N", "scheme.T",
                                     "pi.max_iterations", "pi.stop_tolerance",
                                     "legendre.M"])
    @pytest.mark.parametrize("bad", ["0", "-0.5", "nan", "inf"])
    def test_scheme_numbers_must_be_finite_and_positive(self, key, bad, tmp_path, capsys):
        (tmp_path / "exp.cfg").write_text(f"benchmark: eikonal-cos\nmode: solve\n{key}: {bad}\n")
        code = main(["solve", "--config", str(tmp_path / "exp.cfg"),
                     "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert key in err and "line 3" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode, key", [("h-study", "study.h_values"),
                                           ("tau-study", "study.tau_values"),
                                           ("probes", "probes.h_values")])
    @pytest.mark.parametrize("bad", ["0", "-0.5", "nan", "inf"])
    def test_list_entries_must_be_finite_and_positive(self, mode, key, bad, tmp_path, capsys):
        (tmp_path / "exp.cfg").write_text(
            f"benchmark: eikonal-cos\nprobes.points: 0.5\n{key}: 0.1, 0.05, {bad}\n")
        code = main([mode, "--config", str(tmp_path / "exp.cfg"),
                     "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert f"line 3: {key!r} must be a finite number > 0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, bad", [
        ("eikonal-cos", "nan"), ("eikonal-cos", "inf"), ("eikonal-cos", "-inf"),
        ("quadratic-lq", "nan"), ("quadratic-lq", "100"), ("quadratic-lq", "-2.5")])
    def test_probe_points_must_be_finite_and_in_the_box(self, name, bad, tmp_path, capsys):
        (tmp_path / "exp.cfg").write_text(f"benchmark: {name}\nprobes.points: 0.5, {bad}\n")
        code = main(["probes", "--config", str(tmp_path / "exp.cfg"),
                     "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert "line 2: 'probes.points' must be finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_probe_points_on_the_clamped_box_edge_run(self, tmp_path, capsys):
        (tmp_path / "exp.cfg").write_text(
            "benchmark: quadratic-lq\nprobes.points: -2.0, 2.0\nprobes.h_values: 0.5\n")
        code = main(["probes", "--config", str(tmp_path / "exp.cfg"),
                     "--output", str(tmp_path / "out")])
        capsys.readouterr()
        assert code == EXIT_OK

    @pytest.mark.parametrize("mode, text, line", [
        ("h-study", "study.h_values: 0.2, 0.1, 1.5\n", 3),
        ("h-study", "study.h_values: 0.2, 0.1, 0.05, 0.08\n", 3),
        ("tau-study", "study.tau_values: 0.05, 0.2\n", 3),
        ("tau-study", "study.tau_values: 0.05\n", 3),
        ("tau-study", "study.tau_values: 0.2, 0.1\n", 3),  # tau > h/(2N) at h = 0.1
        ("probes", "probes.h_values: 0.1, 3\nprobes.points: 0.5\n", 3),
        ("solve", "probes.points: 0.5\nprobes.h_values: 0.1, 3\n", 4),
    ], ids=["h-too-few", "h-not-decreasing", "tau-not-decreasing", "tau-too-few",
            "tau-cfl", "probe-h-too-large", "probe-h-in-solve"])
    def test_list_entries_checked_before_any_output(self, mode, text, line, tmp_path,
                                                   capsys):
        (tmp_path / "exp.cfg").write_text(f"benchmark: eikonal-cos\nscheme.h: 0.1\n{text}")
        code = main([mode, "--config", str(tmp_path / "exp.cfg"),
                     "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        key = text.splitlines()[line - 3].partition(":")[0]
        assert f"error: line {line}: {key!r}: " in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode, key", [("h-study", "study.h_values"),
                                           ("tau-study", "study.tau_values"),
                                           ("probes", "probes.points")])
    def test_mode_without_its_list_leaves_no_output(self, mode, key, tmp_path, capsys):
        (tmp_path / "exp.cfg").write_text("benchmark: eikonal-cos\n")
        code = main([mode, "--config", str(tmp_path / "exp.cfg"),
                     "--output", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {mode} mode needs {key}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["pi", "h-study", "tau-study"])
    def test_empty_measured_region_leaves_no_output(self, mode, tmp_path, capsys):
        # a collar of f_sup_bound * T = 2.5 leaves no point of the box (-2, 2) measured
        (tmp_path / "exp.cfg").write_text(
            "benchmark: quadratic-lq\nscheme.T: 2.5\nscheme.h: 0.1\n"
            "study.tau_values: 0.05, 0.025\nstudy.h_values: 0.2, 0.1, 0.05, 0.025\n")
        code = main([mode, "--config", str(tmp_path / "exp.cfg"),
                     "--output", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "measured region is empty" in lines[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode, text", [
        ("solve", "problem.dynamics: warp\n"),
        ("solve", "problem.running_cost: warp\n"),
        ("solve", "problem.terminal_cost: warp\n"),
        ("solve", "problem.periodic: maybe\n"),
        ("legendre-pi", "benchmark: eikonal-cos\nlegendre.hamiltonian: warp\n"),
        ("solve", "benchmark: warp\n"),
        ("pi", "benchmark: eikonal-cos\npi.initial_policy: warp\n"),
    ])
    def test_unknown_names_are_parse_errors(self, mode, text, tmp_path, capsys):
        (tmp_path / "exp.cfg").write_text("scheme.h: 0.1\n" + text)
        code = main([mode, "--config", str(tmp_path / "exp.cfg"),
                     "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        line = len(text.splitlines()) + 1
        key = text.splitlines()[-1].partition(":")[0]
        assert code == EXIT_VALIDATION
        assert f"error: line {line}: bad value for {key!r}: " in err
        assert "maybe" in err or "unknown" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["problem.control_min", "problem.control_max"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("samples", [1, 3])
    def test_control_bounds_must_be_finite(self, key, bad, samples, tmp_path, capsys):
        (tmp_path / "exp.cfg").write_text(
            f"scheme.h: 0.1\nproblem.control_samples: {samples}\n{key}: {bad}\n")
        code = main(["solve", "--config", str(tmp_path / "exp.cfg"),
                     "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert f"line 3: {key!r} must be finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, bad, value, message", [
        ("problem.control_samples", "0", 0, ": control sample count must be >= 1"),
        ("problem.f_sup_bound", "nan", math.nan,
         ": f_sup_bound must be a finite non-negative real"),
        ("problem.f_sup_bound", "-1", -1.0, ": f_sup_bound must be a finite non-negative real"),
        ("problem.box", "1, -1", (1.0, -1.0),
         " must be a pair of numbers lo < hi, got (1.0, -1.0)"),
    ], ids=["control_samples", "f_sup_bound-nan", "f_sup_bound-negative", "box-reversed"])
    def test_inline_problem_value_names_its_key(self, key, bad, value, message, tmp_path,
                                                capsys):
        (tmp_path / "exp.cfg").write_text(f"scheme.h: 0.1\n{key}: {bad}\n")
        code = main(["solve", "--config", str(tmp_path / "exp.cfg"),
                     "--output", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: line 2: {key!r}{message}\n"
        assert not (tmp_path / "out").exists()
        # the same value in a config built in code
        problem = InlineProblemSpec(**{cli._KEYS[key][0]: value})
        code = run_experiment(ExperimentConfig(mode="solve", problem=problem,
                                               output_dir=str(tmp_path / "out")))
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {key!r}{message}\n"
        assert not (tmp_path / "out").exists()

    def test_equal_control_ends_blame_the_default_sample_count(self, tmp_path, capsys):
        # 21 samples of [1, 1] repeat; the count is a default, so no line
        (tmp_path / "exp.cfg").write_text(
            "scheme.h: 0.1\nproblem.control_min: 1\nproblem.control_max: 1\n")
        code = main(["solve", "--config", str(tmp_path / "exp.cfg"),
                     "--output", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == ("error: 'problem.control_samples': "
                                           "control set elements must be distinct\n")
        assert not (tmp_path / "out").exists()

    def test_legendre_m_whose_probes_overflow_rejected(self, tmp_path, capsys):
        # finite and > 0, but H = |p|^2/2 on |p| = 2M overflows to inf
        (tmp_path / "exp.cfg").write_text(
            "benchmark: eikonal-cos\nscheme.h: 0.1\nlegendre.M: 1e300\n")
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["legendre-pi", "--config", str(tmp_path / "exp.cfg"),
                         "--output", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        assert "are not finite for M=1e+300" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_benchmark_xor_inline_problem(self):
        with pytest.raises(Exception):
            parse_config("scheme.h: 0.1\n")
        with pytest.raises(Exception):
            parse_config("benchmark: zero\nproblem.dynamics: control\nscheme.h: 0.1\n")

    def test_inline_problem_forms(self):
        text = (
            "problem.dimension: 1\nproblem.box: 0.0, 6.283185307179586\n"
            "problem.periodic: true\nproblem.dynamics: unit\n"
            "problem.running_cost: zero\nproblem.terminal_cost: sin\n"
            "problem.control_samples: 1\nproblem.f_sup_bound: 1.0\n"
            "scheme.h: 0.1\nmode: solve\n")
        config = parse_config(text)
        assert config.problem.dynamics == "unit"
        assert config.problem.box == (0.0, 2 * np.pi)


def random_config(rng):
    benchmark = rng.choice(["eikonal-cos", "quadratic-lq", "transport-sin", "zero"])
    h = float(rng.choice([0.2, 0.1, 0.05]))
    config = ExperimentConfig(
        mode=str(rng.choice(["solve", "pi", "h-study", "tau-study", "legendre-pi",
                             "probes"])),
        benchmark=str(benchmark),
        h=h,
        tau=None if rng.random() < 0.5 else h / float(rng.integers(3, 8)),
        N=None if rng.random() < 0.7 else float(rng.integers(1, 3)),
        T=float(rng.choice([0.5, 1.0])),
        output_dir=f"out{rng.integers(100)}",
        pi_max_iterations=int(rng.integers(1, 200)),
        pi_stop_tolerance=float(rng.choice([1e-8, 1e-10])),
        pi_initial_policy=str(rng.choice(["benchmark-default", "first-control",
                                          "argmin-of-c"])),
        study_h_values=None if rng.random() < 0.5 else (0.2, 0.1, 0.05, 0.025),
        study_tau_values=None if rng.random() < 0.5 else (0.02, 0.01),
        legendre_M=float(rng.choice([1.0, 2.0])),
        probe_points=None if rng.random() < 0.5 else (1.0, 2.0),
        probe_h_values=None,
    )
    return config


def test_serialize_parse_roundtrip_100_random_configs():
    rng = np.random.default_rng(2024)
    count = 0
    while count < 100:
        config = random_config(rng)
        try:
            parse_config(serialize_config(config))
        except CFLValidationError:
            continue  # random triple violated the step bound; draw again
        assert parse_config(serialize_config(config)) == config
        count += 1


def test_roundtrip_with_inline_problem():
    config = ExperimentConfig(
        mode="solve",
        problem=InlineProblemSpec(dynamics="unit", running_cost="zero",
                                  terminal_cost="sin", box=(0.0, 2 * np.pi),
                                  control_samples=1),
        h=0.1)
    assert parse_config(serialize_config(config)) == config


EVERY_KEY = ExperimentConfig(
    mode="pi", benchmark="quadratic-lq",
    problem=InlineProblemSpec(dimension=1, box=(0.0, 2.5), periodic=False,
                              dynamics="unit", running_cost="one", terminal_cost="sin",
                              control_min=-2.0, control_max=2.0, control_samples=5,
                              f_sup_bound=2.0),
    h=0.05, tau=0.01, N=2.0, T=0.5, output_dir="artifacts", pi_max_iterations=7,
    pi_stop_tolerance=1e-8, pi_initial_policy="argmin-of-c",
    study_h_values=(0.2, 0.1, 0.05, 0.025), study_tau_values=(0.02, 0.01),
    legendre_M=1.5, legendre_hamiltonian="half-square", probe_points=(0.5, -1.0),
    probe_h_values=(0.1, 0.05))

EVERY_KEY_TEXT = """\
mode: pi
benchmark: quadratic-lq
problem.dimension: 1
problem.box: 0.0, 2.5
problem.periodic: false
problem.dynamics: unit
problem.running_cost: one
problem.terminal_cost: sin
problem.control_min: -2.0
problem.control_max: 2.0
problem.control_samples: 5
problem.f_sup_bound: 2.0
scheme.h: 0.05
scheme.tau: 0.01
scheme.N: 2.0
scheme.T: 0.5
output_dir: artifacts
pi.max_iterations: 7
pi.stop_tolerance: 1e-08
pi.initial_policy: argmin-of-c
study.h_values: 0.2, 0.1, 0.05, 0.025
study.tau_values: 0.02, 0.01
legendre.M: 1.5
legendre.hamiltonian: half-square
probes.points: 0.5, -1.0
probes.h_values: 0.1, 0.05
"""


def test_serialize_key_order_is_pinned():
    assert serialize_config(EVERY_KEY) == EVERY_KEY_TEXT
    keys = [line.partition(":")[0] for line in EVERY_KEY_TEXT.splitlines()]
    assert sorted(keys) == cli.KNOWN_KEYS


def readme_config_keys():
    """The keys named in the first column of the README's config-key table."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.partition("### Config keys\n\n")[2].partition("\n\n")[0]
    rows = table.splitlines()[2:]  # below the header and its rule
    assert rows and all(row.startswith("| `") for row in rows)
    return [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])
            if not key.endswith(".*")]


def test_every_known_key_is_documented_in_the_readme():
    # both ways: no key undocumented, no documented key unknown
    assert sorted(readme_config_keys()) == cli.KNOWN_KEYS


def test_schema_names_every_config_field_once():
    # "problem.*" keys name InlineProblemSpec fields, the rest ExperimentConfig
    # fields; only ExperimentConfig.problem, the spec itself, has no key
    schema = [(key.startswith("problem."), attr) for key, (attr, _) in cli._KEYS.items()]
    fields = ([(False, field.name) for field in dataclasses.fields(ExperimentConfig)
               if field.name != "problem"]
              + [(True, field.name) for field in dataclasses.fields(InlineProblemSpec)])
    assert sorted(schema) == sorted(fields)


class TestRunExperiment:
    def test_solve_zero_writes_zero_solution(self, tmp_path):
        config = ExperimentConfig(mode="solve", benchmark="zero", h=0.1,
                                  output_dir=str(tmp_path / "out"))
        assert run_experiment(config) == EXIT_OK
        rows = (tmp_path / "out" / "solution.csv").read_text().strip().splitlines()
        assert rows[0] == "t,linear_index,x_0,value,control_index"
        assert all(row.split(",")[3] == "0.0" for row in rows[1:])

    def test_pi_summary_reports_contraction(self, tmp_path):
        config = ExperimentConfig(mode="pi", benchmark="quadratic-lq", h=0.05,
                                  output_dir=str(tmp_path / "out"))
        assert run_experiment(config) == EXIT_OK
        summary = read_summary(tmp_path / "out" / "summary.txt")
        assert float(summary["rho"]) <= 0.75
        assert float(summary["final_sup_error"]) <= 1e-8
        assert (tmp_path / "out" / "pi_run.csv").exists()

    def test_h_study_outputs(self, tmp_path):
        config = ExperimentConfig(mode="h-study", benchmark="transport-sin", h=0.1,
                                  study_h_values=(0.2, 0.1, 0.05, 0.025),
                                  output_dir=str(tmp_path / "out"))
        assert run_experiment(config) == EXIT_OK
        assert (tmp_path / "out" / "study.csv").exists()
        assert (tmp_path / "out" / "study.dat").read_text().startswith("# h sup_error")
        import json

        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["fitted_order"] >= 0.9

    def test_list_valued_keys_built_in_code_are_written_as_lists(self, tmp_path):
        config = ExperimentConfig(mode="h-study", benchmark="eikonal-cos",
                                  study_h_values=[0.2, 0.1, 0.05, 0.025],
                                  output_dir=str(tmp_path / "out"))
        assert run_experiment(config) == EXIT_OK
        written = parse_config((tmp_path / "out" / "config.txt").read_text())
        assert written == replace(config, study_h_values=(0.2, 0.1, 0.05, 0.025))
        summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        assert summary[:2] == ["mode: h-study", "benchmark: eikonal-cos"]

    @pytest.mark.parametrize("field, key", [("dynamics", "problem.dynamics"),
                                            ("running_cost", "problem.running_cost"),
                                            ("terminal_cost", "problem.terminal_cost")])
    def test_code_built_config_gets_choice_check(self, field, key, tmp_path, capsys):
        config = ExperimentConfig(mode="solve", problem=InlineProblemSpec(**{field: "warp"}),
                                  output_dir=str(tmp_path / "out"))
        assert run_experiment(config) == EXIT_VALIDATION
        assert f"error: {key!r}: unknown " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fields, message", [
        (dict(h="0.1"), "'scheme.h' must be a number, got '0.1'"),
        (dict(T=[1.0]), "'scheme.T' must be a number, got [1.0]"),
        (dict(pi_max_iterations=5.0), "'pi.max_iterations' must be an integer, got 5.0"),
        (dict(study_h_values=0.1), "'study.h_values' must be a list of numbers, got 0.1"),
        (dict(probe_points=("0.5",)), "'probes.points' must be a list of numbers"),
        (dict(mode=["solve"]), "'mode' must be a string, got ['solve']"),
        (dict(benchmark=None, problem=InlineProblemSpec(box=(0.0,))),
         "'problem.box' must be a pair of numbers lo < hi, got (0.0,)"),
        (dict(benchmark=None, problem=InlineProblemSpec(periodic=1)),
         "'problem.periodic' must be a boolean, got 1"),
    ])
    def test_code_built_value_of_the_wrong_type(self, fields, message, tmp_path, capsys):
        fields = {"mode": "solve", "benchmark": "zero", **fields,
                  "output_dir": str(tmp_path / "out")}
        assert run_experiment(ExperimentConfig(**fields)) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_code_built_ints_and_lists_are_accepted(self, tmp_path):
        config = ExperimentConfig(mode="tau-study", benchmark="eikonal-cos", h=0.1, T=1,
                                  study_tau_values=[0.04, 0.02],
                                  output_dir=str(tmp_path / "out"))
        assert run_experiment(config) == EXIT_OK

    def test_missing_study_values_is_validation_error(self, tmp_path):
        config = ExperimentConfig(mode="h-study", benchmark="zero", h=0.1,
                                  output_dir=str(tmp_path / "out"))
        assert run_experiment(config) == EXIT_VALIDATION

    def test_tau_study_outputs(self, tmp_path):
        config = ExperimentConfig(mode="tau-study", benchmark="eikonal-cos", h=0.1,
                                  study_tau_values=(1 / 21, 1 / 42, 1 / 84),
                                  output_dir=str(tmp_path / "out"))
        assert run_experiment(config) == EXIT_OK
        summary = read_summary(tmp_path / "out" / "summary.txt")
        assert summary["distances_decreasing"] == "True"
        assert (tmp_path / "out" / "study.csv").exists()

    def test_legendre_pi_outputs(self, tmp_path):
        config = ExperimentConfig(mode="legendre-pi", benchmark="eikonal-cos", h=0.1,
                                  output_dir=str(tmp_path / "out"))
        assert run_experiment(config) == EXIT_OK
        summary = read_summary(tmp_path / "out" / "summary.txt")
        assert float(summary["final_sup_error"]) <= 1e-8
        header = (tmp_path / "out" / "legendre_run.csv").read_text().splitlines()[0]
        assert header.endswith("legendre_resolution")

    def test_inline_problem_solve_matches_benchmark(self, tmp_path):
        inline = ExperimentConfig(
            mode="solve",
            problem=InlineProblemSpec(dynamics="unit", running_cost="zero",
                                      terminal_cost="sin", box=(0.0, 2 * np.pi),
                                      periodic=True, control_samples=1,
                                      f_sup_bound=1.0),
            h=0.1, output_dir=str(tmp_path / "inline"))
        named = ExperimentConfig(mode="solve", benchmark="transport-sin", h=0.1,
                                 output_dir=str(tmp_path / "named"))
        assert run_experiment(inline) == EXIT_OK
        assert run_experiment(named) == EXIT_OK
        a = (tmp_path / "inline" / "solution.csv").read_bytes()
        b = (tmp_path / "named" / "solution.csv").read_bytes()
        assert a == b

    def test_probes_outputs(self, tmp_path):
        config = ExperimentConfig(mode="probes", benchmark="eikonal-cos", h=0.1,
                                  probe_points=(2.0,),
                                  probe_h_values=(0.1, 0.05),
                                  output_dir=str(tmp_path / "out"))
        assert run_experiment(config) == EXIT_OK
        summary = read_summary(tmp_path / "out" / "summary.txt")
        assert summary["stabilized_2.0"] == "True"

    def test_blowup_maps_to_exit_3(self, tmp_path, monkeypatch):
        from hjbpi import cli

        def boom(config, benchmark, grid, params, outdir):
            raise NumericalBlowupError("synthetic blowup")

        monkeypatch.setitem(cli._MODES, "solve", (boom, *cli._MODES["solve"][1:]))
        config = ExperimentConfig(mode="solve", benchmark="zero", h=0.1,
                                  output_dir=str(tmp_path / "out"))
        assert run_experiment(config) == EXIT_BLOWUP

    def test_monotonicity_breach_maps_to_exit_4(self, tmp_path, monkeypatch):
        from hjbpi import cli

        def breach(config, benchmark, grid, params, outdir):
            raise MonotonicityError("synthetic ordering violation")

        monkeypatch.setitem(cli._MODES, "pi", (breach, *cli._MODES["pi"][1:]))
        config = ExperimentConfig(mode="pi", benchmark="zero", h=0.1,
                                  output_dir=str(tmp_path / "out"))
        assert run_experiment(config) == EXIT_INVARIANT

    @pytest.mark.parametrize("field, key", [("h", "scheme.h"), ("tau", "scheme.tau"),
                                            ("N", "scheme.N"), ("T", "scheme.T"),
                                            ("legendre_M", "legendre.M")])
    @pytest.mark.parametrize("bad", [0.0, -0.5, math.nan, math.inf])
    def test_code_built_config_gets_positivity_check(self, field, key, bad, tmp_path,
                                                     capsys):
        config = ExperimentConfig(mode="solve", benchmark="eikonal-cos",
                                  output_dir=str(tmp_path / "out"), **{field: bad})
        assert run_experiment(config) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert key in err and "must be a finite number > 0" in err
        assert not (tmp_path / "out").exists()

    def test_legendre_cfl_checked_with_the_run_viscosity(self, tmp_path, capsys):
        # the run clips the Hamiltonian and steps with N = m2/2 = 2.5 at M = 2
        (tmp_path / "exp.cfg").write_text(
            "benchmark: eikonal-cos\nscheme.h: 0.01\nscheme.tau: 0.004\nlegendre.M: 2\n")
        code = main(["legendre-pi", "--config", str(tmp_path / "exp.cfg"),
                     "--output", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        assert "N=2.5 > h/(2 tau)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["solve", "legendre-pi"])
    def test_main_validates_once_with_the_run_mode(self, mode, tmp_path, monkeypatch):
        # the file says solve; an inline problem's callbacks are sampled too;
        # legendre-pi builds its clip once to validate and once for the run
        seen, sampled, built = [], [0], [0]
        validate, sample = cli.validate_config, cli.validate_f_bound
        modify = legendre_module.modify_hamiltonian

        def counted_validate(config):
            seen.append(config.mode)
            return validate(config)

        def counted_sample(*args):
            sampled[0] += 1
            return sample(*args)

        def counted_modify(*args):
            built[0] += 1
            return modify(*args)

        monkeypatch.setattr(cli, "validate_config", counted_validate)
        monkeypatch.setattr(cli, "validate_f_bound", counted_sample)
        monkeypatch.setattr(legendre_module, "modify_hamiltonian", counted_modify)
        (tmp_path / "exp.cfg").write_text(
            "mode: solve\nscheme.h: 0.1\nproblem.terminal_cost: cos\n")
        code = main([mode, "--config", str(tmp_path / "exp.cfg"),
                     "--output", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert seen == [mode]
        assert sampled[0] == 1
        assert built[0] == (2 if mode == "legendre-pi" else 0)

    def test_cfl_checked_on_the_snapped_grid(self, tmp_path):
        # 2 pi / 0.1 rounds to 63 cells of 0.0997..., too small for tau = 0.05
        snapped = ExperimentConfig(mode="solve", benchmark="eikonal-cos", h=0.1, tau=0.05,
                                   output_dir=str(tmp_path / "snapped"))
        assert run_experiment(snapped) == EXIT_VALIDATION
        assert not (tmp_path / "snapped").exists()
        # a clamped box keeps h = 0.1 exactly, so the same step is the equality case
        exact = ExperimentConfig(mode="solve", benchmark="quadratic-lq", h=0.1, tau=0.05,
                                 output_dir=str(tmp_path / "exact"))
        assert run_experiment(exact) == EXIT_OK


class TestCommandLine:
    def test_solve_subcommand(self, tmp_path):
        (tmp_path / "exp.cfg").write_text(MINIMAL)
        result = run_cli(["solve", "--config", "exp.cfg", "--output", "artifacts"],
                         cwd=tmp_path)
        assert result.returncode == EXIT_OK, result.stderr
        assert (tmp_path / "artifacts" / "solution.csv").exists()

    def test_subcommand_overrides_config_mode(self, tmp_path):
        (tmp_path / "exp.cfg").write_text(MINIMAL)  # says solve
        result = run_cli(["pi", "--config", "exp.cfg", "--output", "artifacts"],
                         cwd=tmp_path)
        assert result.returncode == EXIT_OK, result.stderr
        summary = read_summary(tmp_path / "artifacts" / "summary.txt")
        assert summary["mode"] == "pi"

    def test_cfl_violation_exits_2(self, tmp_path):
        (tmp_path / "exp.cfg").write_text(MINIMAL + "scheme.tau: 0.2\n")
        result = run_cli(["solve", "--config", "exp.cfg"], cwd=tmp_path)
        assert result.returncode == EXIT_VALIDATION
        assert "h/(2 tau)" in result.stderr or "N <=" in result.stderr

    @pytest.mark.parametrize("problem, message", [
        # finite controls +-1e200 make c = |a|^2/2 overflow to inf at control 0
        ("problem.control_min: -1e200\nproblem.control_max: 1e200\n"
         "problem.control_samples: 3\nproblem.dynamics: zero\n"
         "problem.running_cost: half-square\n",
         "error: running_cost returned a non-finite value for control 0 at t=0"),
        # f = a reaches |a| = 2 against a declared bound of 1
        ("problem.control_min: -2\nproblem.control_max: 2\nproblem.f_sup_bound: 1\n"
         "scheme.N: 1\n",
         "error: declared f_sup_bound=1.0 but sampled |f| reaches 2.0"),
    ], ids=["non-finite-cost", "f-bound"])
    def test_bad_inline_callback_exits_2_before_any_output(self, problem, message, tmp_path):
        (tmp_path / "exp.cfg").write_text(problem + "scheme.h: 0.1\n")
        result = run_cli(["solve", "--config", "exp.cfg"], cwd=tmp_path)
        assert result.returncode == EXIT_VALIDATION
        # the one error line: no numpy overflow warning before it
        assert result.stderr.splitlines() == [message]
        assert not (tmp_path / "out").exists()

    def test_solve_leaves_numpy_ma_unloaded(self, tmp_path):
        # np.unique imports numpy.ma, which grows the heap of every run
        (tmp_path / "exp.cfg").write_text("scheme.h: 0.5\nproblem.terminal_cost: cos\n")
        result = run_python(["-c", "import sys; from hjbpi.cli import main; "
                             "code = main(['solve', '--config', 'exp.cfg']); "
                             "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma'])); "
                             "sys.exit(code)"], cwd=tmp_path)
        assert result.returncode == EXIT_OK, result.stderr
        assert result.stdout == "[]\n"

    def test_missing_config_exits_2(self, tmp_path):
        result = run_cli(["solve", "--config", "nope.cfg"], cwd=tmp_path)
        assert result.returncode == EXIT_VALIDATION
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot read config: "), lines

    def test_internal_error_while_parsing_is_one_line(self, tmp_path, monkeypatch, capsys):
        def broken(config):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli, "validate_config", broken)
        (tmp_path / "exp.cfg").write_text(MINIMAL)
        code = main(["solve", "--config", str(tmp_path / "exp.cfg"),
                     "--output", str(tmp_path / "out")])
        assert code == EXIT_INTERNAL
        assert capsys.readouterr().err == "internal error: synthetic failure\n"
        assert not (tmp_path / "out").exists()

    def test_identical_runs_are_bitwise_identical(self, tmp_path):
        (tmp_path / "exp.cfg").write_text(MINIMAL)
        for out in ("a", "b"):
            result = run_cli(["solve", "--config", "exp.cfg", "--output", out], cwd=tmp_path)
            assert result.returncode == EXIT_OK, result.stderr
        names = [n for n in os.listdir(tmp_path / "a") if n != "config.txt"]
        assert "solution.csv" in names
        for name in names:
            with open(tmp_path / "a" / name, "rb") as fa, \
                    open(tmp_path / "b" / name, "rb") as fb:
                assert fa.read() == fb.read(), name


def reference_rate_summary(errors, burn_in=2):
    """The summary as first written: the fit's ValueError marked a short run."""
    try:
        fit = fit_geometric_rate(errors, burn_in)
    except ValueError:
        fit = None
    if fit is not None and math.isfinite(fit.rho):
        if fit.rho > 0.99:
            return fit.rho, fit.r_squared, "stalled"
        return fit.rho, fit.r_squared, "floored" if fit.floored else "least-squares"
    if len(errors) and min(errors) <= 1e2 * np.finfo(float).eps * max(max(errors), 1.0):
        return 0.0, math.nan, "finite-termination"
    return math.nan, math.nan, "unavailable"


@pytest.mark.parametrize("errors", [
    [], [0.3], [0.2, 0.03, 0.0, 0.0, 0.0], [0.2, 0.1, 0.05, 0.02, 0.01],
    [0.5, 0.4, 0.2, 0.1, 0.05, 0.025], [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
    [0.5, 0.3, 0.1, 0.01, 0.0, 0.0], [0.5, 0.3, 0.1, 0.01, 0.001, 0.0],
])
def test_rate_summary_fits_only_long_enough_runs(errors, monkeypatch):
    lengths = []

    def spy(errors, burn_in):
        lengths.append(len(errors) - burn_in)
        return fit_geometric_rate(errors, burn_in)

    monkeypatch.setattr(cli, "fit_geometric_rate", spy)
    # repr: the same floats and notes, NaN included
    assert repr(cli._rate_summary(errors)) == repr(reference_rate_summary(errors))
    assert all(n >= 4 for n in lengths)
