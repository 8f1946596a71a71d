"""Tests for the command-line interface."""

import pytest

from repro.cli import FIGURE_ALIASES, build_parser, main
from repro.experiments import EXPERIMENTS, ExperimentResult

FIGURES = {*EXPERIMENTS, *FIGURE_ALIASES}


def _without_run_lines(text: str) -> str:
    """CLI output minus the lines carrying run ids and wall times."""
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith(("[run ", "[fig"))).rstrip()


class TestParser:
    def test_all_experiments_are_choices(self):
        parser = build_parser()
        for name in FIGURES:
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_all_keyword(self):
        args = build_parser().parse_args(["all", "--seed", "3"])
        assert args.experiment == "all"
        assert args.seed == 3

    def test_full_flag(self):
        assert build_parser().parse_args(["fig4", "--full"]).full
        assert not build_parser().parse_args(["fig4"]).full

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_settable_values(self):
        dests = {action.dest for action in build_parser()._actions}
        assert dests - {"help"} == {"experiment", "full", "seed", "as_json"}


class TestListCommand:
    def test_lists_every_experiment_with_description(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in FIGURES:
            assert name in out
        assert "Eq. 2" in out  # a description made it through
        assert "scenario run fig4_single_delay" in out
        assert "report run fig7_speed" in out

    def test_json_output(self, capsys):
        import json

        assert main(["list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["id"] for r in rows} == FIGURES
        assert all(r["description"] for r in rows)


class TestMain:
    def test_runs_single_experiment(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "ranks/s" in out

    def test_seed_propagates(self, monkeypatch, capsys):
        import repro.experiments as experiments

        seen = {}

        def driver(fast=True, seed=0):
            seen.update(fast=fast, seed=seed)
            return ExperimentResult(name="eq2", title="recorded")

        monkeypatch.setitem(experiments.EXPERIMENTS, "eq2", driver)
        assert main(["eq2", "--seed", "42", "--full"]) == 0
        assert seen == {"fast": False, "seed": 42}
        assert "completed" in capsys.readouterr().out


class TestFigureAliases:
    @pytest.mark.parametrize("figure,argv", [
        ("fig4", ["scenario", "run", "fig4_single_delay"]),
        ("fig7", ["report", "run", "fig7_speed"]),
    ])
    def test_alias_prints_the_bundled_run(self, figure, argv, capsys):
        assert FIGURE_ALIASES[figure] == (argv[0], argv[2])
        assert main(argv) == 0
        direct = capsys.readouterr().out
        assert main([figure]) == 0
        aliased = capsys.readouterr().out
        assert f"[{figure} completed in" in aliased
        assert _without_run_lines(aliased) == _without_run_lines(direct)

    def test_runtime_flags_are_not_figure_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ext_campaign", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err


class TestMainFailureHandling:
    @pytest.fixture
    def broken_fig9(self, monkeypatch):
        import repro.experiments as experiments

        def boom(fast=True, seed=0):
            raise RuntimeError("synthetic driver failure")

        monkeypatch.setitem(experiments.EXPERIMENTS, "fig9", boom)

    def test_single_failure_exits_nonzero(self, broken_fig9, capsys):
        assert main(["fig9"]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "synthetic driver failure" in out

    def test_failure_is_one_line_without_traceback(self, broken_fig9,
                                                   capsys):
        assert main(["fig9"]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "Traceback" not in captured.out
        assert "[FAILED fig9: RuntimeError: synthetic driver failure]" \
            in captured.out

    def test_failing_alias_is_reported(self, monkeypatch, capsys):
        monkeypatch.setitem(FIGURE_ALIASES, "fig4",
                            ("scenario", "no_such_scenario"))
        assert main(["fig4"]) == 1
        captured = capsys.readouterr()
        assert "scenario error" in captured.err
        assert "Traceback" not in captured.err
        assert "FAILED fig4" in captured.out

    def test_all_continues_past_failure_and_reports(self, broken_fig9,
                                                    monkeypatch, capsys):
        import repro.experiments as experiments

        # Shrink "all" to a failing and a passing driver (plus the spec
        # aliases, which "all" always runs): exercising every driver here
        # would just duplicate the driver tests.
        monkeypatch.setattr(
            experiments, "EXPERIMENTS",
            {"fig9": experiments.EXPERIMENTS["fig9"],
             "eq2": experiments.EXPERIMENTS["eq2"]},
        )

        assert main(["all"]) == 1
        out = capsys.readouterr().out
        assert "eq2" in out and "completed" in out  # kept going
        assert "[fig4 completed" in out and "[fig7 completed" in out
        assert "summary: 3/4 experiments succeeded" in out
        assert "FAILED fig9" in out
