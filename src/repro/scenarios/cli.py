"""``repro-experiment scenario`` subcommands.

::

    repro-experiment scenario list [--json]
    repro-experiment scenario validate [NAME_OR_FILE ...] (default: all bundled)
    repro-experiment scenario run NAME_OR_FILE [--seed N] [--engine E] ...
    repro-experiment scenario sweep NAME_OR_FILE [--jobs N] [--cache-dir DIR] ...

``NAME_OR_FILE`` is a bundled scenario name (see ``scenario list``) or a
path to a ``.toml``/``.json`` file anywhere on disk.  ``run`` executes the
scenario's base point — or, when the scenario declares a ``sweep`` block,
the whole grid through the campaign runtime.  ``sweep`` always goes
through the runtime (sharded over ``--jobs`` workers and cached in
``--cache-dir``), even for single-point scenarios.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cli import add_run_flags, open_store, retry_policy, run_observed
from repro.scenarios.compiler import compile_scenario
from repro.scenarios.errors import ScenarioError
from repro.scenarios.registry import (
    bundled_scenario_names,
    load_bundled_scenario,
    resolve_scenario,
)
from repro.scenarios.runner import run_scenario
from repro.scenarios.sweep import run_scenario_sweep

__all__ = ["scenario_main", "build_scenario_parser"]


def build_scenario_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment scenario",
        description="Declarative delay/noise scenarios: list, validate, run, sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list bundled scenarios")
    p_list.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable output")

    p_val = sub.add_parser("validate", help="parse + compile scenarios")
    p_val.add_argument("scenarios", nargs="*", metavar="NAME_OR_FILE",
                       help="bundled names or file paths (default: all bundled)")

    for name, helptext in (("run", "execute a scenario and print its report"),
                           ("sweep", "run the scenario grid via the campaign runtime")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("scenario", metavar="NAME_OR_FILE")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario's seed")
        p.add_argument("--engine", choices=["auto", "lockstep", "dag"],
                       default="auto", help="engine selection (default: auto)")
        add_run_flags(p)
    return parser


def _cmd_list(args) -> int:
    rows = []
    for name in bundled_scenario_names():
        spec = load_bundled_scenario(name)
        # Report the engine the compiler actually resolves to under the
        # default dispatch, not a separate eligibility heuristic.
        rows.append({
            "name": name,
            "description": spec.description,
            "engine": compile_scenario(spec).engine,
            "sweep_size": spec.sweep.size if spec.sweep is not None else 1,
        })
    if args.as_json:
        print(json.dumps(rows, indent=2))
        return 0
    width = max((len(r["name"]) for r in rows), default=4)
    for r in rows:
        grid = f" [sweep x{r['sweep_size']}]" if r["sweep_size"] > 1 else ""
        print(f"{r['name']:<{width}}  ({r['engine']}){grid}  {r['description']}")
    return 0


def _cmd_validate(args) -> int:
    targets = args.scenarios or bundled_scenario_names()
    failures = 0
    for target in targets:
        try:
            spec = resolve_scenario(target)
            compile_scenario(spec)
            if spec.sweep is not None:
                from repro.scenarios.sweep import scenario_sweep_spec

                scenario_sweep_spec(spec)
        except ScenarioError as exc:
            failures += 1
            print(f"FAIL  {target}: {exc}")
        else:
            print(f"ok    {target} ({spec.name})")
    if failures:
        print(f"[{failures}/{len(targets)} scenario(s) failed validation]")
        return 1
    print(f"[{len(targets)} scenario(s) valid]")
    return 0


def _observed_sweep(args, spec) -> int:
    """One observed sweep: recorder + progress + ledger + exit summary."""
    def spec_key():
        from repro.scenarios.sweep import _sweep_spec_key, scenario_sweep_spec

        sweep = scenario_sweep_spec(spec, base_seed=args.seed,
                                    engine=args.engine)
        return _sweep_spec_key(sweep.tasks())

    def sweep():
        return run_scenario_sweep(
            spec, base_seed=args.seed, engine=args.engine,
            jobs=args.jobs, store=open_store(args.cache_dir),
            retry=retry_policy(args), stall_action=args.stall_action,
        )

    def show(result, tracker):
        tracker.set_retry_wasted(result.campaign.retry_wasted_s)
        print(result.render())

    return run_observed(args, "scenario.sweep", spec.name, sweep, show,
                        label="scenario", spec_key=spec_key)


def _cmd_run(args) -> int:
    spec = resolve_scenario(args.scenario)
    if spec.sweep is not None:
        return _observed_sweep(args, spec)
    if args.resume:
        print("scenario error: --resume only applies to sweeps (this "
              "scenario has no sweep block)", file=sys.stderr)
        return 2
    return run_observed(
        args, "scenario.run", spec.name,
        lambda: run_scenario(spec, seed=args.seed, engine=args.engine),
        lambda run, tracker: print(run.render()), label="scenario")


def _cmd_sweep(args) -> int:
    return _observed_sweep(args, resolve_scenario(args.scenario))


def scenario_main(argv: "list[str] | None" = None) -> int:
    args = build_scenario_parser().parse_args(argv)
    handler = {"list": _cmd_list, "validate": _cmd_validate,
               "run": _cmd_run, "sweep": _cmd_sweep}[args.command]
    try:
        return handler(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(scenario_main())
