"""Run the ``repro-experiment`` CLI with layer spans recorded.

    PERFBENCH_TRACE_DIR=DIR PYTHONPATH=src python3 perfbench/traced_cli.py ARGS...

Same arguments and exit code as ``repro-experiment ARGS...``.  The import
of ``repro.cli`` and of the subcommand's module is itself recorded as the
``cli.import`` span, with the number of loaded modules as its attribute.
"""

import sys

import tracer

_SUBCOMMAND_MODULES = {
    "scenario": "repro.scenarios.cli",
    "report": "repro.reports.cli",
}


def main() -> int:
    argv = sys.argv[1:]
    tracer.install()
    with tracer.span("cli.import") as sp:
        import repro.cli

        sub = _SUBCOMMAND_MODULES.get(argv[0] if argv else "")
        if sub is not None:
            __import__(sub)
        sp.attrs = {"modules": len(sys.modules)}
    return repro.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
