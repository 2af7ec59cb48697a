"""Run one lpgreeks CLI command with the benchmark's span wrappers installed.

    PYTHONPATH=src python3 -X importtime benchmarks/traced_cli.py TRACE.json <command> [options]

behaves like `python -m lpgreeks.cli <command> [options]` and, on exit, writes
the span aggregates of the command to TRACE.json.
"""

import sys

import spans

import lpgreeks.cli


def main() -> int:
    trace_path, args = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    recorder.install()
    code = 0
    try:
        lpgreeks.cli.cli.main(args=args, prog_name="lpgreeks")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        recorder.uninstall()
        recorder.write(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
