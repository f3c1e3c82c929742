"""Run one cfgtune CLI stage with layer tracing installed.

    python3 perfbench/cli_runner.py TRACE_OUT STAGE [STAGE ARGS...]

Installs the wrappers from tracing.py, calls ``cfgtune.cli.main`` with the
stage arguments, writes the aggregated spans to TRACE_OUT and exits with the
stage's exit code. Needs PYTHONPATH pointing at the checkout's src/.
"""

import sys
import time


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import cfgtune.cli

    import_s = time.perf_counter() - start
    from tracing import Tracer, installed

    tracer = Tracer()
    tracer.record("cfgtune.import", import_s)
    with installed(tracer):
        code = cfgtune.cli.main(argv)
    tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
