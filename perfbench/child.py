"""Run one steenrod command in this fresh interpreter and report on it.

    python3 perfbench/child.py REPORT TRACE [CLI ARGS...]

Runs ``steenrod.cli.main`` on the CLI arguments, exactly as the installed
``steenrod`` script does, and exits with its code.  Writes JSON to REPORT:
``import_s`` (time to import ``steenrod.cli``), ``ready`` (the
``time.monotonic`` reading once the parser is built; ``run.py`` subtracts its
spawn time from it), the readings of ``probe.py``'s speed probe, which runs
beside the command (``probe_s``, their trimmed mean; ``probe_n``;
``probe_error``) and, with TRACE = 1, the tracer's spans and counters.
With no CLI arguments it only imports, builds the parser, reports the
package's ``EXPECTED_FINDINGS`` and exits 0.
"""

import json
import sys
import time


def main() -> int:
    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    start = time.perf_counter()
    from steenrod import cli

    report = {"import_s": time.perf_counter() - start}
    build = cli.build_parser

    def build_parser():
        parser = build()
        report["ready"] = time.monotonic()
        return parser

    cli.build_parser = build_parser
    code = 0
    try:
        if not argv:
            build_parser()
            report["expected_findings"] = sorted(cli.verify.EXPECTED_FINDINGS)
        else:
            from probe import Probe, trimmed_mean

            tracer = None
            if trace:
                from tracer import Tracer

                tracer = Tracer()
                tracer.install()
            probe = Probe()
            probe.start()
            try:
                code = cli.main(argv)
            finally:
                probe.stop()
                if tracer is not None:
                    report["trace"] = tracer.finish()
                report["probe_s"] = trimmed_mean(probe.readings)
                report["probe_n"] = len(probe.readings)
                report["probe_error"] = probe.error
    finally:
        sys.stdout.flush()
        with open(report_path, "w") as f:
            json.dump(report, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
