"""Run the cateselect CLI with its layer boundaries traced.

    python3 perfbench/traced_cli.py SPANS.json select --data d.csv --preds p.csv ...

Everything after the spans file goes to ``cateselect.cli.cli`` unchanged. The
spans, the work counters and the time the package took to import are
written to SPANS.json when the call returns; the exit code is the CLI's.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from tracing import Tracer, patched


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    start = time.perf_counter()
    from cateselect import cli

    tracer = Tracer()
    tracer.counters["cli.import_s"] += time.perf_counter() - start
    with patched(tracer):
        code = cli.cli(cli_args)
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
