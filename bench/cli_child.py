"""One traced CLI call in a fresh process.

Usage: python bench/cli_child.py <neartoeplitz CLI arguments>

Behaves like ``python -m neartoeplitz``: same stdout and exit code.  It also
times the import of the CLI, the ``cli.main`` call and, for 'reproduce', a
separate ``tables.reproduce`` call on the same table, and writes those spans
as one line ``BENCH_SPANS <json>`` on stderr.
"""

import json
import sys
import time

start = time.perf_counter()
from neartoeplitz import cli, tables  # noqa: E402

spans = [["import.neartoeplitz", start, time.perf_counter(), None]]
argv = sys.argv[1:]
start = time.perf_counter()
code = cli.main(argv)
spans.append(["cli.main", start, time.perf_counter(), {"subcommand": argv[0]}])
if argv[0] == "reproduce":
    start = time.perf_counter()
    tables.reproduce(argv[1])
    spans.append(["tables.reproduce", start, time.perf_counter(), {"table": argv[1]}])
sys.stdout.flush()
sys.stderr.write("BENCH_SPANS " + json.dumps(spans) + "\n")
sys.exit(code)
