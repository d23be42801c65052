"""Run one gravlab command in this interpreter with layer spans recorded.

    python3 bench/trace_child.py SPANS.json gravlab-arguments...

The first span is the import of ``gravlab.cli`` in this fresh
interpreter; the second is ``cli.main``, whose children are the calls
into the other layers. When the command ends, SPANS.json gets the spans
and the measured cost of one wrapped call (``span_cost_s``), and the
exit code is the command's.
"""

import time

_t0 = time.perf_counter()
import gravlab.cli  # noqa: E402  (timed: this is the import users pay)

_t1 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer, span_cost  # noqa: E402


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.add("import.gravlab_cli", _t0, _t1)
    tracer.install()
    with tracer.span("cli.main"):
        code = gravlab.cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"span_cost_s": span_cost(), "spans": tracer.records(argv[0])}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
