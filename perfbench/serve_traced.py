"""Serve one real host with the benchmark's layer probes installed.

The traced counterpart of ``python -m repro serve``: installs the
probes of :mod:`layers`, runs :func:`repro.realnet.serve.serve_host`
until SIGTERM or the budget, then writes the probe totals and spans::

    python3 perfbench/serve_traced.py --host a --registry R --out F \
        [--budget-s S]

``F`` gets the totals (JSON); ``F.spans`` the spans.
"""

from __future__ import annotations

import argparse
import json
import sys

from layers import LayerTracer, install_real_probes


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--host", required=True)
    parser.add_argument("--registry", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--budget-s", type=float, default=None)
    options = parser.parse_args()

    from repro.realnet.serve import serve_host

    tracer = LayerTracer()
    state = install_real_probes(tracer, client=False)
    status = serve_host(options.host, options.registry,
                        budget_s=options.budget_s, ready_line=False)
    tracer.uninstall()
    with open(options.out, "w") as handle:
        json.dump({"tracer": tracer.dump(), "probes": state.dump()},
                  handle)
    with open(options.out + ".spans", "w") as handle:
        handle.write(tracer.span_lines("serve-" + options.host))
    return status


if __name__ == "__main__":
    sys.exit(main())
