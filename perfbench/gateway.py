"""``repro`` with per-layer tracing, for the traced ``served`` run.

Usage: ``python perfbench/gateway.py <repro arguments>``, e.g.
``-q serve --mode sim --port 0``.  Tracing runs from SIGUSR1 to SIGUSR2;
when the command exits, the layer report for that interval is printed
as the last line of standard output.
"""

import json
import os
import sys

import layers


def main() -> None:
    import repro

    report = layers.traced_main(sys.argv[1:], os.path.dirname(repro.__file__))
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
