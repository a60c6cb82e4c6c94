"""``repro serve`` with the layer probes in place (the service's ``--trace 1``).

Usage::

    python3 perfbench/serve_child.py LEDGER.json serve-arguments...

Runs ``repro serve serve-arguments...`` unchanged, except that the probes
of ``perfbench/ledger.py`` wrap the layer entry points.  SIGUSR1 starts
recording; SIGUSR2 stops it and writes the per-layer self seconds to
``LEDGER.json``, so the benchmark can leave its warm-up out of the ledger.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.ledger import Ledger, install
    from repro.cli import main as repro_main

    out = Path(sys.argv[1])
    ledger = Ledger()
    install(ledger)

    def start(signum, frame) -> None:
        ledger.recording = True

    def stop(signum, frame) -> None:
        ledger.recording = False
        tmp = out.with_name(out.name + ".tmp")
        tmp.write_text(json.dumps(ledger.snapshot()))
        os.replace(tmp, out)

    signal.signal(signal.SIGUSR1, start)
    signal.signal(signal.SIGUSR2, stop)
    return repro_main(["serve", *sys.argv[2:]])


if __name__ == "__main__":
    sys.exit(main())
