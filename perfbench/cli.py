"""``python -m repro.experiments`` with the benchmark's recorder installed.

Run as ``python3 -m perfbench.cli ARGS...`` with ``PYTHONPATH`` holding
``src`` and the repository root.  When ``PERFBENCH_RECORD`` names a
directory, every op of this process and of the pool workers it forks is
recorded there (``PERFBENCH_TRACE=1`` adds spans and hot counters);
otherwise this is exactly the experiments CLI.
"""

from __future__ import annotations

import json
import os
import sys


def main() -> int:
    record_dir = os.environ.get("PERFBENCH_RECORD")
    rec = None
    if record_dir:
        from perfbench.probe import Recorder
        rec = Recorder(flush_dir=record_dir)
        rec.install_ops()
        if os.environ.get("PERFBENCH_TRACE") == "1":
            rec.install_tracing()
    from repro.experiments.__main__ import main as experiments_main
    code = experiments_main(sys.argv[1:])
    if rec is not None:
        path = os.path.join(record_dir, f"main-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rec.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
