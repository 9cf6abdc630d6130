"""The served side of the serve workloads: one ``repro.serve`` process.

Started by ``run.py`` with a JSON config naming the hot point set.  It
seeds a fresh store with those points through
:func:`repro.scenario.sweep_scenario`, boots a
:class:`repro.serve.ScenarioService` behind
:class:`repro.serve.BackgroundServer` and prints ``ready <port>``.

It then reads one command per line from stdin and answers each with
one line on stdout:

``trace on`` / ``trace off``
    Install or remove the layer wrappers (answer ``ok``).
``calibrate``
    Time the reference loop of ``calib.py`` here (answer: seconds).
``report``
    The ledger totals and the wall time traced so far, as JSON.
``stop`` (or end of input)
    Stop the server; answer ``{"peak_rss_mb": ...}`` and exit.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.scenario import ScenarioSpec, sweep_scenario  # noqa: E402
from repro.serve import BackgroundServer, ScenarioService  # noqa: E402
from repro.store import ResultStore  # noqa: E402

import calib  # noqa: E402
import layers  # noqa: E402
from ledger import Tracer  # noqa: E402

# One worker drains the queue: simulations hold the interpreter lock, so
# a second worker thread would add no throughput on the two cores the
# benchmark targets, and one worker keeps the queue strictly FIFO.
WORKERS = 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", required=True)
    parser.add_argument("--config", required=True)
    args = parser.parse_args(argv)
    config = json.loads(Path(args.config).read_text(encoding="utf-8"))

    store = ResultStore(args.store)
    hot = config["hot"]
    sweep_scenario(
        ScenarioSpec.from_dict(hot["spec"]),
        "algorithm.gamma",
        hot["gammas"],
        rounds=hot["rounds"],
        trials=hot["trials"],
        store=store,
    )
    ledger = layers.new_ledger()
    tracer = Tracer(ledger, layers.targets())
    service = ScenarioService(store, workers=WORKERS)
    with BackgroundServer(service) as server:
        print(f"ready {server.port}", flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "trace on":
                tracer.install()
                print("ok", flush=True)
            elif command == "trace off":
                tracer.uninstall()
                print("ok", flush=True)
            elif command == "calibrate":
                print(calib.reference(), flush=True)
            elif command == "report":
                report = {"totals": ledger.totals(), "traced_s": tracer.traced_s}
                print(json.dumps(report), flush=True)
            elif command == "stop":
                break
        tracer.uninstall()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"peak_rss_mb": rss}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
