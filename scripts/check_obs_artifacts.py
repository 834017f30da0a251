"""Read back what the observability smoke wrote; fail on an empty record.

    PYTHONPATH=src python scripts/check_obs_artifacts.py TRACE.jsonl METRICS.prom

``TRACE.jsonl`` is a ``repro trace --format jsonl -- serve-bench ...``
export and ``METRICS.prom`` a ``repro metrics -- walk ...`` snapshot.
Both are parsed with the exporters' own readers
(``repro.obs.exporters.replay_jsonl`` and ``parse_prometheus``); the
check exits 1 unless the trace holds a ``serve.step`` span and the
snapshot a non-zero ``repro_engine_hops_total``.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.obs.exporters import parse_prometheus, replay_jsonl


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trace, metrics = argv
    problems = []
    steps = replay_jsonl(trace)["spans"].get("serve.step", {}).get("count", 0)
    if not steps:
        problems.append(f"{trace}: no serve.step span")
    samples = parse_prometheus(Path(metrics).read_text(encoding="utf-8"))
    hops = [value for (name, _), value in samples.items() if name == "repro_engine_hops_total"]
    if not hops or sum(hops) <= 0:
        problems.append(f"{metrics}: repro_engine_hops_total is "
                        + ("missing" if not hops else "0"))
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if not problems:
        print(f"{trace}: {steps} serve.step spans; "
              f"{metrics}: {int(sum(hops))} engine hops")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
