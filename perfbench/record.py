"""Record the outputs that `run.py` checks against, into `expected.json`.

    python3 perfbench/record.py

Runs one session: `verify all --json --seed 0`, then every word of the
pool. Stores the check ids of the verify document (all must pass) and,
per pool block and position, the first 16 hex digits of the SHA-256 of
each word's `reduce --json` output. Run it only at a commit whose outputs
are the reference.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import run
import words


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    plan = run.session_plan(0, "record", [["cli", run.VERIFY_ALL + ["0"]],
                                          ["words", None, words.POOL_BLOCKS * words.BLOCK_SIZE]])
    result = run.spawn(plan, "record", kill_at=time.monotonic() + 3600)
    calls = run.records(result, "cli") + run.records(result, "word")
    bad = [r for r in calls if r["rc"] != 0]
    if result["exit"] != 0 or bad or len(calls) != 1 + words.POOL_BLOCKS * words.BLOCK_SIZE:
        print(f"not recorded: session exit {result['exit']}, failed calls {bad[:3]}",
              file=sys.stderr)
        return 1
    checks = json.loads(calls[0]["out"])["checks"]
    if any(c["status"] != "pass" for c in checks):
        print("not recorded: a verify check fails", file=sys.stderr)
        return 1
    hashes = [[None] * words.BLOCK_SIZE for _ in range(words.POOL_BLOCKS)]
    for r in calls[1:]:
        hashes[r["block"]][r["position"]] = hashlib.sha256(r["out"].encode()).hexdigest()[:16]
    with open(os.path.join(run.HERE, "expected.json"), "w") as fh:
        fh.write(json.dumps({"verify_check_ids": [c["id"] for c in checks]})[:-1])
        fh.write(',\n"word_sha256_16": [\n')
        fh.write(",\n".join(json.dumps(row) for row in hashes) + "\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
