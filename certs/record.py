"""Rewrite expected.json with the certificates this checkout issues.

    python3 certs/record.py

Run it from the repository root, and only for a deliberate change of the
certificate schema; the change says so in CHANGES.md.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import json  # noqa: E402

import corpus  # noqa: E402


def main() -> None:
    records = {name: corpus.record(issue()) for name, issue in corpus.certificates().items()}
    lines = [f"{json.dumps(name)}: {json.dumps(r, sort_keys=False)}" for name, r in records.items()]
    corpus.EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(records)} certificates in {corpus.EXPECTED}")


if __name__ == "__main__":
    main()
