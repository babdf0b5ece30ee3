"""Record the preset data-section references the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record_presets.py

Writes ``perfbench/preset_refs.json``: for each of the six figure presets,
plain and with ``--validate``, the SHA-256 and row count of its data section.
Re-record only when a change is meant to alter preset output.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from su2qfi.cli import FIGURE_IDS, main

from checks import REFS_PATH, data_section, fingerprint, preset_key


def record() -> dict:
    refs = {}
    out_dir = REFS_PATH.parent / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        out = os.path.join(tmp, "preset.csv")
        for fig in FIGURE_IDS:
            for validate in (False, True):
                code = main(["figure", fig, "--out", out] + (["--validate"] if validate else []))
                if code != 0:
                    sys.exit(f"figure {fig} validate={validate} exited with {code}")
                refs[preset_key(fig, validate)] = fingerprint(data_section(out))
    return refs


if __name__ == "__main__":
    REFS_PATH.write_text(json.dumps(record(), indent=2) + "\n")
