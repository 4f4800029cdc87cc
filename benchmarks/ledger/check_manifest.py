"""Fail loudly unless ``BENCHMARK.json`` is one the driver will accept.

Run by the entry point before any workload (and runnable on its own:
``python3 benchmarks/ledger/check_manifest.py``).  It checks the
driver's published limits, that the manifest says exactly what
``layers.py`` says, that every per-layer metric names a declared
end-to-end metric and workload it should move, and — given a run's
emitted metric names — that a run emits exactly what is declared.
"""

from __future__ import annotations

import json
import os
import re
import sys
from typing import Any, Dict, Iterable, List

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
_PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
MAX_BYTES = 64 * 1024


class ManifestError(Exception):
    pass


def _require(condition: bool, message: str, problems: List[str]) -> None:
    if not condition:
        problems.append(message)


def _outside_repo(text: str) -> bool:
    return text.startswith("/") or ".." in text.split("/")


def problems_in(manifest: Any, root: str, raw_size: int) -> List[str]:
    """Every rule the manifest breaks (empty list = acceptable)."""
    from . import layers

    problems: List[str] = []
    _require(raw_size <= MAX_BYTES, "file is larger than 64 KiB", problems)
    if not isinstance(manifest, dict) or set(manifest) != _KEYS:
        return problems + ["top-level keys must be exactly %s" % sorted(_KEYS)]

    paths = manifest["paths"]
    _require(isinstance(paths, list) and 1 <= len(paths) <= 16, "paths: 1 to 16 entries", problems)
    for path in paths if isinstance(paths, list) else ():
        ok = isinstance(path, str) and _PATH.match(path) and not _outside_repo(path)
        _require(bool(ok), "paths: %r is not a plain relative path" % (path,), problems)
        if ok:
            _require(os.path.isdir(os.path.join(root, path)), "paths: %r does not exist" % path, problems)

    command = manifest["command"]
    _require(
        isinstance(command, list) and 1 <= len(command) <= 32
        and all(isinstance(part, str) and len(part) <= 200 for part in command),
        "command: a list of at most 32 strings of at most 200 characters",
        problems,
    )
    for part in command if isinstance(command, list) else ():
        if not isinstance(part, str):
            continue
        _require(not _outside_repo(part), "command: %r leads out of the repo" % part, problems)
        if os.path.exists(os.path.join(root, part)):
            inside = any(part == p or part.startswith(p.rstrip("/") + "/") for p in paths)
            _require(inside, "command: %r names a repo file outside paths" % part, problems)

    seconds = manifest["run_seconds"]
    _require(
        isinstance(seconds, int) and not isinstance(seconds, bool) and 1 <= seconds <= 60,
        "run_seconds: a whole number from 1 to 60",
        problems,
    )

    names: List[str] = []

    def entries(key: str, low: int, high: int, keys: set) -> List[Dict[str, Any]]:
        value = manifest[key]
        if not isinstance(value, list) or not low <= len(value) <= high:
            problems.append("%s: %d to %d entries" % (key, low, high))
            return []
        good = []
        for entry in value:
            if not isinstance(entry, dict) or set(entry) != keys:
                problems.append("%s: every entry has exactly the keys %s" % (key, sorted(keys)))
                continue
            _require(
                isinstance(entry["name"], str) and bool(_NAME.match(entry["name"])),
                "%s: bad name %r" % (key, entry["name"]),
                problems,
            )
            names.append(entry["name"])
            good.append(entry)
        return good

    workloads = entries("workloads", 2, 8, {"name", "why"})
    for entry in workloads:
        why = entry["why"]
        _require(
            isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why,
            "workloads: %s: why must be one line of at most 200 characters" % entry["name"],
            problems,
        )
    end_to_end = entries("end_to_end", 1, 16, {"name", "unit", "better", "bound"})
    per_layer = entries("per_layer", 1, 128, {"name", "unit", "better"})
    for entry in end_to_end + per_layer:
        _require(
            isinstance(entry["unit"], str) and bool(_UNIT.match(entry["unit"])),
            "%s: bad unit %r" % (entry["name"], entry["unit"]),
            problems,
        )
        _require(entry["better"] in ("lower", "higher"), "%s: better must be lower or higher" % entry["name"], problems)
    for entry in end_to_end:
        bound = entry["bound"]
        _require(
            isinstance(bound, (int, float)) and not isinstance(bound, bool) and 0 < bound <= 0.25,
            "%s: bound must be in (0, 0.25]" % entry["name"],
            problems,
        )
    setup = [e for e in end_to_end if e["name"] == "setup_s"]
    _require(
        len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
        "end_to_end: setup_s (unit s, better lower) must be declared",
        problems,
    )
    duplicates = sorted({name for name in names if names.count(name) > 1})
    _require(not duplicates, "names used more than once: %s" % duplicates, problems)

    # The manifest is generated from layers.py; they may not drift apart.
    _require(manifest == layers.manifest(), "BENCHMARK.json differs from layers.manifest()", problems)
    declared_e2e = {e[0] for e in layers.END_TO_END}
    for metric in layers.PER_LAYER:
        _require(bool(metric.moves) and set(metric.moves) <= declared_e2e,
                 "%s: moves %r is not a declared end-to-end metric" % (metric.name, metric.moves), problems)
        _require(bool(metric.on) and set(metric.on) <= set(layers.WORKLOADS),
                 "%s: on %r is not a declared workload" % (metric.name, metric.on), problems)
    per_layer_names = {m.name for m in layers.PER_LAYER}
    _require(set(layers.SELF_TIME) <= per_layer_names, "SELF_TIME names an undeclared metric", problems)
    return problems


def load(root: str) -> Dict[str, Any]:
    """The checked manifest; raises :class:`ManifestError` listing every problem."""
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
        manifest = json.loads(raw)
    except (OSError, ValueError) as exc:
        raise ManifestError("cannot read %s: %s" % (path, exc)) from exc
    problems = problems_in(manifest, root, len(raw))
    if problems:
        raise ManifestError("BENCHMARK.json is invalid:\n  - " + "\n  - ".join(problems))
    return manifest


def check_emitted(manifest: Dict[str, Any], trace: bool, emitted: Iterable[str]) -> None:
    """A run emits exactly the declared names for its ``--trace`` mode."""
    declared = {entry["name"] for entry in manifest["per_layer" if trace else "end_to_end"]}
    emitted = set(emitted)
    if emitted != declared:
        raise ManifestError(
            "emitted metric names differ from the manifest: missing %s, undeclared %s"
            % (sorted(declared - emitted), sorted(emitted - declared))
        )


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    try:
        manifest = load(root)
    except ManifestError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(
        "BENCHMARK.json ok: %d workloads, %d end-to-end, %d per-layer metrics"
        % (len(manifest["workloads"]), len(manifest["end_to_end"]), len(manifest["per_layer"]))
    )
    return 0


if __name__ == "__main__":
    # Run as a script, this file's directory — not its package's parent —
    # is on sys.path; put the parent there so ``ledger`` imports.
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from ledger import check_manifest as _self

    sys.exit(_self.main())
