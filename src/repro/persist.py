"""JSON persistence for benchmark artifacts.

Campaigns are expensive relative to analyses: a benchmark operator runs the
tools once and then re-analyzes (new metrics, new scenarios, new statistics)
many times.  This module round-trips the three artifacts worth archiving —
workloads, detection reports and scored campaigns — through plain JSON with
an explicit schema tag, so archives fail loudly rather than misparse when
the format evolves.

Durability: every write serializes in memory, writes a temp file private
to the writing thread next to the target, and atomically
:func:`os.replace`\\ s it into place — an interrupted write can never leave
truncated JSON at the final path, and concurrent writers of one path never
collide.  :func:`save_json` writes indented JSON for people to read
(manifests, bench dumps).  The artifact store's disk tier wraps payloads in
a sha256-digest envelope (:func:`save_cache_entry` /
:func:`load_cache_entry`) so silently corrupted bytes are detected on load
and quarantined instead of poisoning warm runs; envelopes are written as
compact canonical JSON, encoding the payload once for both the digest and
the file.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Any

import numpy as np

from repro.bench.campaign import TAXONOMY, CampaignResult, tool_result
from repro.bench.result import ExperimentResult
from repro.bench.streaming import ShardCells, StreamingCampaignResult
from repro.errors import ArtifactCorruptError, ConfigurationError, PersistError
from repro.tools.base import Detection, DetectionReport
from repro.workload.code_model import CodeUnit, SinkSite, Statement, StatementKind
from repro.workload.generator import SiteProfile, Workload, WorkloadConfig
from repro.workload.ground_truth import GroundTruth
from repro.workload.taxonomy import VulnerabilityType

__all__ = [
    "workload_to_dict",
    "workload_from_dict",
    "report_to_dict",
    "report_from_dict",
    "campaign_to_dict",
    "campaign_from_dict",
    "experiment_result_to_dict",
    "experiment_result_from_dict",
    "shard_cells_to_dict",
    "shard_cells_from_dict",
    "streaming_totals_to_dict",
    "save_json",
    "load_json",
    "payload_digest",
    "save_cache_entry",
    "load_cache_entry",
    "CACHE_ENTRY_SCHEMA",
    "WAL_MAGIC",
    "WAL_SCHEMA",
    "SERVE_JOB_SCHEMA",
    "SERVE_RESULT_SCHEMA",
]

#: The shard write-ahead journal's file magic and schema tag, next to the
#: other persisted formats' tags (:mod:`repro.bench.engine.wal` reads and
#: writes the journal).
WAL_MAGIC = b"RWAL1\n"
WAL_SCHEMA = "repro/shard-wal@1"

#: The campaign service's persisted job records and result payloads
#: (:mod:`repro.serve`).  Like :data:`WAL_SCHEMA`, the tags live here so
#: tooling never imports service code to read them.
SERVE_JOB_SCHEMA = "repro/serve-job@1"
SERVE_RESULT_SCHEMA = "repro/serve-result@1"

_WORKLOAD_SCHEMA = "repro/workload@1"
_REPORT_SCHEMA = "repro/report@1"
_CAMPAIGN_SCHEMA = "repro/campaign@2"
_EXPERIMENT_SCHEMA = "repro/experiment@1"
_SHARD_CELLS_SCHEMA = "repro/shard-cells@1"


def _require_schema(payload: dict[str, Any], expected: str) -> None:
    found = payload.get("schema")
    if found != expected:
        raise ConfigurationError(
            f"expected schema {expected!r}, found {found!r}"
        )


# ---------------------------------------------------------------------------
# Sites / statements
# ---------------------------------------------------------------------------
def _site_to_dict(site: SinkSite) -> dict[str, Any]:
    return {
        "unit_id": site.unit_id,
        "statement_index": site.statement_index,
        "vuln_type": site.vuln_type.value,
    }


def _site_from_dict(payload: dict[str, Any]) -> SinkSite:
    return SinkSite(
        unit_id=payload["unit_id"],
        statement_index=payload["statement_index"],
        vuln_type=VulnerabilityType(payload["vuln_type"]),
    )


def _statement_to_dict(statement: Statement) -> dict[str, Any]:
    return {
        "kind": statement.kind.value,
        "target": statement.target,
        "sources": list(statement.sources),
        "vuln_type": statement.vuln_type.value if statement.vuln_type else None,
    }


def _statement_from_dict(payload: dict[str, Any]) -> Statement:
    return Statement(
        kind=StatementKind(payload["kind"]),
        target=payload["target"],
        sources=tuple(payload["sources"]),
        vuln_type=(
            VulnerabilityType(payload["vuln_type"]) if payload["vuln_type"] else None
        ),
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
def workload_to_dict(workload: Workload) -> dict[str, Any]:
    """Serialize a workload (units, truth, profiles, config)."""
    config = workload.config
    return {
        "schema": _WORKLOAD_SCHEMA,
        "name": workload.name,
        "config": {
            "n_units": config.n_units,
            "sites_per_unit": list(config.sites_per_unit),
            "prevalence": config.prevalence,
            "decoy_fraction": config.decoy_fraction,
            "chain_length_range": list(config.chain_length_range),
            "cross_class_sanitizer_rate": config.cross_class_sanitizer_rate,
            "type_mix": {t.value: w for t, w in config.type_mix.items()},
            "seed": config.seed,
            "name": config.name,
            "ecosystem": config.ecosystem,
        },
        "units": [
            {
                "unit_id": unit.unit_id,
                "statements": [_statement_to_dict(s) for s in unit.statements],
            }
            for unit in workload.units
        ],
        "sites": [_site_to_dict(site) for site in workload.truth.sites],
        "vulnerable": [
            _site_to_dict(site) for site in sorted(workload.truth.vulnerable)
        ],
        "profiles": [
            {
                "site": _site_to_dict(site),
                "vuln_type": profile.vuln_type.value,
                "vulnerable": profile.vulnerable,
                "chain_length": profile.chain_length,
                "sanitizer_present": profile.sanitizer_present,
                "cross_class_sanitizer": profile.cross_class_sanitizer,
                "difficulty": profile.difficulty,
            }
            for site, profile in sorted(workload.profiles.items())
        ],
    }


def workload_from_dict(payload: dict[str, Any]) -> Workload:
    """Rebuild a workload; validation re-runs on every component."""
    _require_schema(payload, _WORKLOAD_SCHEMA)
    config_data = payload["config"]
    config = WorkloadConfig(
        n_units=config_data["n_units"],
        sites_per_unit=tuple(config_data["sites_per_unit"]),
        prevalence=config_data["prevalence"],
        decoy_fraction=config_data["decoy_fraction"],
        chain_length_range=tuple(config_data["chain_length_range"]),
        cross_class_sanitizer_rate=config_data["cross_class_sanitizer_rate"],
        type_mix={
            VulnerabilityType(key): weight
            for key, weight in config_data["type_mix"].items()
        },
        seed=config_data["seed"],
        name=config_data["name"],
        ecosystem=config_data.get("ecosystem", "web-services"),
    )
    units = tuple(
        CodeUnit(
            unit_id=unit["unit_id"],
            statements=tuple(_statement_from_dict(s) for s in unit["statements"]),
        )
        for unit in payload["units"]
    )
    truth = GroundTruth.from_sites(
        (_site_from_dict(s) for s in payload["sites"]),
        (_site_from_dict(s) for s in payload["vulnerable"]),
    )
    profiles = {
        _site_from_dict(entry["site"]): SiteProfile(
            vuln_type=VulnerabilityType(entry["vuln_type"]),
            vulnerable=entry["vulnerable"],
            chain_length=entry["chain_length"],
            sanitizer_present=entry["sanitizer_present"],
            cross_class_sanitizer=entry["cross_class_sanitizer"],
            difficulty=entry["difficulty"],
        )
        for entry in payload["profiles"]
    }
    return Workload(
        name=payload["name"],
        units=units,
        truth=truth,
        profiles=profiles,
        config=config,
    )


# ---------------------------------------------------------------------------
# Reports / campaigns
# ---------------------------------------------------------------------------
def report_to_dict(report: DetectionReport) -> dict[str, Any]:
    """Serialize a detection report."""
    return {
        "schema": _REPORT_SCHEMA,
        "tool_name": report.tool_name,
        "workload_name": report.workload_name,
        "detections": [
            {"site": _site_to_dict(d.site), "confidence": d.confidence}
            for d in report.detections
        ],
    }


def report_from_dict(payload: dict[str, Any]) -> DetectionReport:
    """Rebuild a detection report."""
    _require_schema(payload, _REPORT_SCHEMA)
    return DetectionReport(
        tool_name=payload["tool_name"],
        workload_name=payload["workload_name"],
        detections=tuple(
            Detection(
                site=_site_from_dict(entry["site"]), confidence=entry["confidence"]
            )
            for entry in payload["detections"]
        ),
    )


def campaign_to_dict(campaign: CampaignResult) -> dict[str, Any]:
    """Serialize a scored campaign as its per-site columns.

    Per tool: the flagged site indices and their confidences.  Per
    campaign: the vulnerable site indices and every site's class code.
    Confusion matrices are derived again on load, from the same arrays.
    """
    results = []
    for result in campaign.results:
        flagged = np.flatnonzero(result.flags)
        results.append(
            {
                "tool_name": result.tool_name,
                "flagged": flagged.tolist(),
                "confidence": result.scores[flagged].tolist(),
            }
        )
    return {
        "schema": _CAMPAIGN_SCHEMA,
        "workload_name": campaign.workload_name,
        "ecosystem": campaign.ecosystem,
        "vulnerable": np.flatnonzero(campaign.vulnerable).tolist(),
        "vuln_types": campaign.vuln_types.tolist(),
        "results": results,
    }


def _site_indices(payload: dict[str, Any], key: str, n_sites: int) -> np.ndarray:
    """``payload[key]`` as strictly increasing site indices below ``n_sites``."""
    indices = np.asarray(payload[key], dtype=np.int64)
    if indices.ndim != 1 or (
        indices.size
        and (indices[0] < 0 or indices[-1] >= n_sites or np.any(np.diff(indices) <= 0))
    ):
        raise ConfigurationError(
            f"campaign {key!r} must list increasing site indices below {n_sites}"
        )
    return indices


def campaign_from_dict(payload: dict[str, Any]) -> CampaignResult:
    """Rebuild a scored campaign."""
    _require_schema(payload, _CAMPAIGN_SCHEMA)
    codes = np.asarray(payload["vuln_types"], dtype=np.int64)
    if codes.ndim != 1 or np.any((codes < 0) | (codes >= len(TAXONOMY))):
        raise ConfigurationError(
            f"campaign 'vuln_types' must be class codes below {len(TAXONOMY)}"
        )
    n_sites = int(codes.shape[0])
    vulnerable = np.zeros(n_sites, dtype=bool)
    vulnerable[_site_indices(payload, "vulnerable", n_sites)] = True
    results = []
    for entry in payload["results"]:
        flagged = _site_indices(entry, "flagged", n_sites)
        confidence = np.asarray(entry["confidence"], dtype=float)
        if confidence.shape != flagged.shape or not np.all(
            (confidence > 0.0) & (confidence <= 1.0)
        ):
            raise ConfigurationError(
                f"tool {entry['tool_name']!r}: need one confidence in (0, 1] "
                f"per flagged site"
            )
        scores = np.zeros(n_sites)
        scores[flagged] = confidence
        results.append(tool_result(entry["tool_name"], scores, vulnerable))
    return CampaignResult(
        workload_name=payload["workload_name"],
        results=tuple(results),
        vulnerable=vulnerable,
        vuln_types=codes.astype(np.int8),
        ecosystem=payload["ecosystem"],
    )


# ---------------------------------------------------------------------------
# Experiment results
# ---------------------------------------------------------------------------
def _is_json_safe(value: Any) -> bool:
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if isinstance(value, list):
        return all(_is_json_safe(item) for item in value)
    if isinstance(value, dict):
        return all(
            isinstance(key, str) and _is_json_safe(item)
            for key, item in value.items()
        )
    return False


def experiment_result_to_dict(
    result: ExperimentResult, strict: bool = True
) -> dict[str, Any]:
    """Serialize an experiment result (rendered sections + JSON-safe data).

    ``data`` values that do not survive a JSON round-trip exactly (objects,
    tuples, non-string dict keys) are rejected when ``strict`` — archiving
    should fail loudly, not silently drop payload — or recorded under
    ``omitted_data_keys`` when ``strict=False``.
    """
    data: dict[str, Any] = {}
    omitted: list[str] = []
    for key, value in result.data.items():
        if _is_json_safe(value):
            data[key] = value
        elif strict:
            raise ConfigurationError(
                f"experiment {result.experiment_id}: data[{key!r}] is not "
                f"JSON-safe ({type(value).__name__}); pass strict=False to "
                f"omit such keys"
            )
        else:
            omitted.append(key)
    return {
        "schema": _EXPERIMENT_SCHEMA,
        "experiment_id": result.experiment_id,
        "title": result.title,
        "sections": dict(result.sections),
        "data": data,
        "omitted_data_keys": omitted,
    }


def experiment_result_from_dict(payload: dict[str, Any]) -> ExperimentResult:
    """Rebuild an experiment result (omitted data keys stay absent)."""
    _require_schema(payload, _EXPERIMENT_SCHEMA)
    return ExperimentResult(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        sections=dict(payload["sections"]),
        data=dict(payload["data"]),
    )


# ---------------------------------------------------------------------------
# Shard cells (the streaming campaign's cacheable unit)
# ---------------------------------------------------------------------------
def shard_cells_to_dict(cells: ShardCells) -> dict[str, Any]:
    """Serialize one shard's per-tool confusion cells."""
    return {
        "schema": _SHARD_CELLS_SCHEMA,
        "shard_index": cells.shard_index,
        "tool_names": list(cells.tool_names),
        "tp": list(cells.tp),
        "fp": list(cells.fp),
        "fn": list(cells.fn),
        "tn": list(cells.tn),
        "n_units": cells.n_units,
        "n_sites": cells.n_sites,
        "n_vulnerable": cells.n_vulnerable,
        "ecosystem": cells.ecosystem,
    }


def shard_cells_from_dict(payload: dict[str, Any]) -> ShardCells:
    """Rebuild shard cells; consistency validation re-runs on construction."""
    _require_schema(payload, _SHARD_CELLS_SCHEMA)
    return ShardCells(
        shard_index=payload["shard_index"],
        tool_names=tuple(payload["tool_names"]),
        tp=tuple(payload["tp"]),
        fp=tuple(payload["fp"]),
        fn=tuple(payload["fn"]),
        tn=tuple(payload["tn"]),
        n_units=payload["n_units"],
        n_sites=payload["n_sites"],
        n_vulnerable=payload["n_vulnerable"],
        ecosystem=payload.get("ecosystem", "web-services"),
    )


# ---------------------------------------------------------------------------
# Streaming campaign totals (what the service hands back for a finished job)
# ---------------------------------------------------------------------------
def streaming_totals_to_dict(totals: StreamingCampaignResult) -> dict[str, Any]:
    """Serialize corpus-wide streaming totals (per-tool confusion cells).

    Cells are serialized as exact integers — the accumulator's float64
    totals are integral by the exactness contract — so two runs that fold
    the same shards produce byte-identical JSON regardless of fold order.
    """
    return {
        "schema": SERVE_RESULT_SCHEMA,
        "tool_names": list(totals.tool_names),
        "cells": [
            {"tp": int(cm.tp), "fp": int(cm.fp), "fn": int(cm.fn), "tn": int(cm.tn)}
            for cm in totals.confusions
        ],
        "n_units": totals.n_units,
        "n_sites": totals.n_sites,
        "n_vulnerable": totals.n_vulnerable,
        "shard_indices": sorted(totals.shard_indices),
        "ecosystem": totals.ecosystem,
    }


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------
def _write_atomic(text: str, path: str | Path) -> None:
    """Write ``text`` to ``path`` through a temp file and :func:`os.replace`.

    The temp file is named for the writing process *and* thread, so
    concurrent writers of one path (two service jobs storing the same
    cache key) never share, truncate or steal each other's temp file: each
    replace moves a complete file into place, and the last one wins.
    """
    path = Path(path)
    tmp = path.with_name(
        f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}"
    )
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_json(payload: dict[str, Any], path: str | Path) -> None:
    """Atomically write a serialized artifact to ``path`` (stable key order).

    The payload is serialized in memory first, written to a temporary file
    private to this writer, and moved into place with :func:`os.replace` —
    so a crash (or a serialization error) mid-write can never leave a
    partial file at the final path: readers see either the old content or
    the new content, never truncated JSON.  The output is indented for
    people to read; cache entries use :func:`save_cache_entry` instead.
    """
    _write_atomic(json.dumps(payload, indent=2, sort_keys=True) + "\n", path)


def load_json(path: str | Path) -> dict[str, Any]:
    """Read a serialized artifact from ``path``.

    Truncated or garbage files raise :class:`~repro.errors.PersistError`
    (carrying the path) instead of leaking a raw ``JSONDecodeError``.
    """
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise PersistError(
            f"corrupt JSON in {path}: {error}", path=str(path)
        ) from error


# ---------------------------------------------------------------------------
# Integrity-checked cache entries (the artifact store's disk tier)
# ---------------------------------------------------------------------------
CACHE_ENTRY_SCHEMA = "repro/cache-entry@1"


def _canonical_with_digest(payload: dict[str, Any]) -> tuple[str, str]:
    """``payload``'s canonical JSON and the sha256 hex digest of it."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return canonical, hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def payload_digest(payload: dict[str, Any]) -> str:
    """The sha256 hex digest of ``payload``'s canonical JSON form."""
    return _canonical_with_digest(payload)[1]


def save_cache_entry(payload: dict[str, Any], path: str | Path) -> None:
    """Atomically write ``payload`` wrapped in a digest-bearing envelope.

    The envelope records the sha256 of the payload's canonical JSON, so a
    reader can detect silent corruption (bit flips, partial copies, manual
    edits) that still happens to parse as JSON.  The payload is encoded
    once: the canonical string that is hashed is the one written, and the
    file is the canonical JSON of the whole envelope (keys ``payload``,
    ``schema``, ``sha256`` in sorted order).
    """
    canonical, digest = _canonical_with_digest(payload)
    envelope = (
        f'{{"payload":{canonical},'
        f'"schema":{json.dumps(CACHE_ENTRY_SCHEMA)},'
        f'"sha256":"{digest}"}}\n'
    )
    _write_atomic(envelope, path)


def load_cache_entry(path: str | Path) -> dict[str, Any]:
    """Read an envelope written by :func:`save_cache_entry`; verify digest.

    Raises :class:`~repro.errors.PersistError` for unreadable JSON and
    :class:`~repro.errors.ArtifactCorruptError` when the envelope is not a
    cache entry or the embedded digest does not match the payload.
    """
    envelope = load_json(path)
    found = envelope.get("schema") if isinstance(envelope, dict) else None
    if found != CACHE_ENTRY_SCHEMA:
        raise ArtifactCorruptError(
            f"{path}: expected cache envelope {CACHE_ENTRY_SCHEMA!r}, "
            f"found {found!r}",
            path=str(path),
        )
    payload = envelope.get("payload")
    if not isinstance(payload, dict):
        raise ArtifactCorruptError(
            f"{path}: cache envelope has no payload object", path=str(path)
        )
    expected = envelope.get("sha256")
    actual = payload_digest(payload)
    if expected != actual:
        raise ArtifactCorruptError(
            f"{path}: payload digest mismatch (recorded {expected!r}, "
            f"computed {actual!r})",
            path=str(path),
        )
    return payload
