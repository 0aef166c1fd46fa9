"""Persistence for campaign results.

Campaigns at paper scale take hours, so results must be storable and
re-analysable without re-running. Two formats live here:

* the **final JSON** (:func:`save_campaign` / :func:`load_campaign`):
  flat, versioned, written atomically (temp file + ``os.replace``) so
  an interrupted save can never corrupt an existing results file.
  Schema v2 adds harness-error rows (``outcome: null`` plus ``error``
  and ``attempts``); v3 adds the redundancy axis (``fault_scope``,
  ``mitigated``, ``imu_switchovers``, ``isolation_succeeded``); v4 adds
  the observability plane's ``blackbox_path``; older files remain
  loadable.
* the **JSONL checkpoint journal** (:class:`CampaignJournal`): one
  fsync'd line per completed case, written *while the campaign runs*,
  so a crash or kill loses at most the in-flight cases. The journal
  header carries a campaign fingerprint; resume refuses a checkpoint
  whose fingerprint does not match the requested config.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import IO, Any

from repro.core.atomicio import atomic_write_text
from repro.core.results import (
    HARNESS_ERROR_OUTCOME,
    CampaignResult,
    ExperimentResult,
)
from repro.flightstack.commander import MissionOutcome

_SCHEMA_VERSION = 4
_SUPPORTED_VERSIONS = (1, 2, 3, 4)

_JOURNAL_SCHEMA_VERSION = 1


_RESULT_FIELDS = dataclasses.fields(ExperimentResult)


def _result_to_dict(r: ExperimentResult) -> dict[str, Any]:
    row = {f.name: getattr(r, f.name) for f in _RESULT_FIELDS}
    row["outcome"] = r.outcome.value if r.outcome is not None else None
    return row


def _result_from_dict(r: dict[str, Any]) -> ExperimentResult:
    # Fields with a default were added after schema v1 and may be absent.
    values = {
        f.name: r[f.name] if f.default is dataclasses.MISSING else r.get(f.name, f.default)
        for f in _RESULT_FIELDS
    }
    if values["outcome"] is not None:
        values["outcome"] = MissionOutcome(values["outcome"])
    return ExperimentResult(**values)


def save_campaign(campaign: CampaignResult, path: str | Path) -> None:
    """Write a campaign to ``path`` as JSON (atomically)."""
    payload = {
        "schema_version": _SCHEMA_VERSION,
        "scale": campaign.scale,
        "injection_time_s": campaign.injection_time_s,
        "results": [_result_to_dict(r) for r in campaign.results],
    }
    atomic_write_text(Path(path), json.dumps(payload, indent=1))


def load_campaign(path: str | Path) -> CampaignResult:
    """Read a campaign previously written by :func:`save_campaign`.

    Accepts schema v1 (pre-resilience files without harness-error
    fields) through v4; refuses unknown versions rather than guessing.
    """
    payload = json.loads(Path(path).read_text())
    version = payload.get("schema_version")
    if version not in _SUPPORTED_VERSIONS:
        raise ValueError(
            f"unsupported campaign schema version {version!r} in {path} "
            f"(expected one of {_SUPPORTED_VERSIONS})"
        )
    results = [_result_from_dict(r) for r in payload["results"]]
    return CampaignResult(
        results=results,
        specs=[],
        scale=payload["scale"],
        injection_time_s=payload["injection_time_s"],
    )


def export_csv(campaign: CampaignResult, path: str | Path) -> None:
    """Write the raw per-experiment rows as CSV (for pandas/R users)."""
    header = (
        "experiment_id,mission_id,fault_label,fault_type,target,"
        "injection_duration_s,outcome,flight_duration_s,distance_km,"
        "inner_violations,outer_violations,max_deviation_m,error,attempts,"
        "fault_scope,mitigated,imu_switchovers,isolation_succeeded,"
        "blackbox_path"
    )
    lines = [header]
    for r in campaign.results:
        label = r.fault_label.replace(",", ";")
        outcome = r.outcome.value if r.outcome is not None else HARNESS_ERROR_OUTCOME
        error = (r.error or "").replace(",", ";").replace("\n", " ")
        isolation = "" if r.isolation_succeeded is None else str(r.isolation_succeeded).lower()
        lines.append(
            f"{r.experiment_id},{r.mission_id},{label},{r.fault_type or ''},"
            f"{r.target or ''},{r.injection_duration_s if r.injection_duration_s is not None else ''},"
            f"{outcome},{r.flight_duration_s:.3f},{r.distance_km:.4f},"
            f"{r.inner_violations},{r.outer_violations},{r.max_deviation_m:.3f},"
            f"{error},{r.attempts},{r.fault_scope or ''},"
            f"{str(r.mitigated).lower()},{r.imu_switchovers},{isolation},"
            f"{(r.blackbox_path or '').replace(',', ';')}"
        )
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


class JournalMismatchError(ValueError):
    """The checkpoint on disk belongs to a different campaign config."""


class CampaignJournal:
    """Crash-safe JSONL checkpoint of a running campaign.

    Line 1 is a header record (fingerprint + provenance); every further
    line is one completed :class:`ExperimentResult`. Appends are
    flushed and fsync'd, so after a crash the journal holds every case
    that finished — at worst the final line is truncated, which
    :meth:`load` tolerates by skipping it.

    On a clean campaign finish, :meth:`finalize` atomically rewrites
    the journal (``os.replace``) with ``complete: true`` in the header
    and exactly one record per case, de-duplicating any rows a
    crash/resume cycle may have repeated.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle: IO[str] | None = None

    def exists(self) -> bool:
        return self.path.exists()

    def create(
        self,
        fingerprint: str,
        scale: float,
        injection_time_s: float,
        total_cases: int,
    ) -> None:
        """Start a fresh journal (truncates any existing file)."""
        header = {
            "kind": "header",
            "journal_version": _JOURNAL_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "scale": scale,
            "injection_time_s": injection_time_s,
            "total_cases": total_cases,
            "complete": False,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "w")
        self._write_line(header)

    def open_for_append(self) -> None:
        """Re-open an existing journal to continue a resumed campaign."""
        self._handle = open(self.path, "a")

    def append(self, result: ExperimentResult) -> None:
        """Durably record one completed case (flush + fsync)."""
        if self._handle is None:
            raise RuntimeError("journal is not open for writing")
        record = {"kind": "result", **_result_to_dict(result)}
        self._write_line(record)

    def load(
        self, expected_fingerprint: str | None = None
    ) -> tuple[dict[str, Any], dict[int, ExperimentResult]]:
        """Read the journal: (header, results keyed by experiment_id).

        A truncated or corrupt trailing line (crash mid-append) is
        skipped silently; corruption anywhere else raises. When
        ``expected_fingerprint`` is given, a mismatch raises
        :class:`JournalMismatchError` so a stale checkpoint can never
        silently mix campaigns.
        """
        lines = self.path.read_text().splitlines()
        if not lines:
            raise ValueError(f"empty campaign journal: {self.path}")
        header = json.loads(lines[0])
        if header.get("kind") != "header":
            raise ValueError(f"campaign journal {self.path} has no header line")
        if header.get("journal_version") != _JOURNAL_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported journal version {header.get('journal_version')!r} "
                f"in {self.path}"
            )
        if (
            expected_fingerprint is not None
            and header.get("fingerprint") != expected_fingerprint
        ):
            raise JournalMismatchError(
                f"checkpoint {self.path} was written by a different campaign "
                f"config (fingerprint {header.get('fingerprint')!r}); refusing "
                "to mix results — delete it or pass the original config"
            )
        results: dict[int, ExperimentResult] = {}
        for index, line in enumerate(lines[1:], start=2):
            try:
                record = json.loads(line)
                if record.get("kind") != "result":
                    raise ValueError("not a result record")
                result = _result_from_dict(record)
            except (ValueError, KeyError) as exc:
                if index == len(lines):
                    break  # torn final append from a crash — recoverable
                raise ValueError(
                    f"corrupt record at {self.path}:{index}: {exc}"
                ) from exc
            results[result.experiment_id] = result
        return header, results

    def finalize(self) -> None:
        """Atomically mark the journal complete (and compact it)."""
        self.close()
        header, results = self.load()
        header["complete"] = True
        ordered = sorted(results.values(), key=lambda r: r.experiment_id)
        text = "\n".join(
            [json.dumps(header, separators=(",", ":"))]
            + [
                json.dumps({"kind": "result", **_result_to_dict(r)},
                           separators=(",", ":"))
                for r in ordered
            ]
        )
        atomic_write_text(self.path, text + "\n")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def remove(self) -> None:
        """Delete the journal (after the final results file is saved)."""
        self.close()
        if self.path.exists():
            self.path.unlink()

    def _write_line(self, record: dict[str, Any]) -> None:
        assert self._handle is not None
        self._handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
