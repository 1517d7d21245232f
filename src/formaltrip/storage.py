"""Line-delimited persistence for datasets, run results, and judge results.

Every file is one JSON object per line, UTF-8, keys sorted, so files are
diffable and byte-reproducible. Result files start with a header line
carrying the tool version, a hash of the semantically relevant
configuration, and a hash of the dataset file consumed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__
from .grammar.dataset import DatasetManifest, DatasetRecord
from .pipeline.runner import JudgeRecord, RoundTripRecord
from .syntax import parse_expression


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ": "))


def write_jsonl(path: str | Path, rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(dumps(row) + "\n")
    return path


def read_jsonl(path: str | Path) -> list[dict]:
    out = []
    # split on "\n" alone: dumps leaves U+2028 and friends unescaped
    for line in Path(path).read_text(encoding="utf-8").split("\n"):
        if line.strip():
            out.append(json.loads(line))
    return out


def read_complete_lines(path: str | Path) -> list[str]:
    """The lines of a file about to be appended to. An unterminated last
    line, left by an interrupted write, is cut off the file, so that the
    next append starts a fresh line."""
    data = Path(path).read_bytes()
    end = data.rfind(b"\n") + 1
    if end < len(data):
        with Path(path).open("r+b") as fh:
            fh.truncate(end)
    # split on "\n" alone: dumps leaves U+2028 and friends unescaped
    return data[:end].decode("utf-8").split("\n")[:-1]


def config_hash(config: dict) -> str:
    return hashlib.sha256(dumps(config).encode("utf-8")).hexdigest()


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# dataset files

def dataset_record_to_json(record: DatasetRecord) -> dict:
    return {**vars(record), "expression": record.expression.canonical_text}


def dataset_record_from_json(row: dict) -> DatasetRecord:
    values = {f.name: row[f.name] for f in fields(DatasetRecord)}
    alphabet = set(values["vocabulary"].get("alphabet", ())) or None
    values["expression"] = parse_expression(values["formalism"], values["expression"], alphabet)
    return DatasetRecord(**values)


def dataset_file_name(grammar_id: str, metric: str, batch: int) -> str:
    return f"{grammar_id}_{metric}_batch{batch}.jsonl"


def write_dataset(
    records: list[DatasetRecord], manifest: DatasetManifest, out_dir: str | Path
) -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for batch in range(manifest.batches):
        rows = [
            dataset_record_to_json(r) for r in records if r.batch_index == batch
        ]
        paths.append(
            write_jsonl(out_dir / dataset_file_name(manifest.grammar_id, manifest.metric, batch), rows)
        )
    manifest_row = asdict(manifest)
    manifest_row["categories"] = {str(k): v for k, v in manifest.categories.items()}
    manifest_row["files"] = [p.name for p in paths]
    manifest_path = out_dir / f"{manifest.grammar_id}_{manifest.metric}_manifest.json"
    manifest_path.write_text(dumps(manifest_row) + "\n", encoding="utf-8")
    paths.append(manifest_path)
    return paths


def read_dataset(path: str | Path) -> list[DatasetRecord]:
    return [dataset_record_from_json(row) for row in read_jsonl(path)]


# ---------------------------------------------------------------------------
# result files

def result_header(
    model: str,
    config: dict,
    dataset_path: str | Path | None,
    deterministic: bool,
) -> dict:
    import datetime

    return {
        "kind": "header",
        "version": __version__,
        "model": model,
        "config_hash": config_hash(config),
        "dataset_hash": file_sha256(dataset_path) if dataset_path else None,
        "started_at": None
        if deterministic
        else datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def round_trip_to_json(record: RoundTripRecord) -> dict:
    return {**vars(record), "kind": "round_trip"}


def judge_to_json(record: JudgeRecord) -> dict:
    return {**vars(record), "kind": "judge"}


class ResultWriter:
    """Append-only result file: header first, then one record per line."""

    def __init__(self, path: str | Path, header: dict, resume: bool = False):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.existing_ids: set[str] = set()
        rows = []
        if resume and self.path.exists():
            rows = [json.loads(line) for line in read_complete_lines(self.path) if line.strip()]
        if rows:
            if _header(rows, self.path).get("config_hash") != header.get("config_hash"):
                raise ValueError(
                    "resume config mismatch: result file was produced by a "
                    "different configuration"
                )
            for row in rows[1:]:
                key = row.get("record_id") or row.get("pair_id")
                if key:
                    self.existing_ids.add(key)
            self._fh = self.path.open("a", encoding="utf-8")
        else:
            self._fh = self.path.open("w", encoding="utf-8")
            self._fh.write(dumps(header) + "\n")
            self._fh.flush()

    def write(self, row: dict):
        self._fh.write(dumps(row) + "\n")
        self._fh.flush()

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _header(rows: list[dict], path: str | Path) -> dict:
    if not rows or rows[0].get("kind") != "header":
        raise ValueError(f"{path} is not a result file (missing header)")
    return rows[0]


def _read_records(path: str | Path, cls) -> tuple[dict, list]:
    rows = read_jsonl(path)
    return _header(rows, path), [cls(**{k: v for k, v in r.items() if k != "kind"}) for r in rows[1:]]


def read_results(path: str | Path) -> tuple[dict, list[RoundTripRecord]]:
    return _read_records(path, RoundTripRecord)


def read_judge_results(path: str | Path) -> tuple[dict, list[JudgeRecord]]:
    return _read_records(path, JudgeRecord)
