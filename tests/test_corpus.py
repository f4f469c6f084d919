import dataclasses
import hashlib
import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from tableroute import cli as cli_module
from tableroute import corpus as corpus_module
from tableroute import runconfig
from tableroute.cli import main as cli_main
from tableroute.corpus import (
    RoutingExample,
    Table,
    example_from_raw,
    load_corpus,
    load_example,
    read_rows,
    split_by_dataset,
    stratified_split,
    write_corpus,
)
from tableroute.engine import EngineBackends, route
from tableroute.errors import ContractViolationError, IngestError, InvalidArgumentError
from tableroute.experts import LatencyModel, SimulatedGenerationBackend, TokensModel
from tableroute.fusion import ScriptedAgent
from tableroute.gate import init_gate, pack_parameters, save_checkpoint
from tableroute.ingest import ingest
from tableroute.paths import (
    DEFAULT_PATH_COSTS,
    EMBED_DIMS,
    INPUT_DIM,
    KNOWN_DATASETS,
    MODALITIES,
    QUESTION_DIM,
)
from tableroute.remote import RemoteClient, RemoteEmbeddingBackend
from tableroute.synthetic import (
    TAG_PROFILES,
    biased_embedders,
    make_raw_records,
    make_separable_corpus,
)
from tableroute.trainer import TrainConfig, _eval_logits, route_split, train
from test_remote import FakeResponse, FakeSession

# sha256 of the files that `make-synthetic --n 42 --all-tags --seed 1` then
# `ingest --seed 7` write; they pin the on-disk corpus format. The records'
# digest was retaken when they stopped carrying the experts' outputs, and
# again when they stopped carrying the table's markdown.
PINNED_CORPUS_SHA256 = {
    "corpus.jsonl": "aa76534c9de748bb05925e8d05af2d0c09e9fd90ebaacb591ef711a105882739",
    "embeddings.bin": "b16e1c8509544b3ca09d09f2faaf777a6bfb7d7036c132a081a4a48fdc181edd",
}
# sha256 of the same two files for `make-synthetic --n 130 --all-tags --seed 1`
# then `ingest --seed 7`: two full embedding blocks of 64 rows and a partial
# one. Taken from the record-at-a-time embedder before rows were embedded in
# blocks; the records' digest was retaken when they stopped carrying the
# table's markdown.
PINNED_CORPUS_130_SHA256 = {
    "corpus.jsonl": "967973e8ede77866e464e79019a95c1e4c1bf7ab494be8d963a2944e622a109c",
    "embeddings.bin": "630d88c1fa6813d4a9d93cdb2ba352fbca8d2262db67936d6b9edeb4a3090f89",
}
# sha256 of the 42-record corpus.jsonl that writers made while each record
# also carried its table as markdown.
LEGACY_MARKDOWN_CORPUS_SHA256 = "3c0ae2b496a8f871518ed69ee3e8eaeaf28d8aaf67a216b04b5908cc0bcc6bd9"
# sha256 of the per-id offset manifest that earlier writers put beside them.
LEGACY_MANIFEST_SHA256 = "8a2a15897c0fb5a654f94df15953367fa96aacda28278a89dcb77fbe9d1dba93"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _sidecar_matrix(directory):
    """The reference rows: `directory`'s whole sidecar, read without `read_rows`."""
    return np.fromfile(Path(directory) / "embeddings.bin", "<f4").reshape(-1, INPUT_DIM)


def _read_one(ex):
    """`ex`'s float32 row, read through `read_rows`."""
    return read_rows([ex], np.empty((1, INPUT_DIM), dtype=np.float32))[0]


@pytest.fixture(scope="module")
def pinned_corpus(tmp_path_factory):
    """The 42-record corpus directory built through the CLI."""
    root = tmp_path_factory.mktemp("pinned")
    raw, out = root / "raw.jsonl", root / "corpus"
    assert cli_main(["make-synthetic", "--out", str(raw), "--n", "42", "--all-tags",
                     "--seed", "1"]) == 0
    assert cli_main(["ingest", "--raw", str(raw), "--out", str(out), "--seed", "7"]) == 0
    return out


def _write_legacy_manifest(directory, examples):
    """The per-id, per-modality offset manifest that earlier writers produced."""
    entries, offset = {}, 0
    for ex in examples:
        entries[ex.id] = {}
        for modality in MODALITIES:
            entries[ex.id][modality] = [offset, EMBED_DIMS[modality]]
            offset += EMBED_DIMS[modality]
    manifest = {"dtype": "<f4", "total_elements": offset, "entries": entries}
    (directory / "manifest.json").write_text(
        json.dumps(manifest, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )


class TestTable:
    def test_markdown_shape(self):
        t = Table(columns=("a", "b"), rows=(("1", "2"), ("3", "4")))
        lines = t.to_markdown().splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "| --- | --- |"
        assert lines[2] == "| 1 | 2 |"

    def test_pipe_escaped(self):
        t = Table(columns=("a",), rows=(("x|y",),))
        assert "x\\|y" in t.to_markdown()

    def test_serialize_stable(self):
        t = Table(columns=("a",), rows=(("1",),))
        assert t.serialize() == '{"columns":["a"],"rows":[["1"]]}'

    def test_round_trip_json(self):
        t = Table(columns=("a", "b"), rows=(("1", "2"),))
        assert Table.from_json(t.to_json()) == t

    def test_ragged_rows_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Table(columns=("a", "b"), rows=(("1",),))


class TestRoutingExample:
    def test_unknown_dataset_rejected(self):
        t = Table(columns=("a",), rows=(("1",),))
        with pytest.raises(InvalidArgumentError):
            RoutingExample("x", "made-up", "q", t, (1, 0, 0), "g")

    def test_bad_scores_rejected(self):
        t = Table(columns=("a",), rows=(("1",),))
        with pytest.raises(InvalidArgumentError):
            RoutingExample("x", "wtq", "q", t, (1, 2, 0), "g")


class TestCorpusIO:
    def _examples(self, n=6):
        train, val = make_separable_corpus(n_train=n, n_val=0, seed=2)
        return train

    def test_round_trip(self, tmp_path):
        examples = self._examples()
        write_corpus(tmp_path, examples)
        loaded = load_corpus(tmp_path)
        matrix = _sidecar_matrix(tmp_path)
        assert len(loaded) == len(examples) == len(matrix)
        by_id = {e.id: e for e in examples}
        for i, ex in enumerate(loaded):
            src = by_id[ex.id]
            assert ex.question == src.question
            assert ex.path_scores == src.path_scores
            np.testing.assert_array_equal(matrix[i], np.asarray(src.embedding, dtype="<f4"))
            assert ex.embedding is None and ex.sidecar_row[1] == i
            assert _read_one(ex).tobytes() == matrix[i].tobytes()

    def test_bitwise_reproducible_files(self, tmp_path):
        examples = self._examples()
        a, b = tmp_path / "a", tmp_path / "b"
        write_corpus(a, examples)
        write_corpus(b, examples)
        for name in ("corpus.jsonl", "embeddings.bin"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert sorted(p.name for p in a.iterdir()) == ["corpus.jsonl", "embeddings.bin"]

    def test_sidecar_size_mismatch(self, tmp_path):
        examples = self._examples()
        write_corpus(tmp_path, examples)
        sidecar = tmp_path / "embeddings.bin"
        blob = sidecar.read_bytes()
        for damaged in (blob[:-4], blob + b"\0" * 4):
            sidecar.write_bytes(damaged)
            with pytest.raises(IngestError, match="embeddings.bin"):
                load_corpus(tmp_path)

    def test_non_finite_row_rejected_before_use(self, tmp_path):
        examples = self._examples()
        write_corpus(tmp_path, examples)
        matrix = np.fromfile(tmp_path / "embeddings.bin", dtype="<f4").reshape(-1, INPUT_DIM)
        matrix[2, 500] = np.nan
        matrix.tofile(tmp_path / "embeddings.bin")
        loaded = load_corpus(tmp_path)
        with pytest.raises(IngestError, match=loaded[2].id):
            train(loaded, [], TrainConfig(), DEFAULT_PATH_COSTS)
        with pytest.raises(IngestError, match=loaded[2].id):
            _read_one(loaded[2])
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            route(init_gate(seed=0), matrix[2])
        route(init_gate(seed=0), _read_one(loaded[1]))

    def test_legacy_directory_with_manifest_loads(self, pinned_corpus, tmp_path):
        legacy = tmp_path / "legacy"
        shutil.copytree(pinned_corpus, legacy)
        fresh = load_corpus(pinned_corpus)
        _write_legacy_manifest(legacy, fresh)
        assert _sha256(legacy / "manifest.json") == LEGACY_MANIFEST_SHA256
        loaded = load_corpus(legacy)
        assert [e.id for e in loaded] == [e.id for e in fresh]
        got = read_rows(loaded, np.empty((len(loaded), INPUT_DIM), dtype=np.float32))
        assert got.tobytes() == _sidecar_matrix(pinned_corpus).tobytes()

    def test_truncated_sidecar(self, tmp_path):
        examples = self._examples()
        write_corpus(tmp_path, examples)
        blob = (tmp_path / "embeddings.bin").read_bytes()
        (tmp_path / "embeddings.bin").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(IngestError, match="sidecar"):
            load_corpus(tmp_path)

    def _rewritten(self, examples):
        """The same ids with other questions and other embedding rows."""
        return [
            dataclasses.replace(ex, question=f"{ex.question} (v2)",
                                embedding=np.asarray(ex.embedding, dtype=np.float32) + 1.0)
            for ex in examples
        ]

    def test_kill_between_renames_leaves_unloadable_directory(self, tmp_path, monkeypatch):
        old = self._examples(4)
        write_corpus(tmp_path, old)
        real_replace = os.replace
        renamed = []

        def replace_then_die(src, dst):
            renamed.append(Path(dst).name)
            if len(renamed) == 2:
                raise OSError("killed between the renames")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_then_die)
        with pytest.raises(OSError, match="killed"):
            write_corpus(tmp_path, self._rewritten(old))
        monkeypatch.undo()
        assert renamed == ["embeddings.bin", "corpus.jsonl"]
        with pytest.raises(IngestError, match="no corpus file"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("failing", ["embeddings.bin", "corpus.jsonl"])
    def test_failed_temp_write_keeps_previous_pair(self, tmp_path, monkeypatch, failing):
        class HalfThenFail:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError("disk full")

            def writelines(self, lines):
                self.write("".join(lines))

        def failing_open(path, mode="r", **kwargs):
            fh = open(path, mode, **kwargs)
            return HalfThenFail(fh) if Path(path).name.startswith(f".{failing}.") else fh

        old = self._examples(4)
        write_corpus(tmp_path, old)
        before = {n: (tmp_path / n).read_bytes() for n in ("corpus.jsonl", "embeddings.bin")}
        monkeypatch.setattr(corpus_module, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            write_corpus(tmp_path, self._rewritten(old))
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)
        for name, blob in before.items():
            assert (tmp_path / name).read_bytes() == blob, name
        loaded = load_corpus(tmp_path)
        matrix = _sidecar_matrix(tmp_path)
        for i, (ex, src) in enumerate(zip(loaded, sorted(old, key=lambda e: e.id))):
            assert ex.question == src.question
            np.testing.assert_array_equal(matrix[i], src.embedding)
            assert _read_one(ex).tobytes() == matrix[i].tobytes()

    def test_duplicate_ids_rejected(self, tmp_path):
        examples = self._examples(2)
        clone = RoutingExample(
            id=examples[0].id, dataset=examples[0].dataset, question="q",
            table=examples[0].table,
            path_scores=(1, 0, 0), gold_answer="g", embedding=examples[0].embedding,
        )
        with pytest.raises(IngestError, match="duplicate"):
            write_corpus(tmp_path, [examples[0], clone])


class TestStratifiedSplit:
    def test_deterministic_and_stratified(self):
        train, val = make_separable_corpus(n_train=80, n_val=0, seed=4)
        t1, v1 = stratified_split(train, 0.25, seed=9)
        t2, v2 = stratified_split(train, 0.25, seed=9)
        assert [e.id for e in t1] == [e.id for e in t2]
        assert [e.id for e in v1] == [e.id for e in v2]
        per_ds = split_by_dataset(v1)
        sizes = {len(v) for v in per_ds.values()}
        assert len(sizes) == 1  # balanced input stays balanced per dataset


class TestSynthetic:
    def test_raw_records_shape(self):
        raws = make_raw_records(10, seed=0)
        assert len(raws) == 10
        for raw in raws:
            assert set(raw) == {"id", "dataset", "question", "table", "gold_answer", "path_labels"}
            assert raw["path_labels"] == list(TAG_PROFILES[raw["dataset"]])

    def test_corpus_sizes_and_tags(self):
        train, val = make_separable_corpus(n_train=100, n_val=25, seed=0)
        assert len(train) == 100
        assert len(val) == 25
        assert {e.dataset for e in train} <= set(TAG_PROFILES)

    def test_labels_follow_profiles(self):
        train, _ = make_separable_corpus(n_train=50, n_val=10, seed=1)
        for ex in train:
            assert ex.path_scores == TAG_PROFILES[ex.dataset]


def build_sim_stack(raws, seed=0):
    tags = sorted({r["dataset"] for r in raws})
    embedders = biased_embedders(tags, bias_scale=1.0, seed=seed)
    labels_t = {r["id"]: r["path_labels"][0] for r in raws}
    labels_i = {r["id"]: r["path_labels"][1] for r in raws}
    labels_f = {r["id"]: r["path_labels"][2] for r in raws}
    gen_models = (LatencyModel(1.0), TokensModel(32))
    backends = EngineBackends(
        question_embedder=embedders["question"],
        text_embedder=embedders["text"],
        vision_embedder=embedders["vision"],
        text_generator=SimulatedGenerationBackend("text", labels_t, *gen_models),
        image_generator=SimulatedGenerationBackend("image", labels_i, *gen_models),
    )
    return backends, ScriptedAgent(labels_f, LatencyModel(0.3), TokensModel(12))


class _FailingEmbedder:
    """Wraps an embedder; a batch holding `bad_payload` raises."""

    def __init__(self, inner, bad_payload):
        self.inner, self.bad_payload = inner, bad_payload
        self.modality, self.dim = inner.modality, inner.dim

    def embed_timed(self, payloads, tags=None, nonce=0, out=None):
        if self.bad_payload in payloads:
            raise ContractViolationError("no embedding for this payload")
        return self.inner.embed_timed(payloads, tags, nonce, out)


class TestIngest:
    def test_ten_record_smoke(self, tmp_path):
        raws = make_raw_records(10, seed=5)
        backends, agent = build_sim_stack(raws, seed=5)
        result = ingest(raws, backends, agent, tmp_path, skip_threshold=0.2)
        assert len(result.examples) == 10
        assert not result.skipped
        loaded = load_corpus(tmp_path)
        assert _sidecar_matrix(tmp_path).shape == (10, INPUT_DIM)
        assert all(e.sidecar_row[1] == i for i, e in enumerate(loaded))
        # scores produced by running the paths equal the source labels
        by_id = {r["id"]: r for r in raws}
        for ex in loaded:
            assert list(ex.path_scores) == by_id[ex.id]["path_labels"]

    def test_missing_gold_skipped_with_reason(self, tmp_path):
        raws = make_raw_records(10, seed=6)
        raws[3] = dict(raws[3], gold_answer="")
        backends, agent = build_sim_stack(raws, seed=6)
        result = ingest(raws, backends, agent, tmp_path, skip_threshold=0.5)
        assert len(result.examples) == 9
        assert result.skipped[0][0] == raws[3]["id"]
        assert "gold_answer" in result.skipped[0][1]

    @pytest.mark.parametrize("bad", [5, 70, 129])
    def test_ragged_table_skipped_with_reason(self, tmp_path, bad):
        # The field check passes a ragged table; the example refuses it.
        raws = make_raw_records(130, seed=3)
        raws[bad] = dict(raws[bad], table={"columns": ["a", "b"], "rows": [["1"]]})
        backends, agent = build_sim_stack(raws, seed=3)
        result = ingest(raws, backends, agent, tmp_path / "got", skip_threshold=0.5)
        assert result.skipped == [(raws[bad]["id"], "row width 1 does not match 2 columns")]
        rest = [r for r in raws if r is not raws[bad]]
        assert [e.id for e in result.examples] == [r["id"] for r in rest]
        backends, agent = build_sim_stack(raws, seed=3)
        ingest(rest, backends, agent, tmp_path / "want", skip_threshold=0.2)
        for name in ("corpus.jsonl", "embeddings.bin"):
            assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()

    def test_skip_rate_threshold(self, tmp_path):
        raws = make_raw_records(4, seed=7)
        for i in range(3):
            raws[i] = dict(raws[i], question="")
        backends, agent = build_sim_stack(raws, seed=7)
        with pytest.raises(IngestError, match="skipped"):
            ingest(raws, backends, agent, tmp_path, skip_threshold=0.2)

    def test_rerun_bitwise_identical(self, tmp_path):
        raws = make_raw_records(8, seed=8)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            backends, agent = build_sim_stack(raws, seed=8)
            ingest(raws, backends, agent, out, skip_threshold=0.2)
        for name in ("corpus.jsonl", "embeddings.bin"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_agrees_with_separable_corpus(self, tmp_path):
        # Ingest runs all three paths on the stack the default config builds;
        # the separable corpus takes its labels from the tag profiles. Both
        # embed through the engine's one embedding step.
        raws = make_raw_records(40, seed=0)
        labels = {r["id"]: tuple(r["path_labels"]) for r in raws}
        backends, agent = runconfig.build_stack(
            runconfig.load_runconfig(None), labels, sorted({r["dataset"] for r in raws})
        )
        ingested = ingest(raws, backends, agent, tmp_path, skip_threshold=0.2).examples
        train, val = make_separable_corpus(n_train=30, n_val=10, seed=0)
        separable = sorted(train + val, key=lambda e: e.id)
        assert [e.id for e in ingested] == [e.id for e in separable]
        matrix = _sidecar_matrix(tmp_path)
        for got, row, want in zip(ingested, matrix, separable):
            assert want.embedding.dtype == np.float32
            assert row.tobytes() == want.embedding.tobytes()
            assert _read_one(got).tobytes() == row.tobytes()
            assert got.path_scores == want.path_scores == TAG_PROFILES[got.dataset]

    @pytest.mark.parametrize("bad", [5, 70, 129])
    def test_embedding_failure_skips_only_its_record(self, tmp_path, bad):
        # Record `bad` sits in the first, second or last (partial) block of 64.
        raws = make_raw_records(130, seed=2)
        raws[bad] = dict(raws[bad], question="Which question breaks the embedder?")
        backends, agent = build_sim_stack(raws, seed=2)
        backends.question_embedder = _FailingEmbedder(
            backends.question_embedder, raws[bad]["question"]
        )
        result = ingest(raws, backends, agent, tmp_path / "got", skip_threshold=0.5)
        assert result.skipped == [(raws[bad]["id"], "no embedding for this payload")]
        assert [e.id for e in result.examples] == [r["id"] for r in raws if r is not raws[bad]]
        # the other records' bytes are those of an ingest without the bad one
        rest = [r for r in raws if r is not raws[bad]]
        backends, agent = build_sim_stack(raws, seed=2)
        ingest(rest, backends, agent, tmp_path / "want", skip_threshold=0.2)
        for name in ("corpus.jsonl", "embeddings.bin"):
            assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()

    def test_wrong_embedding_dimension_skips_its_record(self, tmp_path):
        # A remote question embedder answers record 2 with a 5-dim vector.
        # The block's batched call fails at that record; each record is then
        # embedded alone, and only record 2 is skipped.
        raws = make_raw_records(4, seed=4)
        questions = [r["question"] for r in sorted(raws, key=lambda r: r["id"])]
        vectors = [[float(i + 1)] * QUESTION_DIM for i in range(4)]
        wrong = FakeResponse({"embedding": [0.5] * 5})
        replies = [FakeResponse({"embedding": v}) for v in vectors]
        session = FakeSession([*replies[:2], wrong, *replies[:2], wrong, replies[3]])
        client = RemoteClient("http://embed:9000", timeout_s=1.0, max_retries=0, backoff_s=0.01,
                              session=session, sleep=lambda s: None)
        backends, agent = build_sim_stack(raws, seed=4)
        backends.question_embedder = RemoteEmbeddingBackend(client, "question")
        result = ingest(raws, backends, agent, tmp_path, skip_threshold=0.5)
        assert not session.outcomes
        assert [c["json"]["text"] for c in session.calls] == [*questions[:3], *questions]
        ids = sorted(r["id"] for r in raws)
        assert result.skipped == [(ids[2], "http://embed:9000/embed returned an embedding of "
                                            f"shape (5,) for question, expected ({QUESTION_DIM},)")]
        assert [e.id for e in result.examples] == ids[:2] + ids[3:]
        kept = _sidecar_matrix(tmp_path)[:, :QUESTION_DIM]
        np.testing.assert_array_equal(kept, np.asarray([vectors[0], vectors[1], vectors[3]]))

    def test_legacy_expert_outputs_key_is_ignored(self, pinned_corpus, tmp_path):
        # Ingest no longer writes the experts' outputs or the table's
        # markdown into each record; a corpus written when it did still
        # loads, both keys unread.
        records = (pinned_corpus / "corpus.jsonl").read_bytes()
        assert b"expert_outputs" not in records and b"table_markdown" not in records
        legacy = tmp_path / "legacy"
        shutil.copytree(pinned_corpus, legacy)
        for line_no in range(1, 43):
            _edit_line(legacy, line_no, lambda rec: rec.update(
                table_markdown=Table.from_json(rec["table"]).to_markdown()))
        assert _sha256(legacy / "corpus.jsonl") == LEGACY_MARKDOWN_CORPUS_SHA256
        output = {"answer": "42", "explanation": "sum", "latency_seconds": 1.5,
                  "output_tokens": 64}
        for line_no in range(1, 43):
            _edit_line(legacy, line_no,
                       lambda rec: rec.update(expert_outputs={"image": output, "text": output}))
        fresh = load_corpus(pinned_corpus)
        loaded = load_corpus(legacy)
        assert [_without_embedding(e) for e in loaded] == [_without_embedding(e) for e in fresh]
        assert [e.table_markdown for e in loaded] == [e.table.to_markdown() for e in fresh]
        rows = read_rows(loaded, np.empty((42, INPUT_DIM), dtype=np.float32))
        assert rows.tobytes() == _sidecar_matrix(pinned_corpus).tobytes()
        one = load_example(legacy, fresh[3].id)
        assert _without_embedding(one) == _without_embedding(fresh[3])
        assert _read_one(one).tobytes() == _sidecar_matrix(pinned_corpus)[3].tobytes()


class TestFormatPin:
    def test_cli_corpus_bytes_pinned(self, pinned_corpus):
        assert sorted(p.name for p in pinned_corpus.iterdir()) == sorted(PINNED_CORPUS_SHA256)
        for name, digest in PINNED_CORPUS_SHA256.items():
            assert _sha256(pinned_corpus / name) == digest, name

    def test_cli_corpus_bytes_pinned_across_blocks(self, tmp_path):
        raw, out = tmp_path / "raw.jsonl", tmp_path / "corpus"
        assert cli_main(["make-synthetic", "--out", str(raw), "--n", "130", "--all-tags",
                         "--seed", "1"]) == 0
        assert cli_main(["ingest", "--raw", str(raw), "--out", str(out), "--seed", "7"]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(PINNED_CORPUS_130_SHA256)
        for name, digest in PINNED_CORPUS_130_SHA256.items():
            assert _sha256(out / name) == digest, name


def _without_embedding(ex):
    return dataclasses.replace(ex, embedding=None)


def _edit_line(directory, line_no, edit):
    """Rewrite one line of `directory`'s corpus.jsonl: `edit(record dict)` or a raw string."""
    path = directory / "corpus.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    old = lines[line_no - 1]
    if callable(edit):
        rec = json.loads(old)
        edit(rec)
        lines[line_no - 1] = json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n"
    else:
        lines[line_no - 1] = edit
    path.write_text("".join(lines), encoding="utf-8")
    return json.loads(old)["id"]


# Field values of the wrong type, each on an otherwise valid record.
BAD_FIELDS = [
    pytest.param(lambda rec: rec.update(table=None), id="table-null"),
    pytest.param(lambda rec: rec.update(table={"columns": 3, "rows": []}), id="columns-int"),
    pytest.param(lambda rec: rec["table"].update(rows=[5]), id="row-int"),
    pytest.param(lambda rec: rec.update(path_scores=7), id="scores-int"),
    pytest.param(lambda rec: rec.update(dataset="nope"), id="unknown-tag"),
    pytest.param(lambda rec: rec.pop("question"), id="missing-field"),
]


class TestBadRecords:
    @pytest.mark.parametrize("edit", BAD_FIELDS)
    def test_load_corpus_names_the_line(self, pinned_corpus, tmp_path, edit):
        shutil.copytree(pinned_corpus, tmp_path / "c")
        _edit_line(tmp_path / "c", 4, edit)
        with pytest.raises(IngestError, match=r"corpus\.jsonl:4: bad record"):
            load_corpus(tmp_path / "c")

    @pytest.mark.parametrize("edit", BAD_FIELDS)
    def test_load_example_names_the_line(self, pinned_corpus, tmp_path, edit):
        shutil.copytree(pinned_corpus, tmp_path / "c")
        example_id = _edit_line(tmp_path / "c", 4, edit)
        with pytest.raises(IngestError, match=r"corpus\.jsonl:4: bad record"):
            load_example(tmp_path / "c", example_id)

    def test_record_not_an_object(self, pinned_corpus, tmp_path):
        shutil.copytree(pinned_corpus, tmp_path / "c")
        _edit_line(tmp_path / "c", 4, "[1, 2]\n")
        with pytest.raises(IngestError, match=r"corpus\.jsonl:4: bad record"):
            load_corpus(tmp_path / "c")

    def test_invalid_utf8_in_the_matching_line(self, pinned_corpus, tmp_path):
        shutil.copytree(pinned_corpus, tmp_path / "c")
        path = tmp_path / "c" / "corpus.jsonl"
        lines = path.read_bytes().split(b"\n")
        example_id = json.loads(lines[3])["id"]
        lines[3] = lines[3].replace(b'"question": "', b'"question": "\xff', 1)
        path.write_bytes(b"\n".join(lines))
        for load in (load_corpus, lambda d: load_example(d, example_id)):
            with pytest.raises(IngestError, match=r"corpus\.jsonl:4: bad record"):
                load(tmp_path / "c")

    def test_cut_json_line_holding_the_id(self, pinned_corpus, tmp_path):
        shutil.copytree(pinned_corpus, tmp_path / "c")
        line = (tmp_path / "c" / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[3]
        example_id = json.loads(line)["id"]
        cut = line.index(json.dumps(example_id)) + len(json.dumps(example_id))
        _edit_line(tmp_path / "c", 4, line[:cut] + "\n")
        with pytest.raises(IngestError, match=r"corpus\.jsonl:4: bad record"):
            load_example(tmp_path / "c", example_id)

    def test_profile_cost_exits_1_naming_the_line(self, pinned_corpus, tmp_path, capsys):
        shutil.copytree(pinned_corpus, tmp_path / "c")
        _edit_line(tmp_path / "c", 4, lambda rec: rec.update(table=None))
        code = cli_main(["profile-cost", "--corpus", str(tmp_path / "c"),
                         "--run-dir", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: IngestError: ")
        assert "corpus.jsonl:4: bad record" in err


TABLE_SHAPE = "field 'table' is not an object with a 'columns' list and a list of 'rows' lists"

# One edit per record check, each on an otherwise valid raw or stored record,
# and the reason `example_from_raw` gives for it.
RECORD_CHECKS = [
    pytest.param(lambda rec: rec.pop("question"), "missing field 'question'",
                 id="missing-question"),
    pytest.param(lambda rec: rec.update(gold_answer=""), "missing field 'gold_answer'",
                 id="empty-gold"),
    pytest.param(lambda rec: rec["table"].update(columns="ivy"), TABLE_SHAPE,
                 id="string-columns"),
    pytest.param(lambda rec: rec["table"].update(rows=["ivy"]), TABLE_SHAPE,
                 id="rows-not-lists"),
    pytest.param(lambda rec: rec.update(table={"columns": ["a", "b"], "rows": [["1"]]}),
                 "row width 1 does not match 2 columns", id="ragged-row"),
    pytest.param(lambda rec: rec.update(dataset="nope"), "unknown dataset tag 'nope'",
                 id="unknown-tag"),
    pytest.param(lambda rec: rec.update(question=["a"]),
                 "field 'question' is not text or a number: ['a']", id="list-question"),
    pytest.param(lambda rec: rec.update(gold_answer={"x": 1}),
                 "field 'gold_answer' is not text or a number: {'x': 1}", id="object-gold"),
    pytest.param(lambda rec: rec["table"]["columns"].__setitem__(0, True),
                 "a 'table' column is not text or a number: True", id="boolean-column"),
    pytest.param(lambda rec: rec["table"]["rows"][0].__setitem__(1, None),
                 "a 'table' cell is not text or a number: None", id="null-cell"),
]


class TestRecordChecks:
    """Raw records in `ingest` and stored records in `load_corpus` and
    `load_example` pass the same checks and fail them with the same reason."""

    @pytest.mark.parametrize("edit,reason", RECORD_CHECKS)
    def test_ingest_skips_with_the_reason(self, tmp_path, edit, reason):
        raws = make_raw_records(10, seed=6)
        bad = json.loads(json.dumps(raws[3]))
        edit(bad)
        raws[3] = bad
        backends, agent = build_sim_stack(raws, seed=6)
        result = ingest(raws, backends, agent, tmp_path, skip_threshold=0.5)
        assert result.skipped == [(bad["id"], reason)]
        assert len(result.examples) == 9

    @pytest.mark.parametrize("edit,reason", RECORD_CHECKS)
    def test_load_names_the_line_and_the_reason(self, pinned_corpus, tmp_path, edit, reason):
        shutil.copytree(pinned_corpus, tmp_path / "c")
        example_id = _edit_line(tmp_path / "c", 4, edit)
        message = re.escape(f"corpus.jsonl:4: bad record ({reason})")
        with pytest.raises(IngestError, match=message):
            load_corpus(tmp_path / "c")
        with pytest.raises(IngestError, match=message):
            load_example(tmp_path / "c", example_id)


# Each place a record holds text, as a setter on a raw or stored record.
TEXT_FIELDS = {
    "id": lambda rec, v: rec.update(id=v),
    "question": lambda rec, v: rec.update(question=v),
    "gold_answer": lambda rec, v: rec.update(gold_answer=v),
    "column": lambda rec, v: rec["table"]["columns"].__setitem__(1, v),
    "cell": lambda rec, v: rec["table"]["rows"][0].__setitem__(2, v),
}
NOT_TEXT = [pytest.param(["x"], id="list"), pytest.param({"a": 1}, id="object"),
            pytest.param(True, id="boolean"), pytest.param(None, id="null")]


class TestTextFields:
    """`example_from_raw` reads a number through `str()` where a record holds
    text, and refuses a list, an object, a boolean or null there."""

    @pytest.mark.parametrize("value", NOT_TEXT)
    @pytest.mark.parametrize("field", TEXT_FIELDS)
    def test_refused(self, field, value):
        rec = make_raw_records(1, seed=6)[0]
        TEXT_FIELDS[field](rec, value)
        with pytest.raises(InvalidArgumentError):
            example_from_raw(rec, (0, 0, 0))

    @pytest.mark.parametrize("field", TEXT_FIELDS)
    def test_numbers_read_as_text(self, field):
        rec = make_raw_records(1, seed=6)[0]
        ref = json.loads(json.dumps(rec))
        for number, text in ((12, "12"), (1.5, "1.5")):
            TEXT_FIELDS[field](rec, number)
            TEXT_FIELDS[field](ref, text)
            assert example_from_raw(rec, (0, 0, 0)) == example_from_raw(ref, (0, 0, 0))

    def test_id_refused_by_ingest_and_on_load(self, pinned_corpus, tmp_path):
        # `TestRecordChecks` covers the other fields; a list id cannot key its stack.
        reason = "field 'id' is not text or a number: ['x']"
        raws = make_raw_records(10, seed=6)
        backends, agent = build_sim_stack(raws, seed=6)
        raws[3]["id"] = ["x"]
        result = ingest(raws, backends, agent, tmp_path / "out", skip_threshold=0.5)
        assert result.skipped == [("['x']", reason)] and len(result.examples) == 9
        shutil.copytree(pinned_corpus, tmp_path / "c")
        _edit_line(tmp_path / "c", 4, lambda rec: rec.update(id=["x"]))
        with pytest.raises(IngestError, match=re.escape(f"corpus.jsonl:4: bad record ({reason})")):
            load_corpus(tmp_path / "c")


class TestLoadExample:
    def test_every_id_equals_load_corpus(self, pinned_corpus):
        full = load_corpus(pinned_corpus)
        matrix = _sidecar_matrix(pinned_corpus)
        assert len(full) == len(matrix) == 42
        for i, ref in enumerate(full):
            ex = load_example(pinned_corpus, ref.id)
            assert _without_embedding(ex) == _without_embedding(ref)
            assert ex.embedding is None and ex.sidecar_row[1] == i
            assert _read_one(ex).tobytes() == matrix[i].tobytes()

    def test_unknown_id_is_none(self, pinned_corpus):
        assert load_example(pinned_corpus, "syn-00000") is None
        assert load_example(pinned_corpus, "") is None
        assert load_example(pinned_corpus, "wtq") is None

    def test_id_that_prefixes_another_id(self, tmp_path):
        base, _ = make_separable_corpus(n_train=3, n_val=0, seed=2)
        decoy_table = Table(columns=("ref",), rows=(("x-1",), ("x-10",)))
        examples = [
            dataclasses.replace(base[0], id="a-decoy", table=decoy_table,
                                question='Which of "x-1" and "x-10" comes first?'),
            dataclasses.replace(base[1], id="x-1"),
            dataclasses.replace(base[2], id="x-10"),
        ]
        write_corpus(tmp_path, examples)
        full = {ex.id: ex for ex in load_corpus(tmp_path)}
        rows = dict(zip(sorted(full), _sidecar_matrix(tmp_path)))
        for example_id in ("x-1", "x-10", "a-decoy"):
            ex = load_example(tmp_path, example_id)
            assert ex.id == example_id
            assert ex.question == full[example_id].question
            assert _read_one(ex).tobytes() == rows[example_id].tobytes()
        assert load_example(tmp_path, "x-") is None

    def test_blank_lines_keep_the_row_index(self, pinned_corpus, tmp_path):
        spaced = tmp_path / "spaced"
        shutil.copytree(pinned_corpus, spaced)
        lines = (spaced / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        padded = ["\n"] + [line + ("\n" if i % 3 == 0 else "  \n" if i % 3 == 1 else "")
                          for i, line in enumerate(lines)] + ["\n"]
        (spaced / "corpus.jsonl").write_text("".join(padded), encoding="utf-8")
        matrix = _sidecar_matrix(pinned_corpus)
        for i, ref in enumerate(load_corpus(pinned_corpus)):
            ex = load_example(spaced, ref.id)
            assert _without_embedding(ex) == _without_embedding(ref)
            assert _read_one(ex).tobytes() == matrix[i].tobytes()

    def test_sidecar_size_mismatch(self, pinned_corpus, tmp_path):
        shutil.copytree(pinned_corpus, tmp_path / "c")
        sidecar = tmp_path / "c" / "embeddings.bin"
        blob = sidecar.read_bytes()
        first_id = load_corpus(pinned_corpus)[0].id
        for damaged in (blob[:-4], blob + b"\0" * 4, blob[:-INPUT_DIM * 4]):
            sidecar.write_bytes(damaged)
            for example_id in (first_id, "not-an-id"):
                with pytest.raises(IngestError, match="embeddings.bin"):
                    load_example(tmp_path / "c", example_id)

    def test_missing_files(self, pinned_corpus, tmp_path):
        with pytest.raises(IngestError, match="no corpus file"):
            load_example(tmp_path, "syn-000000")
        shutil.copy(pinned_corpus / "corpus.jsonl", tmp_path / "corpus.jsonl")
        with pytest.raises(IngestError, match="missing embedding sidecar"):
            load_example(tmp_path, "syn-000000")

    @pytest.mark.parametrize("command", ["route", "infer"])
    def test_cli_unknown_id_exits_2(self, pinned_corpus, tmp_path, capsys, command):
        ckpt = tmp_path / "gate.ckpt"
        save_checkpoint(ckpt, init_gate(seed=3))
        code = cli_main([command, "--corpus", str(pinned_corpus), "--checkpoint", str(ckpt),
                         "--id", "syn-00000"])
        assert code == 2
        assert "example id 'syn-00000' not in corpus" in capsys.readouterr().err

    def test_cli_route_non_finite_row_exits_1_naming_the_id(self, pinned_corpus, tmp_path,
                                                             capsys):
        shutil.copytree(pinned_corpus, tmp_path / "c")
        matrix = _sidecar_matrix(tmp_path / "c")
        matrix[5, 123] = np.nan
        matrix.tofile(tmp_path / "c" / "embeddings.bin")
        ids = [ex.id for ex in load_corpus(tmp_path / "c")]
        ckpt = tmp_path / "gate.ckpt"
        save_checkpoint(ckpt, init_gate(seed=3))
        route_args = ["route", "--corpus", str(tmp_path / "c"), "--checkpoint", str(ckpt)]
        assert cli_main([*route_args, "--id", ids[4]]) == 0
        capsys.readouterr()
        assert cli_main([*route_args, "--id", ids[5]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: IngestError: ")
        assert f"example {ids[5]}: non-finite embedding" in err

    @pytest.mark.parametrize("mode", [[], ["--non-adaptive"]], ids=["adaptive", "non-adaptive"])
    def test_infer_stdout_equals_full_corpus_backends(self, pinned_corpus, tmp_path, capsys,
                                                      monkeypatch, mode):
        ckpt = tmp_path / "gate.ckpt"
        save_checkpoint(ckpt, init_gate(seed=3))
        full = load_corpus(pinned_corpus)
        ids = [sorted(e.id for e in full if e.dataset == tag)[0] for tag in KNOWN_DATASETS]
        assert len(ids) == 7

        def infer_stdout():
            outs = []
            for example_id in ids:
                capsys.readouterr()
                assert cli_main(["infer", "--corpus", str(pinned_corpus), "--checkpoint",
                                 str(ckpt), "--id", example_id, "--seed", "7", *mode]) == 0
                outs.append(capsys.readouterr().out)
            return outs

        single = infer_stdout()
        monkeypatch.setattr(cli_module, "backends_from_corpus",
                            lambda cfg, _examples: runconfig.backends_from_corpus(cfg, full))
        assert infer_stdout() == single


def _random_examples(n, seed):
    """`n` canonical-dim examples with random float32 rows and path scores."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, INPUT_DIM)).astype(np.float32)
    scores = rng.integers(0, 2, size=(n, 3))
    t = Table(columns=("a",), rows=(("1",),))
    return [RoutingExample(f"r-{i:04d}", "wtq", "q", t, tuple(int(s) for s in scores[i]),
                           "g", embedding=rows[i])
            for i in range(n)]


def _stacked(rows):
    """The reference gather: each row as float32, stacked into float64."""
    return np.stack([np.asarray(r, dtype=np.float32) for r in rows], dtype=np.float64)


def _mapping_count(path):
    """How many of this process's mappings are of `path`."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        return sum(line.split()[5:] == [str(path)] for line in fh)


class TestReadRows:
    N = 40  # rows in the corpus on disk

    @pytest.fixture
    def loaded(self, tmp_path):
        write_corpus(tmp_path, _random_examples(self.N, seed=3))
        return load_corpus(tmp_path)

    @pytest.fixture
    def matrix(self, loaded, tmp_path):
        return _sidecar_matrix(tmp_path)

    @pytest.mark.parametrize("picks", [
        range(3, 11),                         # one run of consecutive rows
        range(40),                            # every row, in order
        [9, 2, 17, 5, 30, 31, 0, 39, 18],     # scattered rows
        [20, 20, 21],                         # a row twice
    ], ids=["run", "all", "scattered", "repeat"])
    def test_sidecar_rows_bitwise_equal_to_stack(self, loaded, matrix, picks):
        examples = [loaded[i] for i in picks]
        out = np.full((len(examples) + 2, INPUT_DIM), 7.0)
        got = read_rows(examples, out)
        assert got.base is out and got.shape == (len(examples), INPUT_DIM)
        assert got.tobytes() == _stacked(matrix[list(picks)]).tobytes()
        assert (out[len(examples):] == 7.0).all()

    def test_float32_out_is_read_into(self, loaded, matrix):
        # The trainer's batch buffer: rows land in it with no staging or cast.
        held = _random_examples(2, seed=6)
        examples = [loaded[9], loaded[2], loaded[3], held[0], loaded[4], loaded[30], held[1]]
        rows = [*matrix[[9, 2, 3]], held[0].embedding, *matrix[[4, 30]], held[1].embedding]
        out = np.full((len(examples) + 1, INPUT_DIM), 7.0, dtype=np.float32)
        got = read_rows(examples, out)
        assert got.base is out and got.dtype == np.float32
        assert got.tobytes() == _stacked(rows).astype(np.float32).tobytes()
        assert (out[len(examples):] == 7.0).all()

    def test_in_memory_rows_mixed_with_sidecar_rows(self, loaded, matrix):
        held = _random_examples(5, seed=4)
        held[1].embedding = held[1].embedding.astype(np.float64) / 3.0  # cast to float32 first
        examples = [loaded[0], held[0], loaded[1], loaded[2], held[1], held[2], loaded[7],
                    held[3], held[4], loaded[8]]
        h = [ex.embedding for ex in held]
        rows = [matrix[0], h[0], matrix[1], matrix[2], h[1], h[2], matrix[7], h[3], h[4],
                matrix[8]]
        got = read_rows(examples, np.empty((len(examples), INPUT_DIM)))
        assert got.tobytes() == _stacked(rows).tobytes()

    def test_reassigned_embedding_is_the_one_read(self, loaded, matrix):
        loaded[4].embedding = np.ones(INPUT_DIM, dtype=np.float32)
        got = read_rows(loaded[3:6], np.empty((3, INPUT_DIM)))
        assert got.tobytes() == _stacked([matrix[3], loaded[4].embedding, matrix[5]]).tobytes()
        assert (got[1] == 1.0).all()

    def test_row_from_load_example(self, loaded, matrix, tmp_path):
        for i in (0, 13, self.N - 1):
            ex = load_example(tmp_path, loaded[i].id)
            got = read_rows([ex, loaded[i]], np.empty((2, INPUT_DIM)))
            assert got.tobytes() == _stacked([matrix[i], matrix[i]]).tobytes()

    def test_non_finite_row_names_its_example(self, tmp_path):
        write_corpus(tmp_path, _random_examples(self.N, seed=3))
        matrix = np.fromfile(tmp_path / "embeddings.bin", dtype="<f4").reshape(-1, INPUT_DIM)
        matrix[21, 9000] = np.nan  # past the middle of a full read
        matrix.tofile(tmp_path / "embeddings.bin")
        loaded = load_corpus(tmp_path)
        bad = loaded[21].id
        with pytest.raises(IngestError, match=f"example {bad}: non-finite"):
            read_rows(loaded, np.empty((self.N, INPUT_DIM)))
        with pytest.raises(IngestError, match=f"example {bad}: non-finite"):
            train(loaded, [], TrainConfig(), DEFAULT_PATH_COSTS)
        with pytest.raises(IngestError, match=f"example {bad}: non-finite"):
            train(loaded[:8], loaded[8:], TrainConfig(), DEFAULT_PATH_COSTS)
        with pytest.raises(IngestError, match=f"example {bad}: non-finite"):
            _eval_logits(init_gate(seed=0), loaded)
        _eval_logits(init_gate(seed=0), loaded[:21])

    def test_sidecar_cut_short_after_load(self, loaded, tmp_path):
        with open(tmp_path / "embeddings.bin", "r+b") as fh:
            fh.truncate(10 * INPUT_DIM * 4)
        read_rows(loaded[:10], np.empty((10, INPUT_DIM)))
        with pytest.raises(IngestError, match="embeddings.bin ended before row 10"):
            read_rows(loaded[8:12], np.empty((4, INPUT_DIM)))

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
    def test_training_and_evaluation_leave_the_mapping_unread(self, tmp_path):
        # The sidecar is read with positional reads only: loading, training
        # and routing map none of its 12.1 MB.
        write_corpus(tmp_path, _random_examples(300, seed=5))
        loaded = load_corpus(tmp_path)
        one = load_example(tmp_path, loaded[7].id)
        params = train(loaded[:250], loaded[250:], TrainConfig(), DEFAULT_PATH_COSTS).params
        route_split(params, [*loaded, one], DEFAULT_PATH_COSTS)
        assert _mapping_count((tmp_path / "embeddings.bin").resolve()) == 0

    def test_rows_come_from_the_file_that_was_loaded(self, tmp_path):
        old, new = _random_examples(64, seed=6), _random_examples(64, seed=7)
        write_corpus(tmp_path / "kept", old)
        write_corpus(tmp_path / "replaced", old)
        kept, replaced = load_corpus(tmp_path / "kept"), load_corpus(tmp_path / "replaced")
        write_corpus(tmp_path / "replaced", new)  # same size, other rows
        assert _sidecar_matrix(tmp_path / "replaced")[0].tobytes() != \
            _sidecar_matrix(tmp_path / "kept")[0].tobytes()
        cfg = TrainConfig(epochs=2)
        a = train(kept[:48], kept[48:], cfg, DEFAULT_PATH_COSTS)
        b = train(replaced[:48], replaced[48:], cfg, DEFAULT_PATH_COSTS)
        assert a.history == b.history and a.val_metrics == b.val_metrics
        assert pack_parameters(a.params).tobytes() == pack_parameters(b.params).tobytes()
