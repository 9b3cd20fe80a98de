"""``python -m repro`` subcommands: train, stream, serve, eval."""

from __future__ import annotations

import pytest

from repro.api import LDA, ModelSpec
from repro.api.cli import build_parser, build_spec, main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


SYNTH = ["--synthetic", "--docs", "40", "--vocab-size", "80", "--doc-length", "20"]


class TestSpecResolution:
    def test_flags_build_a_spec(self):
        parser = build_parser()
        args = parser.parse_args(
            ["train", *SYNTH, "--topics", "7", "--algorithm", "cgs", "--seed", "3"]
        )
        spec = build_spec(args)
        assert spec == ModelSpec(num_topics=7, algorithm="cgs", seed=3)

    def test_spec_file_plus_overrides(self, tmp_path):
        path = ModelSpec(num_topics=9, algorithm="lightlda", seed=1).save(
            tmp_path / "spec.json"
        )
        parser = build_parser()
        args = parser.parse_args(
            ["train", *SYNTH, "--spec", str(path), "--topics", "4"]
        )
        spec = build_spec(args)
        assert spec.num_topics == 4  # flag wins
        assert spec.algorithm == "lightlda"  # file survives
        assert spec.seed == 1

    def test_backend_switch_drops_stale_options(self, tmp_path):
        path = ModelSpec(
            backend="parallel", backend_options={"num_workers": 4, "backend": "inline"}
        ).save(tmp_path / "spec.json")
        parser = build_parser()
        args = parser.parse_args(
            ["train", *SYNTH, "--spec", str(path), "--backend", "serial"]
        )
        assert build_spec(args).backend_options == {}

    def test_wrong_backend_flag_rejected(self):
        parser = build_parser()
        args = parser.parse_args(["train", *SYNTH, "--window-docs", "32"])
        with pytest.raises(SystemExit, match="online"):
            build_spec(args)

    def test_spec_out_writes_resolved_spec(self, tmp_path, capsys):
        out = tmp_path / "resolved.json"
        code, _ = _run(
            capsys,
            "train", *SYNTH, "--topics", "4", "--iterations", "1",
            "--seed", "0", "--spec-out", str(out),
        )
        assert code == 0
        assert ModelSpec.load(out).num_topics == 4


class TestTrain:
    def test_serial_train_writes_snapshot(self, tmp_path, capsys):
        snapshot_path = tmp_path / "model.npz"
        code, out = _run(
            capsys,
            "train", *SYNTH, "--topics", "5", "--iterations", "2",
            "--seed", "0", "--snapshot-out", str(snapshot_path),
        )
        assert code == 0
        assert "training warplda (K=5, backend=serial)" in out
        assert "log_likelihood" in out
        loaded = LDA.load(snapshot_path)
        assert loaded.spec.num_topics == 5
        assert loaded.spec.seed == 0

    def test_parallel_train_inline(self, capsys):
        code, out = _run(
            capsys,
            "train", *SYNTH, "--topics", "4", "--iterations", "2", "--seed", "0",
            "--backend", "parallel", "--workers", "2",
            "--parallel-backend", "inline",
        )
        assert code == 0
        assert "backend=parallel" in out
        assert "2 epochs" in out

    def test_online_backend_redirects_to_stream(self, capsys):
        with pytest.raises(SystemExit, match="stream"):
            main(["train", *SYNTH, "--backend", "online"])


class TestStreamServeEval:
    def test_stream_serve_eval_round_trip(self, tmp_path, capsys):
        snapshot_path = tmp_path / "model.npz"
        registry_dir = tmp_path / "registry"
        code, out = _run(
            capsys,
            "stream", *SYNTH, "--topics", "4", "--seed", "0",
            "--batch-docs", "10", "--window-docs", "20", "--publish-every", "2",
            "--registry-dir", str(registry_dir),
            "--snapshot-out", str(snapshot_path),
        )
        assert code == 0
        assert "published v1" in out
        assert (registry_dir / "CURRENT").exists()

        queries = tmp_path / "queries.txt"
        queries.write_text("w1 w2 w3\nw4 w5\n\n", encoding="utf-8")
        code, out = _run(
            capsys, "serve", "--model", str(snapshot_path), "--input", str(queries)
        )
        assert code == 0
        assert "top topic" in out
        assert "requests" in out

        code, out = _run(
            capsys, "serve", "--registry-dir", str(registry_dir)
        )
        assert code == 0
        assert "topic   0" in out

        code, out = _run(
            capsys,
            "eval", "--model", str(snapshot_path), *SYNTH, "--corpus-seed", "1",
        )
        assert code == 0
        assert "held-out perplexity" in out

    def test_serve_needs_exactly_one_source(self, tmp_path):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["serve"])
        with pytest.raises(SystemExit, match="exactly one"):
            main(
                ["serve", "--model", str(tmp_path / "x.npz"),
                 "--registry-dir", str(tmp_path)]
            )


PARALLEL = [
    "train", "--synthetic", "--docs", "24", "--vocab-size", "50",
    "--doc-length", "15", "--topics", "4", "--seed", "0",
    "--backend", "parallel", "--workers", "2", "--parallel-backend", "inline",
]


class TestCheckpointResume:
    """The checkpoint/resume door of ``python -m repro train --backend parallel``."""

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit, match="--checkpoint-dir"):
            main([*PARALLEL, "--resume"])

    def test_checkpoint_dir_requires_parallel_backend(self, tmp_path):
        with pytest.raises(SystemExit, match="'parallel' backend"):
            main(["train", *SYNTH, "--checkpoint-dir", str(tmp_path / "ckpt")])

    def test_train_writes_checkpoint_and_snapshot(self, tmp_path, capsys):
        code, out = _run(
            capsys,
            *PARALLEL, "--iterations", "2",
            "--checkpoint-dir", str(tmp_path / "ckpt"), "--checkpoint-every", "1",
            "--snapshot-out", str(tmp_path / "model.npz"),
        )
        assert code == 0
        assert (tmp_path / "ckpt" / "checkpoint.json").exists()
        assert LDA.load(tmp_path / "model.npz").spec.num_topics == 4
        assert "checkpoint written" in out

    def test_resume_continues_from_checkpoint(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        main([*PARALLEL, "--iterations", "2", "--checkpoint-dir", ckpt])
        code, out = _run(
            capsys, *PARALLEL, "--iterations", "1", "--checkpoint-dir", ckpt, "--resume"
        )
        assert code == 0
        assert "resumed warplda" in out
        assert "at epoch 2" in out
        from repro.training.checkpoint import Checkpoint

        assert Checkpoint.load(ckpt).epochs_completed == 3

    def test_resume_warns_about_ignored_model_flags(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        main([*PARALLEL, "--iterations", "1", "--checkpoint-dir", ckpt])
        code, out = _run(
            capsys,
            *PARALLEL, "--iterations", "1", "--checkpoint-dir", ckpt, "--resume",
            "--topics", "9", "--algorithm", "cgs",
        )
        assert code == 0
        assert "warning: --topics 9 ignored on resume" in out
        assert "warning: --algorithm cgs ignored on resume" in out
        assert "warning: --seed ignored on resume" in out
        assert "--workers" not in out  # same value as the checkpoint's: no warning

    def test_resumed_run_matches_straight_run(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        main([*PARALLEL, "--iterations", "4", "--snapshot-out", str(tmp_path / "straight.npz")])
        main([*PARALLEL, "--iterations", "2", "--checkpoint-dir", ckpt])
        main(
            [*PARALLEL, "--iterations", "2", "--checkpoint-dir", ckpt, "--resume",
             "--snapshot-out", str(tmp_path / "resumed.npz")]
        )
        capsys.readouterr()
        assert (tmp_path / "straight.npz").read_bytes() == (
            tmp_path / "resumed.npz"
        ).read_bytes()


class TestCorpusSources:
    def test_corpus_source_is_exclusive(self):
        with pytest.raises(SystemExit, match="exactly one corpus source"):
            main(["train", "--synthetic", "--preset", "nytimes_like"])
        with pytest.raises(SystemExit, match="exactly one corpus source"):
            main(["train"])

    def test_uci_corpus_source(self, tmp_path, capsys):
        from repro.corpus import SyntheticCorpusSpec, generate_lda_corpus, write_uci_bow

        corpus = generate_lda_corpus(
            SyntheticCorpusSpec(
                num_documents=15, vocabulary_size=30, mean_document_length=10
            ),
            seed=0,
        )
        write_uci_bow(corpus, tmp_path / "docword.txt")
        code, out = _run(
            capsys,
            "train", "--corpus", str(tmp_path / "docword.txt"), "--topics", "3",
            "--backend", "parallel", "--workers", "2", "--parallel-backend", "inline",
            "--iterations", "1", "--seed", "0",
        )
        assert code == 0
        assert "corpus: 15 documents" in out
