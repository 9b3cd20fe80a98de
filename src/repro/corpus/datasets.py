"""Dataset presets calibrated to the paper's Table 3, at laptop scale.

The paper's corpora:

========================  ======  ======  =====  ====
Dataset                   D       T       V      T/D
========================  ======  ======  =====  ====
NYTimes                   300K    100M    102K   332
PubMed                    8.2M    738M    141K   90
ClueWeb12 (subset)        38M     14B     1M     367
ClueWeb12                 639M    236B    1M     378
========================  ======  ======  =====  ====

Pure Python cannot sweep hundreds of millions of documents, so each preset
keeps the *shape* of its dataset — the tokens-per-document ratio and the
relative vocabulary richness — at a configurable ``scale``.  ``scale=1.0``
corresponds to the default laptop-sized stand-in (documented per preset);
the full-size numbers are retained in :attr:`DatasetPreset.paper_statistics`
so the Table 3 bench can print both side by side.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Dict, Optional, Tuple, Union

from repro.corpus.corpus import Corpus
from repro.corpus.synthetic import (
    SyntheticCorpusSpec,
    generate_lda_corpus,
    generate_zipf_corpus,
)
from repro.sampling.rng import RngLike

__all__ = [
    "DATASET_PRESETS",
    "DatasetPreset",
    "RemoteFile",
    "UCI_DATASETS",
    "UCIDataset",
    "data_dir",
    "fetch_remote",
    "fetch_uci_dataset",
    "load_preset",
    "load_uci_dataset",
    "uci_dataset_store",
]


@dataclass(frozen=True)
class DatasetPreset:
    """A named synthetic stand-in for one of the paper's corpora.

    Attributes
    ----------
    name:
        Preset key, e.g. ``"nytimes_like"``.
    paper_statistics:
        The Table 3 row of the real dataset (D, T, V, T/D).
    base_documents / base_vocabulary / mean_document_length / num_topics:
        Scale-1.0 generation parameters.  ``mean_document_length`` matches the
        real dataset's T/D; documents and vocabulary are scaled down together
        so the D:V ratio is preserved.
    generator:
        ``"lda"`` (topical structure, for convergence runs) or ``"zipf"``
        (frequency skew only, for partitioning / cache runs).
    """

    name: str
    paper_statistics: Dict[str, float]
    base_documents: int
    base_vocabulary: int
    mean_document_length: int
    num_topics: int
    generator: str = "lda"
    zipf_exponent: float = 1.07

    def spec(self, scale: float = 1.0) -> SyntheticCorpusSpec:
        """Return the :class:`SyntheticCorpusSpec` for the given scale."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        return SyntheticCorpusSpec(
            num_documents=max(2, int(round(self.base_documents * scale))),
            vocabulary_size=max(10, int(round(self.base_vocabulary * scale))),
            mean_document_length=self.mean_document_length,
            num_topics=self.num_topics,
            zipf_exponent=self.zipf_exponent,
        )

    def generate(self, scale: float = 1.0, seed: RngLike = None) -> Corpus:
        """Generate the corpus for this preset at the given scale."""
        spec = self.spec(scale)
        if self.generator == "lda":
            return generate_lda_corpus(spec, seed=seed)
        if self.generator == "zipf":
            return generate_zipf_corpus(spec, seed=seed)
        raise ValueError(f"unknown generator {self.generator!r}")


DATASET_PRESETS: Dict[str, DatasetPreset] = {
    "nytimes_like": DatasetPreset(
        name="nytimes_like",
        paper_statistics={"D": 300_000, "T": 100_000_000, "V": 102_000, "T/D": 332},
        base_documents=600,
        base_vocabulary=2_000,
        mean_document_length=332,
        num_topics=50,
    ),
    "pubmed_like": DatasetPreset(
        name="pubmed_like",
        paper_statistics={"D": 8_200_000, "T": 738_000_000, "V": 141_000, "T/D": 90},
        base_documents=2_000,
        base_vocabulary=3_000,
        mean_document_length=90,
        num_topics=50,
    ),
    "clueweb_like": DatasetPreset(
        name="clueweb_like",
        paper_statistics={"D": 639_000_000, "T": 236_000_000_000, "V": 1_000_000, "T/D": 378},
        base_documents=1_000,
        base_vocabulary=5_000,
        mean_document_length=378,
        num_topics=100,
        generator="zipf",
    ),
    "clueweb_subset_like": DatasetPreset(
        name="clueweb_subset_like",
        paper_statistics={"D": 38_000_000, "T": 14_000_000_000, "V": 1_000_000, "T/D": 367},
        base_documents=800,
        base_vocabulary=4_000,
        mean_document_length=367,
        num_topics=100,
        generator="zipf",
    ),
}


def load_preset(name: str, scale: float = 1.0, seed: RngLike = None) -> Corpus:
    """Generate the corpus for preset ``name`` at ``scale``.

    Raises
    ------
    KeyError
        If ``name`` is not a known preset.
    """
    try:
        preset = DATASET_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(DATASET_PRESETS))
        raise KeyError(f"unknown dataset preset {name!r}; known presets: {known}") from None
    return preset.generate(scale=scale, seed=seed)


# --------------------------------------------------------------------- #
# Real UCI datasets: cached, checksummed downloads
# --------------------------------------------------------------------- #
#: Environment variable overriding the download cache root.
DATA_DIR_ENV = "REPRO_DATA_DIR"

#: A callable opening a URL and returning a readable binary stream — the
#: injection point the offline tests use in place of ``urllib``.
Opener = Callable[[str], BinaryIO]

_DOWNLOAD_CHUNK = 1 << 20


def data_dir() -> Path:
    """The dataset cache root: ``$REPRO_DATA_DIR`` or ``~/.cache/repro``.

    Resolved at call time, so tests (and batch jobs redirecting large
    downloads to scratch space) can point it anywhere via the environment.
    """
    override = os.environ.get(DATA_DIR_ENV)
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro").expanduser()


@dataclass(frozen=True)
class RemoteFile:
    """One cacheable download.

    ``sha256`` pins the expected digest when known.  The UCI repository
    publishes no digests, so the bundled datasets leave it ``None`` and the
    cache falls back to trust-on-first-use: the digest observed at download
    time is recorded in a ``<filename>.sha256`` sidecar and every later
    cache hit is re-verified against it — a truncated or partially written
    file is detected and re-fetched instead of silently parsed.
    """

    filename: str
    url: str
    sha256: Optional[str] = None


@dataclass(frozen=True)
class UCIDataset:
    """One UCI bag-of-words dataset: the docword file plus its vocabulary."""

    name: str
    docword: RemoteFile
    vocab: RemoteFile


_UCI_BASE = (
    "https://archive.ics.uci.edu/ml/machine-learning-databases/bag-of-words/"
)

#: The paper's single-machine corpora (Table 3), as distributed by UCI.
UCI_DATASETS: Dict[str, UCIDataset] = {
    "nytimes": UCIDataset(
        name="nytimes",
        docword=RemoteFile(
            "docword.nytimes.txt.gz", _UCI_BASE + "docword.nytimes.txt.gz"
        ),
        vocab=RemoteFile("vocab.nytimes.txt", _UCI_BASE + "vocab.nytimes.txt"),
    ),
    "pubmed": UCIDataset(
        name="pubmed",
        docword=RemoteFile(
            "docword.pubmed.txt.gz", _UCI_BASE + "docword.pubmed.txt.gz"
        ),
        vocab=RemoteFile("vocab.pubmed.txt", _UCI_BASE + "vocab.pubmed.txt"),
    ),
}


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(_DOWNLOAD_CHUNK), b""):
            digest.update(block)
    return digest.hexdigest()


def _default_opener(url: str) -> BinaryIO:
    import urllib.request

    return urllib.request.urlopen(url, timeout=60)  # noqa: S310 - https only


def fetch_remote(
    remote: RemoteFile,
    directory: Optional[Union[str, Path]] = None,
    *,
    opener: Optional[Opener] = None,
    force: bool = False,
) -> Path:
    """Download ``remote`` into the cache (or verify the cached copy).

    The download streams to ``<filename>.part`` and is renamed into place
    only after the checksum is settled, so a crash mid-download never leaves
    a file the next run would mistake for complete; a stale ``.part`` from
    such a crash is simply overwritten.  A cached file that fails
    verification (pinned ``sha256`` or the trust-on-first-use sidecar) is
    re-downloaded, not trusted.

    Parameters
    ----------
    remote:
        What to fetch.
    directory:
        Cache directory (default :func:`data_dir`).
    opener:
        URL opener returning a binary stream; injectable for offline tests.
    force:
        Re-download even if the cached copy verifies.
    """
    directory = Path(directory) if directory is not None else data_dir()
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / remote.filename
    sidecar = directory / (remote.filename + ".sha256")

    if target.exists() and not force:
        observed = _sha256_file(target)
        expected = remote.sha256
        if expected is None and sidecar.exists():
            expected = sidecar.read_text(encoding="utf-8").strip() or None
        if expected is None:
            # Manually placed file with no record: adopt it (trust on first
            # use) so offline-populated caches work without a network.
            sidecar.write_text(observed + "\n", encoding="utf-8")
            return target
        if observed == expected:
            return target
        # Stale or partial: fall through to a fresh download.

    if opener is None:
        opener = _default_opener
    part = directory / (remote.filename + ".part")
    digest = hashlib.sha256()
    try:
        with opener(remote.url) as source, open(part, "wb") as sink:
            for block in iter(lambda: source.read(_DOWNLOAD_CHUNK), b""):
                digest.update(block)
                sink.write(block)
    except OSError as exc:
        if part.exists():
            part.unlink()
        raise OSError(
            f"failed to download {remote.url}: {exc}; for offline use, place "
            f"the file at {target} yourself (cache root overridable via "
            f"${DATA_DIR_ENV})"
        ) from exc
    observed = digest.hexdigest()
    if remote.sha256 is not None and observed != remote.sha256:
        part.unlink()
        raise ValueError(
            f"{remote.url}: checksum mismatch (expected {remote.sha256}, "
            f"got {observed}) — refusing to cache a corrupt download"
        )
    os.replace(part, target)
    sidecar.write_text(observed + "\n", encoding="utf-8")
    return target


def _uci_dataset(name: str) -> UCIDataset:
    try:
        return UCI_DATASETS[name]
    except KeyError:
        known = ", ".join(sorted(UCI_DATASETS))
        raise KeyError(
            f"unknown UCI dataset {name!r}; known datasets: {known}"
        ) from None


def fetch_uci_dataset(
    name: str,
    directory: Optional[Union[str, Path]] = None,
    *,
    opener: Optional[Opener] = None,
    force: bool = False,
) -> Tuple[Path, Path]:
    """Fetch (or verify) one UCI dataset; returns ``(docword, vocab)`` paths."""
    dataset = _uci_dataset(name)
    docword = fetch_remote(dataset.docword, directory, opener=opener, force=force)
    vocab = fetch_remote(dataset.vocab, directory, opener=opener, force=force)
    return docword, vocab


def load_uci_dataset(
    name: str,
    directory: Optional[Union[str, Path]] = None,
    max_documents: Optional[int] = None,
    *,
    opener: Optional[Opener] = None,
) -> Corpus:
    """Fetch and parse one UCI dataset into an in-RAM :class:`Corpus`.

    For the full-size corpora prefer :func:`uci_dataset_store`, which never
    materialises the token array.
    """
    from repro.corpus.uci import read_uci_bow

    docword, vocab = fetch_uci_dataset(name, directory, opener=opener)
    return read_uci_bow(docword, vocab, max_documents=max_documents)


def uci_dataset_store(
    name: str,
    directory: Optional[Union[str, Path]] = None,
    max_documents: Optional[int] = None,
    *,
    opener: Optional[Opener] = None,
    overwrite: bool = False,
) -> Path:
    """Fetch one UCI dataset and convert it to an on-disk corpus store.

    The store lands under ``<cache>/stores/<name>`` (suffixed with the
    document cap when one is given) and is reused on later calls, so the
    conversion — like the download — happens once per cache.  Returns the
    store directory, ready for
    :func:`repro.corpus.store.open_store` or ``--corpus-store``.
    """
    from repro.corpus.store import MANIFEST_NAME
    from repro.corpus.uci import uci_to_store

    directory = Path(directory) if directory is not None else data_dir()
    suffix = "" if max_documents is None else f"-first{max_documents}"
    store_dir = directory / "stores" / (name + suffix)
    if (store_dir / MANIFEST_NAME).exists() and not overwrite:
        return store_dir
    docword, vocab = fetch_uci_dataset(name, directory, opener=opener)
    if store_dir.exists():
        shutil.rmtree(store_dir)
    uci_to_store(
        docword, store_dir, vocab, max_documents=max_documents, overwrite=True
    )
    return store_dir
