"""Fingerprint the bytes a modcap tree produces, or compare two trees.

    python tools/fingerprint.py --out F.json
    python tools/fingerprint.py --against main

Builds each artifact of a fixed set with the tree's own sources, in a
temporary directory, and records its sha256:

* the seed-0 reference run (``modcap train --preset CNM#2 --lr 2e-3`` on
  the 500-scene seed-0 corpus): the checkpoint and its meta;
* the checkpoints and metas of the CI runs in .github/workflows/tier1.yml,
  on the 60-scene seed-1 corpus and a 40-scene 32-wide one, the
  three-unit ``CNM#3`` run among them;
* their ``eval`` reports (beam and ``--greedy``), captions (beam, greedy
  and ``--sample``) and forced and generated traces (JSON and SVG);
* ``modcap gradcheck --debug-finite`` stdout under PYTHONHASHSEED 0 and
  1, one artifact per case line (``gradcheck<seed>:<section>:<case>``).

A command that fails is an artifact of its own, whose value is its exit
status.  ``--out`` writes the name -> sha256 map of the working tree as
JSON.  ``--against REF`` builds the same set from the files of git
revision REF too (extracted with ``git archive``), side by side, lists
every artifact whose bytes differ, and exits 1 if any does.  A gradient
case that one tree adds or retires is listed but is not a difference.
Never compare with hashes recorded elsewhere: the bytes depend on the
BLAS build and the CPU, so only two trees built on one machine compare.

Exit status: 0 when the trees agree (or with --out alone), 1 when an
artifact differs, 2 when REF cannot be extracted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SMALL = ["--xe-epochs", "1", "--rl-epochs", "1", "--d-v", "8", "--d-a", "4", "--heads", "2",
         "--batch-size", "8"]
FEW_SHOT = ["--preset", "CNM#2", "--few-shot", "1", "--d-v", "8", "--d-a", "4", "--heads", "2",
            "--batch-size", "8"]
NARROW_CORPUS = """
import sys
from modcap.corpus import CorpusSpec, generate_corpus, save_corpus
save_corpus(generate_corpus(CorpusSpec(n_scenes=40, seed=1, d_r=32)), sys.argv[1])
"""


class BuildError(Exception):
    pass


class Build:
    """Runs modcap commands of one tree in one work directory and hashes
    what they write."""

    def __init__(self, tree: Path, work: Path):
        self.tree, self.work = tree, work
        self.hashes: dict[str, str] = {}
        self.env = {k: v for k, v in os.environ.items() if k != "CNM_SEED"}
        self.env.update(PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0",
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

    def python(self, label: str, *args: str, hashseed: str = "0") -> bytes:
        """The stdout of ``python args``; a command that fails is an artifact
        of its own, ``failed: <label>``, whose value is its exit status."""
        done = subprocess.run([sys.executable, *args], cwd=self.work, capture_output=True,
                              env={**self.env, "PYTHONHASHSEED": hashseed})
        if done.returncode != 0:
            self.hashes[f"failed: {label}"] = f"exit {done.returncode}"
        return done.stdout

    def modcap(self, *args: str, hashseed: str = "0") -> bytes:
        return self.python("modcap " + " ".join(args), "-c",
                           "import sys; from modcap.cli import main; sys.exit(main())",
                           *args, hashseed=hashseed)

    def record(self, name: str, data: bytes) -> None:
        self.hashes[name] = hashlib.sha256(data).hexdigest()

    def files(self, *paths: str) -> None:
        for path in paths:
            if (self.work / path).exists():
                self.record(path, (self.work / path).read_bytes())
            else:
                self.hashes[path] = "missing"

    def stdout(self, name: str, *args: str) -> None:
        self.record(name, self.modcap(*args))

    def checkpoint(self, name: str, data: str, *train_args: str) -> None:
        self.modcap("train", "--data", data, "--out", f"{name}.bin", *train_args)
        self.files(f"{name}.bin", f"{name}.bin.meta.json")

    def decodes(self, name: str, data: str, *, captions: bool = False,
                svg: bool = False) -> None:
        ckpt = ["--checkpoint", f"{name}.bin", "--data", data]
        self.stdout(f"{name}.eval", "eval", *ckpt)
        self.stdout(f"{name}.eval-greedy", "eval", *ckpt, "--greedy")
        if captions:
            self.stdout(f"{name}.caption-sample", "caption", *ckpt, "--sample")
            self.stdout(f"{name}.caption-greedy", "caption", *ckpt, "--scene", "0", "--greedy")
            self.stdout(f"{name}.caption-beam", "caption", *ckpt, "--scene", "0")
        self.modcap("trace", *ckpt, "--scene", "0", "--out", f"{name}-forced.json")
        self.modcap("trace", *ckpt, "--scene", "0", "--generated",
                    "--out", f"{name}-generated.json",
                    *(["--svg", f"{name}-generated.svg"] if svg else []))
        self.files(f"{name}-forced.json", f"{name}-generated.json",
                   *([f"{name}-generated.svg"] if svg else []))

    def run(self) -> dict[str, str]:
        self.modcap("corpus", "--out", "seed0", "--seed", "0")
        self.checkpoint("reference", "seed0", "--preset", "CNM#2", "--lr", "2e-3")
        self.modcap("corpus", "--out", "seed1", "--scenes", "60", "--seed", "1")
        self.checkpoint("hl", "seed1", "--preset", "Col/H+L", *SMALL)
        self.decodes("hl", "seed1", captions=True, svg=True)
        self.modcap("train", "--data", "seed1", "--out", "col1.bin", "--preset", "Col/1",
                    *SMALL, "--max-epochs", "1")
        self.checkpoint("col1", "seed1", "--preset", "Col/1", *SMALL, "--resume")
        self.decodes("col1", "seed1")
        self.checkpoint("obj", "seed1", "--preset", "Module/O#2", *SMALL)
        self.decodes("obj", "seed1")
        self.checkpoint("cnm3", "seed1", "--preset", "CNM#3", "--xe-epochs", "1",
                        "--rl-epochs", "1", "--d-v", "8", "--d-a", "4", "--heads", "2")
        self.decodes("cnm3", "seed1")
        self.checkpoint("fs", "seed1", *FEW_SHOT, "--xe-epochs", "3", "--rl-epochs", "0")
        self.checkpoint("fsrl", "seed1", *FEW_SHOT, "--xe-epochs", "1", "--rl-epochs", "1")
        self.python("narrow corpus", "-c", NARROW_CORPUS, "narrow")
        self.checkpoint("narrow", "narrow", *SMALL)
        self.decodes("narrow", "narrow")
        for seed in ("0", "1"):
            # every line but the last, the pass count, checks one case
            out = self.modcap("gradcheck", "--debug-finite", hashseed=seed)
            for line in out.decode().splitlines()[:-1]:
                _, section, case = line.split()[:3]
                self.record(f"gradcheck{seed}:{section}:{case}", line.encode())
        return self.hashes


def build(tree: Path) -> dict[str, str]:
    with tempfile.TemporaryDirectory(prefix="fingerprint-") as work:
        return Build(tree, Path(work)).run()


def build_revision(ref: str) -> dict[str, str]:
    """The artifacts of the files of git revision ``ref``."""
    with tempfile.TemporaryDirectory(prefix="fingerprint-tree-") as tree:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                                 capture_output=True)
        if archive.returncode != 0:
            raise BuildError(f"git archive {ref}: {archive.stderr.decode(errors='replace')}")
        subprocess.run(["tar", "-x", "-C", tree], input=archive.stdout, check=True)
        return build(Path(tree))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Fingerprint the bytes a modcap tree produces.")
    p.add_argument("--out", help="write the working tree's name -> sha256 map here")
    p.add_argument("--against", metavar="REF",
                   help="also build git revision REF and list the artifacts that differ")
    args = p.parse_args(argv)
    if args.out is None and args.against is None:
        p.error("give --out, --against or both")
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            here = pool.submit(build, ROOT)
            there = pool.submit(build_revision, args.against) if args.against else None
            ours, theirs = here.result(), there.result() if there else None
    except BuildError as exc:
        print(f"fingerprint: {exc}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(json.dumps(ours, indent=1, sort_keys=True) + "\n")
    if theirs is None:
        return 0
    # a gradient case may be added or retired; any other artifact of one
    # tree alone is a failed command, a difference
    for name in sorted(ours.keys() - theirs.keys()):
        print(f"only here: {name}")
    for name in sorted(theirs.keys() - ours.keys()):
        print(f"only in {args.against}: {name}")
    names = ours.keys() | theirs.keys()
    differ = sorted(name for name in names if ours.get(name) != theirs.get(name)
                    and not (name.startswith("gradcheck") and name in ours.keys() ^ theirs.keys()))
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(names) - len(differ)} of {len(names)} artifacts agree with {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
