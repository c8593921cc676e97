#!/usr/bin/env python3
"""Re-run the README mutation table.

    python3 tools/mutants.py

Each mutant is one source edit that removes one mechanism of the attacks
or of the model pool: an exact text replacement that must match once in
its file. For each of the seven mutants, the script extracts a fresh
``git archive`` copy of HEAD into a temporary directory, applies the edit
there and runs tier-1 in that copy, one run at a time, without the test of
tests/test_mutants.py that checks this edit still applies. It prints one
row per mutant: the failing tests, the acceptance criteria among them, and the
headline numbers that criteria 8 and 10 print (transfer TR-ASR and alpha of
saaet, dra and sga). The checkout it runs from is never modified, and the
copies are deleted afterwards.

Run it from inside the repository. It is not part of tier-1: each mutant
costs one full tier-1 run, about a minute on a 2-vCPU host.
"""
from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


@dataclass(frozen=True)
class Mutant:
    name: str
    mechanism: str
    path: str
    old: str
    new: str


MUTANTS = (
    Mutant(
        "triangle",
        "every triangle sample replaced by the current image",
        "src/aetlab/image_attack.py",
        "np.multiply(lam, x, out=samples)\n"
        "            samples += np.multiply(beta, prev, out=term)\n"
        "            samples += np.multiply(gamma, cur, out=term)\n",
        "samples[:] = cur\n",
    ),
    Mutant(
        "selection",
        "text-guided selection always returns index 0",
        "src/aetlab/image_attack.py",
        "return sims.index(min(sims))",
        "return 0",
    ),
    Mutant(
        "region",
        "sub-triangle region ignored (always region A)",
        "src/aetlab/image_attack.py",
        "sample_sub_triangle(n_rows, rng, cfg.region)",
        'sample_sub_triangle(n_rows, rng, "A")',
    ),
    Mutant(
        "caption",
        "caption scored against the final image only",
        "src/aetlab/text_attack.py",
        "for emb in (clean_emb, prev_emb, cur_emb)]",
        "for emb in (cur_emb,) * 3]",
    ),
    Mutant(
        "scale",
        "sign step at scale 1.0 only",
        "src/aetlab/image_attack.py",
        "g = grad_loss_wrt_image(loss, at, cfg.scales[0])\n"
        "    for scale in cfg.scales[1:]:\n"
        "        g = np.add(g, grad_loss_wrt_image(loss, at, scale), out=buf)\n",
        "g = grad_loss_wrt_image(loss, at, 1.0)\n",
    ),
    Mutant(
        "projector",
        "projector dropped in attack_pairs",
        "src/aetlab/harness.py",
        "surrogate_projector(ds, surrogate, cfg, stream) if use_projector else None",
        "surrogate_projector(ds, surrogate, cfg, stream) if False else None",
    ),
    Mutant(
        "pool",
        "pool noise not confined to the non-semantic directions",
        "src/aetlab/harness.py",
        "nonsem = np.eye(base.text.embed_dim) - semantic",
        "nonsem = np.eye(base.text.embed_dim)",
    ),
)


def extract(dest: Path) -> None:
    """The tree of HEAD, from git archive, under dest."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", "HEAD"], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def apply(mutant: Mutant, tree: Path) -> None:
    """Apply the mutant's edit in tree; an edit that does not match exactly
    once has gone stale against the code and raises ValueError."""
    path = tree / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: edit matches {text.count(mutant.old)} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def run_tier1(tree: Path, mutant: Mutant) -> dict:
    """Failing test ids, test count, failing criteria and headline numbers
    of one tier-1 run in tree. The mutant's own entry of
    tests/test_mutants.py, which checks that its edit is not yet applied,
    is deselected: in tree it is applied, so that test can only fail."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    own = f"tests/test_mutants.py::test_edit_matches_once_in_the_source[{mutant.name}]"
    out = subprocess.run(
        [sys.executable, *TIER1, "--deselect", own],
        cwd=tree, env=env, capture_output=True, text=True,
    ).stdout
    failed = sorted({m.group(1) for m in re.finditer(r"^(?:FAILED|ERROR) (\S+)", out, re.M)})
    summary = out.splitlines()[-1] if out else ""
    total = sum(int(n) for n in re.findall(r"(\d+) (?:passed|failed|errors?)\b", summary))
    criteria = sorted(int(n) for n in re.findall(r"^\[ACCEPTANCE\s+(\d+)\] .*: FAIL", out, re.M))
    asr = re.search(r"saaet ([\d.]+) >= dra ([\d.]+) >= sga ([\d.]+)", out)
    alpha = re.search(r"alpha saaet ([-\d.]+), dra ([-\d.]+), sga ([-\d.]+)", out)
    return {
        "failed": failed,
        "total": total,
        "criteria": criteria,
        "tr_asr": " / ".join(asr.groups()) if asr else "not printed",
        "alpha": " / ".join(alpha.groups()) if alpha else "not printed",
    }


def main() -> int:
    rows = []
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant.name}-") as tmp:
            tree = Path(tmp)
            extract(tree)
            apply(mutant, tree)
            result = run_tier1(tree, mutant)
        rows.append((mutant, result))
        print(f"{mutant.name}: {len(result['failed'])} of {result['total']} failed", flush=True)
        for test in result["failed"]:
            print(f"    {test}", flush=True)
    print("\n| mechanism removed (scratch edit) | tier-1 failures | criteria failing "
          "| TR-ASR saaet / dra / sga | alpha saaet / dra / sga |")
    print("| --- | --- | --- | --- | --- |")
    for mutant, r in rows:
        criteria = ", ".join(map(str, r["criteria"])) or "none"
        print(f"| {mutant.mechanism} | {len(r['failed'])} of {r['total']} | {criteria} "
              f"| {r['tr_asr']} | {r['alpha']} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
