#!/usr/bin/env python3
"""Time one pipeline-run over a generated corpus of N pairs.

Generates an N-pair corpus with ``perfbench/gen.py`` (the prep workload's
gazetteer linker and all 7 methods) in a temporary directory, runs
``pipeline-run`` on it in a fresh Python process, and prints for that run:
wall time, CPU time of the run's process and of its child processes, and
peak RSS of the run's process and, separately, of its largest child,
and the sha256 of the run's ``stage_manifest.json``. ``pipeline-run``
aligns the reverse direction in a forked child, so the memory the run
holds at once is at most the two peaks added. The manifest hashes every
artifact, so two checkouts made the same files at N pairs when their
probes print the same sha256. Nothing is kept and nothing under
``perfbench/`` is written.

Usage: python scripts/scale_probe.py N [SEED]
"""

import hashlib
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METHODS = ["baseline", "tag", "add", "trans", "transa", "transr", "hypa"]


def measure(config: str, workdir: str) -> None:
    """Run pipeline-run in this process and print its usage as JSON."""
    sys.path.insert(0, str(ROOT / "src"))
    from tagcopy import cli

    t0 = time.perf_counter()
    code = cli.main(["pipeline-run", "--config", config, "--workdir", workdir])
    wall = time.perf_counter() - t0
    usage = {}
    for name, who in (("self", resource.RUSAGE_SELF), ("children", resource.RUSAGE_CHILDREN)):
        r = resource.getrusage(who)
        usage[name] = {"cpu_s": r.ru_utime + r.ru_stime, "peak_rss_mb": r.ru_maxrss / 1024.0}
    print(json.dumps({"exit": code, "wall_s": wall, **usage}))


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--measure":
        measure(argv[1], argv[2])
        return 0
    if not 1 <= len(argv) <= 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    pairs, seed = int(argv[0]), int(argv[1]) if len(argv) == 2 else 7
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen

    with tempfile.TemporaryDirectory(prefix="scale-probe-") as tmp:
        fx = Path(tmp)
        gaz = gen.make_gazetteer(f"{seed}:gazetteer")
        gen.write_gazetteer(fx, gaz)
        spec = gen.CorpusSpec(pairs=pairs, empty_share=0.01)
        gen.write_corpus(fx, "train", gen.make_corpus(spec, f"{seed}:prep", gaz))
        config = fx / "config.yaml"
        config.write_text(json.dumps({  # JSON is YAML
            "src": str(fx / "train.src"), "tgt": str(fx / "train.tgt"),
            "workdir": str(fx / "out"), "seed": seed,
            "linker": {"mode": "gazetteer", "gazetteer": str(fx / "gazetteer.tsv")},
            "tagging": {"methods": METHODS, "vocab": "special"},
        }), encoding="utf-8")
        run = subprocess.run(
            [sys.executable, __file__, "--measure", str(config), str(fx / "out")],
            capture_output=True, text=True,
        )
        manifest = fx / "out" / "stage_manifest.json"  # read before the directory goes
        digest = hashlib.sha256(manifest.read_bytes()).hexdigest() if manifest.exists() else ""
    result = json.loads(run.stdout.splitlines()[-1]) if run.returncode == 0 else {}
    if result.get("exit") != 0:
        print(run.stderr, end="", file=sys.stderr)
        return 1
    me, kids = result["self"], result["children"]
    print(f"pairs {pairs}, seed {seed}")
    print(f"wall_s        {result['wall_s']:8.2f}")
    print(f"cpu_s         {me['cpu_s']:8.2f} self  {kids['cpu_s']:8.2f} children")
    print(f"peak_rss_mb   {me['peak_rss_mb']:8.1f} self  {kids['peak_rss_mb']:8.1f} children")
    print(f"manifest      sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
