"""The README's Quick start and Library use blocks run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import scafd

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(section: str, lang: str) -> str:
    """The first ```lang fenced block under the ``## section`` heading."""
    text = README.read_text()
    start = text.index(f"\n## {section}\n")
    match = re.compile(rf"^```{lang}\n(.*?)^```$", re.M | re.S).search(text, start)
    assert match is not None, f"no {lang} block under {section}"
    return match.group(1)


def test_readme_quick_start_and_library_use_run(tmp_path):
    src_dir = Path(scafd.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src_dir), os.environ.get("PYTHONPATH")]))}
    # `scafd` is the package's console script; run it as `python -m scafd`
    shell = f'set -e\nscafd() {{ "{sys.executable}" -m scafd "$@"; }}\n'
    script = tmp_path / "quick_start.sh"
    script.write_text(shell + _block("Quick start", "sh"))
    result = subprocess.run(["sh", str(script)], cwd=tmp_path, env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "bench_out" / "metrics.csv").exists()

    result = subprocess.run([sys.executable, "-c", _block("Library use", "python")],
                            cwd=tmp_path, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
