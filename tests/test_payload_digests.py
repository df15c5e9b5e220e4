"""The determinism contract as a test: every command's payload and the
direct fits digest to the lines of ``payload_digests.txt``.

``tools/payload_digests.py`` prints the digests.  The test runs it in a
child process with numpy's dispatch held to its baseline by the file's
``NPY_DISABLE_CPU_FEATURES``, and compares its output line by line with
the file.  A change that moves a payload on purpose regenerates the file
in the same commit, from the root of the checkout:

    NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR" python tools/payload_digests.py

and keeps its ``# key = value`` header, which states what the digests
depend on besides the code.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_baseline__

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("payload_digests.txt")


def read_golden():
    """The file's header as a dict and its digest lines."""
    header, lines = {}, []
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            header[key.strip()] = value.strip()
        else:
            lines.append(line)
    return header, lines


def test_payloads_match_the_golden_digests():
    header, expected = read_golden()
    here = {"numpy": np.__version__, "machine": platform.machine(),
            "cpu_baseline": " ".join(__cpu_baseline__)}
    differs = [f"{key} is {value}, the file's {header[key]}"
               for key, value in here.items() if header[key] != value]
    if differs:
        pytest.skip("the digests were made elsewhere: " + "; ".join(differs))
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": header["NPY_DISABLE_CPU_FEATURES"]}
    run = subprocess.run([sys.executable, "tools/payload_digests.py"], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == expected
