import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import THREAD_VARS  # noqa: E402

os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
