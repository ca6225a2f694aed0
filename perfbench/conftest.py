import sys
from pathlib import Path

from run import single_thread_blas

# Same set-up as run.py: one BLAS thread, dl2u from the checkout's sources.
single_thread_blas()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
