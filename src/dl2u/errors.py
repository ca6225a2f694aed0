"""Exception hierarchy shared across the toolkit.

Exit-code mapping used by the CLI: usage errors exit 2 (argparse),
DomainError exits 3, NumericOverflowError exits 4, VerificationError
exits 5.  `cli.main` also maps MemoryError to exit 3.  `cli._write` turns a
failed write (an `--out` path or stdout) into a DomainError; `main` writes its
error line through it too, and an unwritable stderr loses the line, not the code.
"""


class DomainError(ValueError):
    """Parameter combination outside the model's admissible domain."""


class NumericOverflowError(ArithmeticError):
    """A quantity left the representable range even after log-space rescaling."""


class VerificationError(RuntimeError):
    """One or more oracle checks failed."""
