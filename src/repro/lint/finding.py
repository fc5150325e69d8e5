"""The :class:`Finding` record and its stable wire/fingerprint forms.

The JSON schema emitted for a finding is **stable** (CI annotations and
tooling consume it): ``file``, ``line``, ``col``, ``check``, ``message``,
``symbol``, ``subject``, ``suppressed``, ``baselined``, ``fingerprint``.
New keys may be added; existing keys never change meaning.

Fingerprints deliberately exclude line numbers: they hash the file, the
check id, the enclosing symbol and the finding's *subject* (the attribute
/ call / function the check fired on), so a baseline entry survives
unrelated edits that shift code up or down.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict

__all__ = ["Finding"]


@dataclass
class Finding:
    """One static-analysis diagnostic."""

    file: str
    line: int
    col: int
    check: str
    message: str
    #: Enclosing ``Class.function`` context ("" at module level).
    symbol: str = ""
    #: What the check fired on (attribute name, dotted call, cycle, ...).
    subject: str = ""
    suppressed: bool = False
    baselined: bool = False

    @property
    def fingerprint(self) -> str:
        """Line-independent identity used by the baseline file."""
        raw = "::".join((self.file, self.check, self.symbol, self.subject))
        return hashlib.sha1(raw.encode("utf-8")).hexdigest()[:16]

    @property
    def active(self) -> bool:
        """``True`` when the finding should fail the run."""
        return not (self.suppressed or self.baselined)

    def to_dict(self) -> Dict[str, object]:
        return {
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "check": self.check,
            "message": self.message,
            "symbol": self.symbol,
            "subject": self.subject,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
            "fingerprint": self.fingerprint,
        }

    def render(self) -> str:
        flags = ""
        if self.suppressed:
            flags = " [suppressed]"
        elif self.baselined:
            flags = " [baseline]"
        where = f" ({self.symbol})" if self.symbol else ""
        return f"{self.file}:{self.line}:{self.col}: [{self.check}] {self.message}{where}{flags}"

    def sort_key(self):
        return (self.file, self.line, self.col, self.check, self.subject)
