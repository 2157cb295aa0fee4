"""ADM physical record format (the paper's open/closed baseline)."""

from .encoder import ADMEncoder
from .decoder import ADMRecordView

__all__ = ["ADMEncoder", "ADMRecordView"]
