"""LBTrust core: principals, says, schemes, delegation, the system runtime."""

from .principal import Principal
from .system import LBTrustSystem

__all__ = ["LBTrustSystem", "Principal"]
