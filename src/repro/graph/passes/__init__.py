"""Graph-level optimization passes (section 3.2 of the paper)."""

from .alter_layout import AlterOpLayout
from .fold_constants import FoldConstants
from .fusion import FuseOps
from .pass_manager import GraphPass, PassManager, PassRecord
from .simplify_inference import SimplifyInference
from .transform_elim import EliminateLayoutTransforms

__all__ = [
    "AlterOpLayout",
    "EliminateLayoutTransforms",
    "FoldConstants",
    "FuseOps",
    "GraphPass",
    "PassManager",
    "PassRecord",
    "SimplifyInference",
]
