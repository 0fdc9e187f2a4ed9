"""Assembly-function similarity toolkit.

Functions are encoded as instruction grids (a few token embeddings plus a
position embedding per instruction), embedded by a siamese backbone, and
compared by cosine similarity for cross-optimization retrieval.
"""

__version__ = "0.1.0"

from .corpus import (
    OPT_LEVELS, CorpusIndex, FunctionRecord, load_dataset, make_pairs,
    save_dataset,
)
from .errors import AsmsimError, DataError, NumericError
from .evaluate import (
    DEFAULT_OPT_PAIRS, EvalReport, build_pool, evaluate_model, mrr, recall_at_k,
)
from .models import (
    BackboneConfig, build_backbone, load_checkpoint, save_checkpoint,
)
from .tokenizer import Vocabulary, build_vocab, encode_function
from .train import TrainConfig, train

__all__ = [
    "AsmsimError", "BackboneConfig", "CorpusIndex", "DEFAULT_OPT_PAIRS",
    "DataError", "EvalReport", "FunctionRecord", "NumericError", "OPT_LEVELS",
    "TrainConfig", "Vocabulary", "__version__", "build_backbone", "build_pool",
    "build_vocab", "encode_function", "evaluate_model",
    "load_checkpoint", "load_dataset", "make_pairs", "mrr", "recall_at_k",
    "save_checkpoint", "save_dataset", "train",
]
