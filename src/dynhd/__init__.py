"""Hyperdimensional classifier with dynamic encoder dimension regeneration.

Samples are encoded into D-dimensional hypervectors by seeded random
projections, classes are trained as bundled prototypes with
similarity-weighted updates, and underperforming encoder dimensions
(low-variance, misleading, or domain-sensitive ones) are periodically
redrawn and retrained without changing the model's size.
"""

from .analysis import (domain_variance, misleading_scores,
                       select_domain_variant, select_insignificant,
                       select_misleading, variance_over_classes)
from .data import (NormalizationStats, SyntheticSpec, apply_normalizer,
                   fit_normalizer, leave_one_domain_out, load_csv,
                   make_blobs, remap_labels, split, write_csv)
from .encoder import (encode, encode_batch, init_encoder, reencode_dims,
                      regenerate_dims)
from .inference import (cosine_similarity, perturb_model, score_queries,
                        topk_accuracy)
from .model import (REGEN_STRATEGIES, TRAIN_STRATEGIES, ClassModel, Dataset,
                    EncoderState, RegenPlan, ValidationReport,
                    load_model, save_model, validate_dataset)
from .rng import UniformStream
from .trainer import (EpochRecord, RoundRecord, TrainConfig, TrainReport,
                      domain_models, train)

__version__ = "0.1.0"

__all__ = [
    "ClassModel", "Dataset", "EncoderState", "EpochRecord",
    "NormalizationStats", "REGEN_STRATEGIES",
    "RegenPlan", "RoundRecord", "SyntheticSpec", "TRAIN_STRATEGIES",
    "TrainConfig", "TrainReport", "UniformStream", "ValidationReport",
    "apply_normalizer", "cosine_similarity",
    "domain_models", "domain_variance", "encode", "encode_batch",
    "fit_normalizer", "init_encoder",
    "leave_one_domain_out", "load_csv", "load_model",
    "make_blobs", "misleading_scores", "perturb_model", "reencode_dims",
    "regenerate_dims", "remap_labels", "save_model",
    "score_queries",
    "select_domain_variant", "select_insignificant", "select_misleading",
    "split", "topk_accuracy", "train", "validate_dataset",
    "variance_over_classes", "write_csv",
]
