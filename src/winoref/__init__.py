"""Self-supervised refinement of a masked language model for zero-shot
pronoun disambiguation, with perturbation-token conditioning, a windowed
token-matching similarity metric and a masked-candidate scorer."""

__version__ = "0.1.0"

from .tensor import Tensor, backward, no_grad, set_dtype
from .text import (PerturbationKind, PerturbedGroup, SchemaInstance,
                   TokenSequence, Vocabulary, build_vocab, tokenize,
                   prepend_perturbation, load_benchmark,
                   load_perturbation_corpus)
from .encoder import (EncoderConfig, EncoderModel, EmbeddingStack, encode,
                      mlm_logits, pretrain_mlm, PretrainConfig)
from .scoring import ScoreConfig, windowed_bertscore
from .refine import (Discriminator, LossWeights, RefinementConfig,
                     contrastive_loss, contrastive_pairs, diversity_loss,
                     reconstruction_loss, refine)
from .evaluate import (CandidateScore, EvalReport, evaluate, resolve,
                       score_candidate)

__all__ = [
    "Tensor", "backward", "no_grad", "set_dtype",
    "PerturbationKind", "PerturbedGroup", "SchemaInstance", "TokenSequence",
    "Vocabulary", "build_vocab", "tokenize", "prepend_perturbation",
    "load_benchmark", "load_perturbation_corpus",
    "EncoderConfig", "EncoderModel", "EmbeddingStack", "encode", "mlm_logits",
    "pretrain_mlm", "PretrainConfig",
    "ScoreConfig", "windowed_bertscore",
    "Discriminator", "LossWeights", "RefinementConfig", "contrastive_loss",
    "contrastive_pairs", "diversity_loss", "reconstruction_loss", "refine",
    "CandidateScore", "EvalReport", "evaluate", "resolve", "score_candidate",
]
