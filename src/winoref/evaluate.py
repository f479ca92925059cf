"""Zero-shot pronoun disambiguation by masked-candidate scoring.

The pronoun slot is expanded to as many [MASK] tokens as the candidate has,
one forward pass produces per-position distributions, and the candidate's
score is the average log probability of its tokens at the masked positions.
Evaluation never updates parameters.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .encoder import mlm_logits_batch
from .text import MASK, SLOT_MARKER, encode_tokens, row_masks, word_tokens


@dataclass
class CandidateScore:
    index: int
    avg_log_prob: float
    n_tokens: int


@dataclass
class EvalReport:
    dataset: str
    count: int
    accuracy: float
    decisions: list = field(default_factory=list)


def log_probs_at_positions(logits, token_ids):
    """Log softmax probability of ``token_ids[i]`` in row ``i`` of a
    (len(token_ids), vocab) logit matrix.

    Computed as log of the explicit (max-shifted) softmax so the value is
    bit-identical to enumerating the full distribution.
    """
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    probs = e / e.sum(axis=1, keepdims=True)
    return np.log(probs[np.arange(len(token_ids)), token_ids])


def _masked_ids(instance, which, vocab, max_len):
    """Id row with the slot expanded to m [MASK] tokens.

    Returns (ids, mask_positions, candidate_token_ids), or None if the
    sequence would overflow max_len.
    """
    cand_tokens = word_tokens(instance.candidate(which))
    if not cand_tokens:
        raise ValueError("candidate text has no tokens")
    parts = instance.sentence.split(SLOT_MARKER)
    if len(parts) != 2:
        raise ValueError(f"sentence must contain exactly one {SLOT_MARKER!r} slot")
    prefix = word_tokens(parts[0])
    suffix = word_tokens(parts[1])
    m = len(cand_tokens)
    if 2 + len(prefix) + m + len(suffix) > max_len:
        return None
    ids = encode_tokens(prefix + [MASK] * m + suffix, vocab, max_len)
    mask_positions = np.arange(1 + len(prefix), 1 + len(prefix) + m)
    cand_ids = np.array([vocab.id(t) for t in cand_tokens])
    return ids, mask_positions, cand_ids


def score_candidate(model, vocab, instance, which):
    """Average log probability of one candidate in the masked slot.

    A candidate that overflows the length budget scores -inf (with a
    warning) rather than being silently dropped.
    """
    built = _masked_ids(instance, which, vocab, model.config.max_len)
    if built is None:
        warnings.warn(f"candidate {which} overflows max_len "
                      f"{model.config.max_len}; scored as -inf")
        return CandidateScore(index=which, avg_log_prob=float("-inf"),
                              n_tokens=len(word_tokens(instance.candidate(which))))
    ids, positions, cand_ids = built
    with T.no_grad():
        logits = mlm_logits_batch(model, ids[None, :], row_masks(ids)[0][None, :],
                                  positions)
    logp = log_probs_at_positions(logits.data, cand_ids)
    return CandidateScore(index=which, avg_log_prob=float(logp.mean()),
                          n_tokens=len(cand_ids))


def resolve(model, vocab, instance):
    """Index of the better-scoring candidate; exact ties pick candidate 1."""
    s1 = score_candidate(model, vocab, instance, 1)
    s2 = score_candidate(model, vocab, instance, 2)
    choice = 1 if s1.avg_log_prob >= s2.avg_log_prob else 2
    return choice, (s1, s2)


def evaluate(model, vocab, instances, dataset_name="dataset"):
    """Accuracy of resolve() against gold labels; pure inference."""
    if not instances:
        raise ValueError("evaluation dataset is empty")
    decisions = []
    correct = 0
    for i, inst in enumerate(instances):
        choice, (s1, s2) = resolve(model, vocab, inst)
        ok = choice == inst.label
        correct += int(ok)
        decisions.append({"index": i, "chosen": choice, "gold": inst.label,
                          "correct": ok,
                          "score1": s1.avg_log_prob, "score2": s2.avg_log_prob})
    return EvalReport(dataset=dataset_name, count=len(instances),
                      accuracy=correct / len(instances), decisions=decisions)

