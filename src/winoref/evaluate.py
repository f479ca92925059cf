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
from .text import SLOT_MARKER, word_tokens


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

    def to_dict(self):
        return {"dataset": self.dataset, "count": self.count,
                "accuracy": self.accuracy, "decisions": self.decisions}


def log_probs_at_positions(logits, positions, token_ids):
    """Log softmax probabilities of given tokens at given rows of a
    (length, vocab) logit matrix.

    Computed as log of the explicit (max-shifted) softmax so the value is
    bit-identical to enumerating the full distribution.
    """
    rows = logits[positions]
    m = rows.max(axis=1, keepdims=True)
    e = np.exp(rows - m)
    probs = e / e.sum(axis=1, keepdims=True)
    return np.log(probs[np.arange(len(positions)), token_ids])


def _masked_ids(instance, which, vocab, max_len):
    """Token ids with the slot expanded to m [MASK] tokens.

    Returns (ids, attention_mask, mask_positions, candidate_token_ids), or
    None if the sequence would overflow max_len.
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
    total = 2 + len(prefix) + m + len(suffix)
    if total > max_len:
        return None
    ids = np.full(max_len, vocab.pad_id, dtype=np.int64)
    ids[0] = vocab.cls_id
    pos = 1
    for tok in prefix:
        ids[pos] = vocab.id(tok)
        pos += 1
    mask_positions = np.arange(pos, pos + m)
    ids[mask_positions] = vocab.mask_id
    pos += m
    for tok in suffix:
        ids[pos] = vocab.id(tok)
        pos += 1
    ids[pos] = vocab.sep_id
    attention = np.zeros(max_len, dtype=bool)
    attention[:total] = True
    cand_ids = np.array([vocab.id(t) for t in cand_tokens])
    return ids, attention, mask_positions, cand_ids


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
    ids, attention, positions, cand_ids = built
    with T.no_grad():
        logits = mlm_logits_batch(model, ids[None, :], attention[None, :])
    logp = log_probs_at_positions(logits.data[0], positions, cand_ids)
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

