"""Zero-shot pronoun disambiguation by masked-candidate scoring.

The pronoun slot is expanded to as many [MASK] tokens as the candidate has,
one forward pass produces per-position distributions, and the candidate's
score is the average log probability of its tokens at the masked positions.
The masked row depends only on the sentence and the candidate's token count,
so the two candidates of one instance share one forward when their counts
are equal: ``resolve`` memoizes the row's logits for that one instance. The
memo is a context variable, not a parameter, so that a wrapper of
``score_candidate(model, vocab, instance, which)``, such as the benchmark's
tracer, still sees one call per candidate. Evaluation never updates
parameters.
"""

import contextvars
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .encoder import mlm_logits_batch
from .text import MASK, SLOT_MARKER, encode_tokens, row_masks, word_tokens


@dataclass
class CandidateScore:
    avg_log_prob: float
    n_tokens: int
    overflows: bool    # its row does not fit max_len; it scores -inf


@dataclass
class EvalReport:
    dataset: str
    count: int
    accuracy: float
    overflows: int     # candidates whose row does not fit max_len
    decisions: list = field(default_factory=list)


def log_probs_at_positions(logits, token_ids):
    """Log softmax probability of ``token_ids[i]`` in row ``i`` of a
    (len(token_ids), vocab) logit matrix.

    Computed as log of the explicit (max-shifted) softmax so the value is
    bit-identical to enumerating the full distribution; only the gathered
    entries are divided by their row's sum.
    """
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    with np.errstate(divide="ignore"):   # a probability that underflowed: -inf
        return np.log(e[np.arange(len(token_ids)), token_ids] / e.sum(axis=1))


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
    try:
        ids = encode_tokens(prefix + [MASK] * m + suffix, vocab, max_len)
    except ValueError:   # the row overflows max_len
        return None
    mask_positions = np.arange(1 + len(prefix), 1 + len(prefix) + m)
    cand_ids = np.array([vocab.id(t) for t in cand_tokens])
    return ids, mask_positions, cand_ids


# Masked-row logits of the instance ``resolve`` is scoring, keyed by the
# row's id bytes and slot positions; unset outside ``resolve``.
_ROW_LOGITS = contextvars.ContextVar("row_logits")


def score_candidate(model, vocab, instance, which):
    """Average log probability of one candidate in the masked slot.

    A candidate whose row overflows the length budget scores -inf and is
    marked ``overflows`` rather than being silently dropped. Inside
    ``resolve`` a row already forwarded for the other candidate is read from
    its memo; the forward would be the same on the same inputs, so the score
    keeps its bits. Outside ``resolve`` every call forwards.
    """
    built = _masked_ids(instance, which, vocab, model.config.max_len)
    if built is None:
        return CandidateScore(avg_log_prob=float("-inf"),
                              n_tokens=len(word_tokens(instance.candidate(which))),
                              overflows=True)
    ids, positions, cand_ids = built
    memo = _ROW_LOGITS.get({})   # outside resolve, a memo of this call only
    key = (ids.tobytes(), positions.tobytes())
    if key not in memo:
        with T.no_grad():
            memo[key] = mlm_logits_batch(model, ids[None, :], row_masks(ids)[0][None, :],
                                         positions).data
    logp = log_probs_at_positions(memo[key], cand_ids)
    return CandidateScore(avg_log_prob=float(logp.mean()), n_tokens=len(cand_ids),
                          overflows=False)


def resolve(model, vocab, instance):
    """Index of the better-scoring candidate; exact ties pick candidate 1.

    Candidates of one token count share one masked row, and so one forward.
    The memo of row logits lives for this instance only: rows seldom repeat
    across instances, a longer-lived memo would hold vocabulary-wide logits
    for a whole file, and ``refine`` changes the model in place."""
    token = _ROW_LOGITS.set({})
    try:
        s1 = score_candidate(model, vocab, instance, 1)
        s2 = score_candidate(model, vocab, instance, 2)
    finally:
        _ROW_LOGITS.reset(token)
    choice = 1 if s1.avg_log_prob >= s2.avg_log_prob else 2
    return choice, (s1, s2)


def evaluate(model, vocab, instances, dataset_name="dataset"):
    """Accuracy of resolve() against gold labels; pure inference."""
    if not instances:
        raise ValueError("evaluation dataset is empty")
    decisions = []
    overflows = 0
    for i, inst in enumerate(instances):
        choice, (s1, s2) = resolve(model, vocab, inst)
        overflows += s1.overflows + s2.overflows
        decisions.append({"index": i, "chosen": choice, "gold": inst.label,
                          "correct": choice == inst.label,
                          "score1": s1.avg_log_prob, "score2": s2.avg_log_prob})
    return EvalReport(dataset=dataset_name, count=len(instances),
                      accuracy=sum(d["correct"] for d in decisions) / len(instances),
                      overflows=overflows, decisions=decisions)

