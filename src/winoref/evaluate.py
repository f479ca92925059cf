"""Zero-shot pronoun disambiguation by masked-candidate scoring.

The pronoun slot is expanded to as many [MASK] tokens as the candidate has,
one forward pass produces per-position distributions, and the candidate's
score is the average log probability of its tokens at the masked positions.
The masked row depends only on the sentence and the candidate's token count,
so the two candidates of one instance share one row when their counts are
equal. Every score comes from one path: the instances are walked in blocks
of distinct masked rows, each candidate's row is built once, and a block's
rows go through one forward. ``resolve`` is that path on one instance. The
block's slot logits sit in a memo that is a context variable, not a
parameter, so that a wrapper of ``score_candidate(model, vocab, instance,
which)``, such as the benchmark's tracer, still sees one call per
candidate. Evaluation never updates parameters.
"""

import contextvars
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .encoder import ENCODE_CHUNK, mlm_logits_batch
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


# The memo scoring reads inside a block of ``_scores``: each candidate's
# built row under (id(instance), which), and slot logits under a masked
# row's id bytes (its slots are the row's run of [MASK] ids); unset outside.
_ROW_LOGITS = contextvars.ContextVar("row_logits")


def score_candidate(model, vocab, instance, which):
    """Average log probability of one candidate in the masked slot.

    A candidate whose row overflows the length budget scores -inf and is
    marked ``overflows`` rather than being silently dropped. Inside a block
    of ``_scores`` the candidate's row and its logits are read from the
    block's memo; called on its own, it scores its instance as ``evaluate``
    would on a one-instance list."""
    memo = _ROW_LOGITS.get(None)
    if memo is None:
        return _scores(model, vocab, [instance])[0][which - 1]
    built = memo[(id(instance), which)]
    if built is None:
        return CandidateScore(avg_log_prob=float("-inf"),
                              n_tokens=len(word_tokens(instance.candidate(which))),
                              overflows=True)
    ids, _, cand_ids = built
    logp = log_probs_at_positions(memo[ids.tobytes()], cand_ids)
    return CandidateScore(avg_log_prob=float(logp.mean()), n_tokens=len(cand_ids),
                          overflows=False)


def _blocks(instances, vocab, max_len):
    """The instances in file order, in blocks of at most ``ENCODE_CHUNK``
    distinct masked rows. Yields (block, built, rows): ``built`` maps each
    candidate's (id(instance), which) to what ``_masked_ids`` returns for
    it, and ``rows`` maps each distinct row's id bytes to (ids, positions).
    """
    block, built, rows = [], {}, {}
    for inst in instances:
        pair = {(id(inst), which): _masked_ids(inst, which, vocab, max_len)
                for which in (1, 2)}
        new = {b[0].tobytes(): b[:2] for b in pair.values() if b is not None}
        if len(rows) + sum(row not in rows for row in new) > ENCODE_CHUNK:
            yield block, built, rows
            block, built, rows = [], {}, {}
        block.append(inst)
        built.update(pair)
        rows.update(new)
    yield block, built, rows


def _slot_logits(model, rows):
    """Slot logits of distinct masked rows, all in one forward: each row's
    id bytes mapped to its (slots, V) logits."""
    if not rows:   # every candidate of the block overflows
        return {}
    ids = np.stack([ids for ids, _ in rows.values()])
    slots = [positions for _, positions in rows.values()]
    flat = np.concatenate([b * model.config.max_len + s for b, s in enumerate(slots)])
    with T.no_grad():
        logits = mlm_logits_batch(model, ids, row_masks(ids)[0], flat).data
    return dict(zip(rows, np.split(logits, np.cumsum([len(s) for s in slots])[:-1])))


def _scores(model, vocab, instances):
    """(score1, score2) of each instance, in order. Each block's distinct
    rows go through one forward, and its candidates are scored by
    ``score_candidate`` from the block's memo, which is dropped before the
    next block's forward."""
    out = []
    for block, built, rows in _blocks(instances, vocab, model.config.max_len):
        token = _ROW_LOGITS.set({**built, **_slot_logits(model, rows)})
        try:
            out += [(score_candidate(model, vocab, inst, 1),
                     score_candidate(model, vocab, inst, 2)) for inst in block]
        finally:
            _ROW_LOGITS.reset(token)
    return out


def _choice(s1, s2):
    """The better-scoring candidate; exact ties pick candidate 1."""
    return 1 if s1.avg_log_prob >= s2.avg_log_prob else 2


def resolve(model, vocab, instance):
    """``(choice, (score1, score2))`` of one instance, as ``evaluate`` scores
    it on a one-instance list."""
    s1, s2 = _scores(model, vocab, [instance])[0]
    return _choice(s1, s2), (s1, s2)


def evaluate(model, vocab, instances, dataset_name="dataset"):
    """Accuracy of ``resolve``'s decisions against gold labels; pure
    inference. The head sums a block's rows in another order than a
    smaller block's, so an instance's scores may differ in their last bits
    from ``resolve``'s on it alone."""
    if not instances:
        raise ValueError("evaluation dataset is empty")
    decisions = []
    overflows = 0
    for inst, (s1, s2) in zip(instances, _scores(model, vocab, instances)):
        choice = _choice(s1, s2)
        overflows += s1.overflows + s2.overflows
        decisions.append({"index": len(decisions), "chosen": choice,
                          "gold": inst.label, "correct": choice == inst.label,
                          "score1": s1.avg_log_prob, "score2": s2.avg_log_prob})
    return EvalReport(dataset=dataset_name, count=len(instances),
                      accuracy=sum(d["correct"] for d in decisions) / len(instances),
                      overflows=overflows, decisions=decisions)
