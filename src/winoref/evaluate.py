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

from .encoder import MAX_STEP_VALUES, block_rows, check_cap, mlm_logits_batch
from .text import MASK, MASK_ID, PAD_ID, SLOT_MARKER, encode_tokens, word_tokens


@dataclass
class CandidateScore:
    avg_log_prob: float
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
    """(ids, candidate token ids): the id row with the slot expanded to m
    [MASK] tokens, the row's only [MASK] ids, as ``word_tokens`` never
    yields one; None if the row would overflow max_len."""
    cand_tokens = word_tokens(instance.candidate(which))
    if not cand_tokens:
        raise ValueError("candidate text has no tokens")
    parts = instance.sentence.split(SLOT_MARKER)
    if len(parts) != 2:
        raise ValueError(f"sentence must contain exactly one {SLOT_MARKER!r} slot")
    prefix = word_tokens(parts[0])
    suffix = word_tokens(parts[1])
    try:
        ids = encode_tokens(prefix + [MASK] * len(cand_tokens) + suffix, vocab, max_len)
    except ValueError:   # the row overflows max_len
        return None
    return ids, np.array([vocab.id(t) for t in cand_tokens])


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
        return CandidateScore(avg_log_prob=float("-inf"), overflows=True)
    ids, cand_ids = built
    logp = log_probs_at_positions(memo[ids.tobytes()], cand_ids)
    return CandidateScore(avg_log_prob=float(logp.mean()), overflows=False)


def _blocks(instances, vocab, cfg):
    """The instances in file order, in blocks of distinct masked rows, as
    many as ``block_rows`` allows for the block's longest row, and at least
    an instance's two, whose (slots, vocab_size) logits stay under
    ``MAX_STEP_VALUES`` values. Returns a list of (block, built, rows):
    ``built`` maps each candidate's (id(instance), which) to what
    ``_masked_ids`` returns for it, and ``rows`` maps each distinct row's id
    bytes to what it returns for a candidate of that row. The whole walk
    runs before any forward, so a block over the cap, which only an
    instance's own rows can make, fails before the first one.
    """
    blocks = []

    def close(block, built, rows, slots):
        check_cap([((slots, cfg.vocab_size), None)], "encoder.max_len", "an eval forward")
        blocks.append((block, built, rows))

    block, built, rows, longest, slots = [], {}, {}, 0, 0
    caps = {}   # block_rows by the longest row
    for inst in instances:
        pair = {(id(inst), which): _masked_ids(inst, which, vocab, cfg.max_len)
                for which in (1, 2)}
        new = {b[0].tobytes(): b for b in pair.values() if b is not None}
        wide = max([0] + [int(np.count_nonzero(ids != PAD_ID)) for ids, _ in new.values()])
        size = max(longest, wide)
        if size not in caps:
            caps[size] = block_rows(cfg, size, least=2)
        fresh = [len(c) for row, (_, c) in new.items() if row not in rows]
        if block and (len(rows) + len(fresh) > caps[size]
                      or (slots + sum(fresh)) * cfg.vocab_size > MAX_STEP_VALUES):
            close(block, built, rows, slots)
            block, built, rows, longest, slots = [], {}, {}, 0, 0
            fresh = [len(c) for _, c in new.values()]
        block.append(inst)
        built.update(pair)
        rows.update(new)
        longest = max(longest, wide)
        slots += sum(fresh)
    close(block, built, rows, slots)
    return blocks


def _slot_logits(view, rows):
    """Slot logits of distinct masked rows, all in one forward of the detached
    ``view``: each row's id bytes mapped to the (slots, V) logits at its [MASK] ids."""
    if not rows:   # every candidate of the block overflows
        return {}
    ids = np.stack([ids for ids, _ in rows.values()])
    slots = ids == MASK_ID
    logits = mlm_logits_batch(view, ids, slots).data
    return dict(zip(rows, np.split(logits, np.cumsum(slots.sum(axis=1))[:-1])))


def _scores(model, vocab, instances):
    """(score1, score2) of each instance, in order. Each block's distinct
    rows go through one forward of ``model.detached()``, so without a tape,
    and its candidates are scored by ``score_candidate`` from the block's
    memo, which is dropped before the next block's forward."""
    out, view = [], model.detached()
    for block, built, rows in _blocks(instances, vocab, model.config):
        token = _ROW_LOGITS.set({**built, **_slot_logits(view, rows)})
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
