"""Zero-shot pronoun disambiguation by masked-candidate scoring.

The pronoun slot is expanded to as many [MASK] tokens as the candidate has,
one forward pass produces per-position distributions, and the candidate's
score is the average log probability of its tokens at the masked positions.
The masked row depends only on the sentence and the candidate's token count,
so the two candidates of one instance share one row when their counts are
equal. Every score comes from one path: before the first forward, one walk
plans the instances in blocks of distinct masked rows, splitting each
sentence and building and keying each candidate's row once; a block's plan
holds its rows, stacked, and each candidate's first slot and token ids.
Each block's rows go through one forward, and its slot logits get one
log-softmax, each distinct row's max, exp and sum taken once however many
candidates read it; every candidate's score is finished into the block
memo. ``resolve`` is that path on one instance. The memo is a context
variable, not a parameter, so that a wrapper of ``score_candidate(model,
vocab, instance, which)``, such as the benchmark's tracer, still sees one
call per candidate, which reads its finished score. Evaluation never
updates parameters, and imports no training code but what
``winoref.encoder`` holds.
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


def log_probs_at_positions(logits, token_ids, rows):
    """Log softmax probability of ``token_ids[i]`` in row ``rows[i]`` of a
    logit matrix.

    Computed as log of the explicit (max-shifted) softmax so the value is
    bit-identical to enumerating the full distribution; each row's max, exp
    and sum are taken once, however many entries it gives, and only the
    gathered entries are divided by their row's sum.
    """
    e = logits - logits.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    with np.errstate(divide="ignore"):   # a probability that underflowed: -inf
        return np.log(e[rows, token_ids] / e.sum(axis=1)[rows])


def _slot_parts(sentence):
    """The word tokens before and after the one slot of ``sentence``."""
    parts = sentence.split(SLOT_MARKER)
    if len(parts) != 2:
        raise ValueError(f"sentence must contain exactly one {SLOT_MARKER!r} slot")
    return word_tokens(parts[0]), word_tokens(parts[1])


def _candidate_row(parts, candidate, vocab, max_len):
    """(ids, candidate token ids) of the candidate text ``candidate`` in a
    sentence that ``_slot_parts`` split into ``parts``: the id row with the
    slot expanded to m [MASK] tokens, the row's only [MASK] ids, as
    ``word_tokens`` never yields one; None if the row would overflow
    max_len."""
    cand_tokens = word_tokens(candidate)
    if not cand_tokens:
        raise ValueError("candidate text has no tokens")
    prefix, suffix = parts
    try:
        ids = encode_tokens(prefix + [MASK] * len(cand_tokens) + suffix, vocab, max_len)
    except ValueError:   # the row overflows max_len
        return None
    return ids, np.array([vocab.id(t) for t in cand_tokens])


# The block memo of ``_scores``: (model, vocab, each candidate's finished
# CandidateScore under (id(instance), which)); unset outside a block.
_BLOCK_SCORES = contextvars.ContextVar("block_scores")


def score_candidate(model, vocab, instance, which):
    """Average log probability of one candidate in the masked slot.

    A candidate whose row overflows the length budget scores -inf and is
    marked ``overflows`` rather than being silently dropped. The score is
    read from the memo of the ``_scores`` block that holds ``instance``; a
    call outside a block, or with another model or vocabulary than the
    block's, raises LookupError: ``resolve`` scores one instance."""
    block = _BLOCK_SCORES.get(None)
    if block is None or block[0] is not model or block[1] is not vocab:
        raise LookupError("score_candidate reads the scores of a block of its model "
                          "and vocabulary; resolve scores one instance")
    return block[2][(id(instance), which)]


def _blocks(instances, vocab, cfg):
    """The plan of each block of the instances, in file order: as many
    distinct masked rows as ``block_rows`` allows for the block's longest
    row, and at least an instance's two, whose (slots, vocab_size) logits
    stay under ``MAX_STEP_VALUES`` values. A plan is (block, ids, cands):
    the block's instances, its distinct rows stacked in the order first
    met (None if it has none), and per candidate, in order, its first slot
    among the rows' [MASK] logits and its token ids, or None if its row
    overflows max_len. The whole walk runs before any forward, so a block
    over the cap, which only an instance's own rows can make, fails before
    the first one."""
    blocks = []

    def close(block, rows, cands, slots):
        check_cap([((slots, cfg.vocab_size), None)], "encoder.max_len", "an eval forward")
        blocks.append((block, np.stack([ids for ids, _ in rows.values()]) if rows else None,
                       cands))

    block, rows, cands, longest, slots = [], {}, [], 0, 0
    caps = {}   # block_rows by the longest row
    for inst in instances:
        parts = _slot_parts(inst.sentence)
        pair = [_candidate_row(parts, inst.candidate(which), vocab, cfg.max_len)
                for which in (1, 2)]
        keys = [None if b is None else b[0].tobytes() for b in pair]
        new = {key: b for key, b in zip(keys, pair) if b is not None}
        wide = max([0] + [int(np.count_nonzero(ids != PAD_ID)) for ids, _ in new.values()])
        size = max(longest, wide)
        if size not in caps:
            caps[size] = block_rows(cfg, size, least=2)
        fresh = {key: b for key, b in new.items() if key not in rows}
        if block and (len(rows) + len(fresh) > caps[size]
                      or (slots + sum(len(c) for _, c in fresh.values())) * cfg.vocab_size
                      > MAX_STEP_VALUES):
            close(block, rows, cands, slots)
            block, rows, cands, longest, slots, fresh = [], {}, [], 0, 0, new
        for key, (ids, c) in fresh.items():   # a row's slots follow the rows before it
            rows[key], slots = (ids, slots), slots + len(c)
        block.append(inst)
        cands += [None if b is None else (rows[key][1], b[1]) for key, b in zip(keys, pair)]
        longest = max(longest, wide)
    close(block, rows, cands, slots)
    return blocks


def _block_scores(view, ids, cands):
    """Each candidate's CandidateScore, in the order of ``cands``, from one
    forward of the detached ``view`` over the block's stacked rows ``ids``
    and one ``log_probs_at_positions`` over their slot logits, so a row that
    two candidates share gets its log-softmax once."""
    fits = [c for c in cands if c is not None]
    means = iter(())
    if fits:   # not every candidate of the block overflows
        logits = mlm_logits_batch(view, ids, ids == MASK_ID).data
        at = np.concatenate([first + np.arange(len(c)) for first, c in fits])
        logp = log_probs_at_positions(logits, np.concatenate([c for _, c in fits]), at)
        ends = np.cumsum([len(c) for _, c in fits]).tolist()
        means = (float(logp[start:end].mean()) for start, end in zip([0] + ends, ends))
    return [CandidateScore(avg_log_prob=float("-inf"), overflows=True) if c is None
            else CandidateScore(avg_log_prob=next(means), overflows=False) for c in cands]


def _scores(model, vocab, instances):
    """(score1, score2) of each instance, in order. Each block's distinct
    rows go through one forward of ``model.detached()``, so without a tape,
    its candidates' scores are finished into the block's memo, and
    ``score_candidate`` reads them from it, once per candidate; the memo is
    dropped before the next block's forward."""
    out, view = [], model.detached()
    for block, ids, cands in _blocks(instances, vocab, model.config):
        keys = [(id(inst), which) for inst in block for which in (1, 2)]
        scores = dict(zip(keys, _block_scores(view, ids, cands)))
        token = _BLOCK_SCORES.set((model, vocab, scores))
        try:
            out += [(score_candidate(model, vocab, inst, 1),
                     score_candidate(model, vocab, inst, 2)) for inst in block]
        finally:
            _BLOCK_SCORES.reset(token)
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
