"""Rule-based synthetic data: perturbation corpus and pronoun benchmarks.

Two sentence families built from small word pools (the full vocabulary stays
under 500 tokens). Object groups follow "the X does not fit in the Y because
it is too ADJ"; person groups follow "NAME cannot lift the X because he is
too ADJ". Each perturbation variant is produced by a deterministic textual
rule, so every group is internally consistent and every run with the same
seed emits identical files.
"""

import numpy as np

from .text import PerturbationKind, PerturbedGroup, SchemaInstance

ITEMS = ["trophy", "medal", "ball", "book", "bottle", "clock", "doll", "drum",
         "flute", "hammer", "kettle", "lamp", "mirror", "pencil", "phone",
         "radio", "ring", "shoe", "spoon", "statue", "ticket", "toy", "vase",
         "wallet", "watch", "whistle", "brush", "candle", "coin", "cup"]

CONTAINERS = ["suitcase", "box", "drawer", "basket", "cupboard", "bag", "crate",
              "chest", "locker", "shelf", "cabinet", "trunk", "pouch", "jar",
              "bucket", "backpack", "envelope", "folder", "closet", "bin",
              "satchel", "case", "sack", "tin", "hamper", "safe", "tray",
              "rack", "barrel", "purse"]

ITEM_SYNONYMS = {
    "trophy": "prize", "medal": "badge", "ball": "sphere", "book": "volume",
    "bottle": "flask", "clock": "timepiece", "doll": "figurine", "drum": "tom",
    "flute": "pipe", "hammer": "mallet", "kettle": "pot", "lamp": "lantern",
    "mirror": "glass", "pencil": "crayon", "phone": "handset", "radio": "receiver",
    "ring": "band", "shoe": "boot", "spoon": "ladle", "statue": "bust",
    "ticket": "stub", "toy": "plaything", "vase": "urn", "wallet": "billfold",
    "watch": "chronometer", "whistle": "horn", "brush": "comb", "candle": "taper",
    "coin": "token", "cup": "mug",
}

CONTAINER_SYNONYMS = {
    "suitcase": "valise", "box": "carton", "drawer": "compartment",
    "basket": "pannier", "cupboard": "larder", "bag": "tote", "crate": "pallet",
    "chest": "coffer", "locker": "stall", "shelf": "ledge", "cabinet": "bureau",
    "trunk": "footlocker", "pouch": "sachet", "jar": "canister",
    "bucket": "pail", "backpack": "rucksack", "envelope": "sleeve",
    "folder": "binder", "closet": "wardrobe", "bin": "hopper",
    "satchel": "knapsack", "case": "casing", "sack": "duffel", "tin": "caddy",
    "hamper": "creel", "safe": "vault", "tray": "platter", "rack": "stand",
    "barrel": "cask", "purse": "handbag",
}

BIG_ADJS = ["big", "large", "huge", "wide", "bulky", "heavy"]
SMALL_ADJS = ["small", "tiny", "narrow", "little", "cramped", "shallow"]

MALE_NAMES = ["adam", "bruno", "carl", "derek", "evan", "felix", "george",
              "henry", "ivan", "jacob", "kevin", "lukas"]
FEMALE_NAMES = ["alice", "bella", "clara", "daisy", "elena", "fiona", "grace",
                "hanna", "irene", "julia", "karen", "laura"]

WEAK_ADJS = ["weak", "tired", "slow", "frail", "clumsy", "sleepy"]

# the corpus uses only the first ITEM_POOL items and CONTAINER_POOL
# containers, so each word recurs often enough to learn; PERSON_FRACTION of
# its groups are person groups
ITEM_POOL = 15
CONTAINER_POOL = 15
PERSON_FRACTION = 0.3
# the most groups the pools hold: the largest count whose object and person
# shares both fit their pools' distinct triples
_OBJECT_TRIPLES = ITEM_POOL * CONTAINER_POOL * (len(BIG_ADJS) + len(SMALL_ADJS))
_PERSON_TRIPLES = len(MALE_NAMES) * ITEM_POOL * len(WEAK_ADJS)
MAX_GROUPS = next(n for n in range(_OBJECT_TRIPLES + _PERSON_TRIPLES, 0, -1)
                  if n - int(n * PERSON_FRACTION) <= _OBJECT_TRIPLES
                  and int(n * PERSON_FRACTION) <= _PERSON_TRIPLES)

K = PerturbationKind


def _object_group(idx, item, container, adj):
    base = f"the {item} does not fit in the {container} because it is too {adj} ."
    variants = {
        K.TENSE: f"the {item} did not fit in the {container} because it was too {adj} .",
        K.NUMBER: f"the {item}s do not fit in the {container} because they are too {adj} .",
        K.VOICE: f"the {container} cannot hold the {item} because it is too {adj} .",
        K.RELCLAUSE: f"the {item} , which is new , does not fit in the {container} "
                     f"because it is too {adj} .",
        K.ADVERB: f"the {item} really does not fit in the {container} because it is "
                  f"too {adj} .",
        K.SYNONYM: f"the {ITEM_SYNONYMS[item]} does not fit in the "
                   f"{CONTAINER_SYNONYMS[container]} because it is too {adj} .",
    }
    return PerturbedGroup(sample_id=f"obj{idx:04d}", base=base, variants=variants)


def _person_group(idx, name_m, name_f, item, adj):
    base = f"{name_m} cannot lift the {item} because he is too {adj} ."
    variants = {
        K.TENSE: f"{name_m} could not lift the {item} because he was too {adj} .",
        K.GENDER: f"{name_f} cannot lift the {item} because she is too {adj} .",
        K.VOICE: f"the {item} cannot be lifted by {name_m} because he is too {adj} .",
        K.RELCLAUSE: f"{name_m} , who is young , cannot lift the {item} because he "
                     f"is too {adj} .",
        K.ADVERB: f"{name_m} really cannot lift the {item} because he is too {adj} .",
        K.SYNONYM: f"{name_m} cannot lift the {ITEM_SYNONYMS[item]} because he is "
                   f"too {adj} .",
    }
    return PerturbedGroup(sample_id=f"per{idx:04d}", base=base, variants=variants)


def _pairwise_distinct_triples(rng, n, pool_a, pool_b, pool_c):
    """Pick n (a, b, c) triples, preferring ones where every (a,b), (a,c)
    and (b,c) pair is unique. Each masked word is then recoverable from the
    other two, so a model can in principle reach 100% masked-token accuracy,
    while small pools keep individual words frequent enough to learn. Once
    the pairwise constraint is exhausted the remaining picks fall back to
    merely distinct triples."""
    if n <= 0:
        return []
    combos = [(a, b, c) for a in range(pool_a)
              for b in range(pool_b) for c in range(pool_c)]
    order = rng.permutation(len(combos))
    seen_ab, seen_ac, seen_bc = set(), set(), set()
    picked, skipped = [], []
    for idx in order:
        a, b, c = combos[idx]
        if (a, b) in seen_ab or (a, c) in seen_ac or (b, c) in seen_bc:
            skipped.append((a, b, c))
            continue
        picked.append((a, b, c))
        seen_ab.add((a, b))
        seen_ac.add((a, c))
        seen_bc.add((b, c))
        if len(picked) == n:
            return picked
    return picked + skipped[:n - len(picked)]


def make_perturbation_corpus(n_groups, seed=0):
    """Groups with rule-based variants over deliberately small word pools,
    at most ``MAX_GROUPS`` of them."""
    if n_groups > MAX_GROUPS:
        raise ValueError(f"the word pools hold at most {MAX_GROUPS} groups, "
                         f"{n_groups} requested")
    rng = np.random.default_rng(seed)
    n_person = int(n_groups * PERSON_FRACTION)
    adjs = BIG_ADJS + SMALL_ADJS
    groups = []
    for gi, (i, c, a) in enumerate(_pairwise_distinct_triples(
            rng, n_groups - n_person, ITEM_POOL, CONTAINER_POOL, len(adjs))):
        groups.append(_object_group(gi, ITEMS[i], CONTAINERS[c], adjs[a]))
    for gi, (m, i, a) in enumerate(_pairwise_distinct_triples(
            rng, n_person, len(MALE_NAMES), ITEM_POOL, len(WEAK_ADJS))):
        groups.append(_person_group(gi, MALE_NAMES[m], FEMALE_NAMES[m],
                                    ITEMS[i], WEAK_ADJS[a]))
    return groups


COLORS = ["red", "blue", "green", "black", "white", "brown"]


def make_benchmark(n_instances, seed=0):
    """Labeled pronoun items: big adjectives point at the item, small ones at
    the container. Twin sentences flip the adjective class and the label.
    Every third pair uses color-modified, two-token candidates."""
    rng = np.random.default_rng(seed)
    instances = []
    pair_count = 0
    while len(instances) < n_instances:
        item = ITEMS[rng.integers(len(ITEMS))]
        container = CONTAINERS[rng.integers(len(CONTAINERS))]
        big = BIG_ADJS[rng.integers(len(BIG_ADJS))]
        small = SMALL_ADJS[rng.integers(len(SMALL_ADJS))]
        if pair_count % 3 == 2:
            c1, c2 = COLORS[rng.integers(len(COLORS))], COLORS[rng.integers(len(COLORS))]
            cand1, cand2 = f"{c1} {item}", f"{c2} {container}"
            subj, obj = cand1, cand2
        else:
            cand1, cand2 = item, container
            subj, obj = item, container
        pair_count += 1
        sent_big = (f"the {subj} does not fit in the {obj} because "
                    f"the _ is too {big} .")
        sent_small = (f"the {subj} does not fit in the {obj} because "
                      f"the _ is too {small} .")
        twin_of = {1: sent_small, 2: sent_big}
        for sentence, label in ((sent_big, 1), (sent_small, 2)):
            if len(instances) >= n_instances:
                break
            instances.append(SchemaInstance(
                sentence=sentence, candidate1=cand1, candidate2=cand2,
                label=label, twin=twin_of[label]))
    return instances
