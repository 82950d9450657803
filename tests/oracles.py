"""Independent straight-line scalar evaluations of every loss formula.

Deliberately written with plain Python floats and explicit loops: these are
the reference the vectorized implementations are checked against, so they
must not share any code with them.  All take effective (non-negative) radii
and slacks.  The split oracle works on plain tuples of class ids and shares
only the seeded permutation draw with ``geodl.training.split``.
"""

import math

import numpy as np


def norm(v):
    total = 0.0
    for x in v:
        total += x * x
    return math.sqrt(total)


def sub(a, b):
    return [x - y for x, y in zip(a, b)]


def add(a, b):
    return [x + y for x, y in zip(a, b)]


def penalty(v):
    return abs(norm(v) - 1.0)


def nf1(fc, fd, rc, rd, gamma):
    return max(0.0, norm(sub(fc, fd)) + rc - rd - gamma) + penalty(fc) + penalty(fd)


def nf2(fc, fd, fe, rc, rd, gamma):
    return (
        max(0.0, norm(sub(fc, fd)) - rc - rd - gamma)
        + max(0.0, norm(sub(fc, fe)) - rc - gamma)
        + max(0.0, norm(sub(fd, fe)) - rd - gamma)
        + penalty(fc)
        + penalty(fd)
        + penalty(fe)
    )


def nf3(fc, fr, fd, rc, rd, gamma):
    return (
        max(0.0, norm(sub(add(fc, fr), fd)) + rc - rd - gamma)
        + penalty(fc)
        + penalty(fd)
    )


def nf3_var(fc, fr, fd, rc, rd, sigma, gamma):
    return (
        max(0.0, norm(sub(add(fc, fr), fd)) + rc - rd - sigma - gamma)
        + penalty(fc)
        + penalty(fd)
        + sigma
    )


def nf4(fc, fr, fd, rc, rd, gamma):
    return (
        max(0.0, norm(sub(sub(fc, fr), fd)) - rc - rd - gamma)
        + penalty(fc)
        + penalty(fd)
    )


def nf4_var(fc, fr, fd, rc, rd, sigma, gamma):
    return (
        max(0.0, norm(sub(sub(fc, fr), fd)) - rc - rd - sigma - gamma)
        + penalty(fc)
        + penalty(fd)
        + sigma
    )


def disjoint(fc, fd, rc, rd, gamma):
    return (
        max(0.0, rc + rd - norm(sub(fc, fd)) + gamma) + penalty(fc) + penalty(fd)
    )


def bottom(rc):
    return rc


def nf3_negative(fc, fr, fd, rc, rd, sigma, gamma):
    return (
        max(0.0, rc + rd + sigma + gamma - norm(sub(add(fc, fr), fd)))
        + penalty(fc)
        + penalty(fd)
    )


# --- baseline scores -------------------------------------------------------


def transe(eh, er, et):
    return -norm(sub(add(eh, er), et))


def transh(eh, er, et, w):
    wh = 0.0
    for i in range(len(w)):
        wh += w[i] * eh[i]
    wt = 0.0
    for i in range(len(w)):
        wt += w[i] * et[i]
    total = 0.0
    for i in range(len(w)):
        diff = (eh[i] - wh * w[i]) + er[i] - (et[i] - wt * w[i])
        total += diff * diff
    return -math.sqrt(total)


def distmult(eh, er, et):
    total = 0.0
    for i in range(len(eh)):
        total += eh[i] * er[i] * et[i]
    return total


# --- optimizer -------------------------------------------------------------


def adam(params, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam over one parameter block: *params* is a list of floats,
    *grads* one such list per step; returns the parameters after the last
    step."""
    x = list(params)
    m = [0.0] * len(x)
    v = [0.0] * len(x)
    for t, g in enumerate(grads, start=1):
        correction1 = 1.0 - beta1 ** t
        correction2 = 1.0 - beta2 ** t
        for i in range(len(x)):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g[i]
            v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] * g[i]
            m_hat = m[i] / correction1
            v_hat = v[i] / correction2
            x[i] -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return x


# --- train/valid/test split --------------------------------------------------


def _rankable_name(name):
    """Neither a normalization helper (``__nf_*``) nor a nominal class
    ``nominal(x)`` whose x holds no bracket, comma, '#' or whitespace."""
    if name.startswith("__nf_"):
        return False
    inner = name[len("nominal("):-1]
    nominal = (name.startswith("nominal(") and name.endswith(")") and inner
               and not any(ch in "(),#" or ch.isspace() for ch in inner))
    return not nominal


def split(axioms, class_names, seed, valid_frac, test_frac):
    """Hold-out of subclass pairs over plain data.

    *axioms* holds one ``(is_subclass_pair, class ids)`` per normal axiom in
    ontology order, the ids of a pair being ``(sub, sup)``.  A pair between
    two different rankable classes is eligible.  The eligible pairs are
    shuffled by ``default_rng(seed).permutation``; the first
    ``floor(test_frac * n)`` are the test part, the next
    ``floor(valid_frac * n)`` the valid part, the rest train.  Walking
    valid then test, a pair with a class no training axiom mentions goes
    to training, and the first training pair whose two classes are each
    mentioned at least twice (counted before the move) takes its place; with
    none, the part shrinks.  Returns the axiom indices of train (the
    ineligible axioms, then the eligible ones in training order), valid and
    test, the swap count, the eligible count and the rankable class count.
    """
    rankable = [i for i, name in enumerate(class_names) if _rankable_name(name)]
    ok = set(rankable)
    eligible, rest = [], []
    for i, (pair, ids) in enumerate(axioms):
        if pair and ids[0] != ids[1] and ids[0] in ok and ids[1] in ok:
            eligible.append(i)
        else:
            rest.append(i)
    n = len(eligible)
    if n < 10:
        raise ValueError("fewer than 10 eligible pairs")
    order = np.random.default_rng(seed).permutation(n)
    shuffled = [eligible[int(k)] for k in order]
    n_test = math.floor(test_frac * n)
    n_valid = math.floor(valid_frac * n)
    test = shuffled[:n_test]
    valid = shuffled[n_test:n_test + n_valid]
    kept = shuffled[n_test + n_valid:]
    mentions = {}
    for i in rest + kept:
        for c in axioms[i][1]:
            mentions[c] = mentions.get(c, 0) + 1
    swaps = 0
    parts = []
    for part in (valid, test):
        out = []
        for i in part:
            sub, sup = axioms[i][1]
            if mentions.get(sub, 0) and mentions.get(sup, 0):
                out.append(i)
                continue
            swaps += 1
            spare = None
            for j, k in enumerate(kept):
                a, b = axioms[k][1]
                if mentions.get(a, 0) >= 2 and mentions.get(b, 0) >= 2:
                    spare = j
                    break
            kept.append(i)
            mentions[sub] = mentions.get(sub, 0) + 1
            mentions[sup] = mentions.get(sup, 0) + 1
            if spare is not None:
                k = kept.pop(spare)
                a, b = axioms[k][1]
                mentions[a] -= 1
                mentions[b] -= 1
                out.append(k)
        parts.append(out)
    return rest + kept, parts[0], parts[1], swaps, n, len(rankable)
