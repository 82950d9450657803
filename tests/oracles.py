"""Independent straight-line scalar evaluations of every loss formula.

Deliberately written with plain Python floats and explicit loops: these are
the reference the vectorized implementations are checked against, so they
must not share any code with them.  All take effective (non-negative) radii
and slacks.
"""

import math


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
