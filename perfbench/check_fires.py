"""Show that every check in checks.py passes on sound input and fires on a
corrupted copy of it.

    python3 perfbench/check_fires.py

Prints one line per corruption and exits 1 if a check misses one, or
rejects the sound input. Runs in a few seconds; it needs no generated files.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from generate import TRAIN_CLASS_COUNTS  # noqa: E402
from kanfed import data, models  # noqa: E402
from kanfed.numerics import RngStream  # noqa: E402

missed = []


def expect(check, label, sound_args, corrupt_args):
    """check(*sound_args) must pass and check(*corrupt_args) must fail."""
    try:
        check(*sound_args)
    except checks.CheckFailed as e:
        missed.append(f"{check.__name__} rejected sound input: {e}")
        return
    try:
        check(*corrupt_args)
    except checks.CheckFailed as e:
        print(f"fires  {check.__name__:28s} {label}: {e}")
    else:
        missed.append(f"{check.__name__} missed: {label}")


def main() -> int:
    gen = np.random.default_rng(0)

    for kind, count in checks.PAPER_PARAM_COUNTS.items():
        expect(checks.check_param_counts, f"{kind} one param short",
               (kind, count, count), (kind, count - 1, count))

    raw = gen.integers(0, 256, (300, 784), dtype=np.uint8)
    labels = gen.integers(0, 10, 300)
    images = (raw / 255.0 - checks.MNIST_MEAN) / checks.MNIST_STD
    expect(checks.check_loaded, "pixels scaled but not standardized",
           (images, labels, raw, labels), (raw / 255.0, labels, raw, labels))
    swapped = labels.copy()
    swapped[[0, 1]] = (labels[0] + 1) % 10, (labels[1] + 1) % 10
    expect(checks.check_loaded, "two labels changed",
           (images, labels, raw, labels), (images, swapped, raw, labels))

    train_labels = np.repeat(np.arange(10), TRAIN_CLASS_COUNTS)[gen.permutation(60_000)]
    parts = data.pathological_partition(
        data.Dataset(images=np.empty((60_000, 1)), labels=train_labels), 100, 2, RngStream(1))
    sound = [p.indices for p in parts]
    overlap = [ix.copy() for ix in sound]
    overlap[0] = np.append(overlap[0][1:], sound[1][0])
    dropped = [ix.copy() for ix in sound]
    dropped[0] = dropped[0][1:]
    third_label = [ix.copy() for ix in sound]
    donor = next(c for c in range(1, 100)
                 if set(train_labels[sound[c]]) - set(train_labels[sound[0]]))
    stray = next(i for i in sound[donor] if train_labels[i] not in set(train_labels[sound[0]]))
    third_label[0] = np.append(third_label[0], stray)
    third_label[donor] = third_label[donor][third_label[donor] != stray]
    big = int(np.argmax([len(ix) for ix in sound]))
    small = int(np.argmin([len(ix) for ix in sound]))
    lopsided = [ix.copy() for ix in sound]
    same_label = [i for i in sound[small] if train_labels[i] == train_labels[sound[small][0]]]
    moved = np.array(same_label[:200])
    lopsided[small] = lopsided[small][~np.isin(lopsided[small], moved)]
    lopsided[big] = np.concatenate([lopsided[big], moved])
    for label, corrupt in (("one sample in two clients", overlap),
                           ("one sample in no client", dropped),
                           ("a client with a third label", third_label),
                           ("200 samples moved to the largest client", lopsided)):
        expect(checks.check_partition, label, (sound, train_labels), (corrupt, train_labels))

    ids = list(range(0, 100, 10))
    for label, bad in (("a repeated id", ids[:9] + [0]), ("id 100", ids[:9] + [100]),
                       ("nine ids", ids[:9])):
        expect(checks.check_sampling, label, ([ids],), ([ids, bad],))

    x = gen.normal(0.0, 1.0, (16, 784))
    y = gen.integers(0, 10, 16)
    for kind in checks.PAPER_PARAM_COUNTS:
        state = models.init_params(models.default_config(kind), RngStream(5))
        logits, cache = models.forward(state, x)
        _, grad_logits = checks.mean_cross_entropy(logits, y)
        grad, _ = models.backward(state, cache, grad_logits)
        bent = grad.copy()
        bent[np.argmax(np.abs(grad))] *= 1.01
        expect(checks.check_directional_gradient, f"{kind} largest gradient entry 1% off",
               (kind, state.params, grad, x, y, 3), (kind, state.params, bent, x, y, 3))
        reference = checks.reference_forward(kind, state.params, x)
        nudged = logits.copy()
        nudged[0, 0] += 1e-6 * max(np.abs(reference).max(), 1.0)
        expect(checks.check_logits, f"{kind} one logit off by 1e-6", (logits, reference),
               (nudged, reference))

    sound_round = (2, 0.35, 0.8, 0.9, True)
    for label, corrupt, fault in (
        ("round 2 at 11% accuracy", (2, 0.11, 0.8, 0.9, True), "near chance"),
        ("NaN train loss", (2, 0.35, float("nan"), 0.9, True), "non-finite"),
        ("infinite test loss", (2, 0.35, 0.8, float("inf"), True), "non-finite"),
        ("non-finite params", (2, 0.35, 0.8, 0.9, False), "non-finite"),
    ):
        if checks.round_fault(*sound_round) is not None or checks.round_fault(*corrupt) != fault:
            missed.append(f"round_fault missed: {label}")
        else:
            print(f"fires  {'round_fault':28s} {label}: {fault}")
    if checks.round_fault(1, 0.11, 0.8, 0.9, True) is not None:
        missed.append("round_fault failed round 1 for its accuracy")
    expect(checks.check_same_hash, "two trials, two hashes", (["ab", "ab"],), (["ab", "ac"],))

    for line in missed:
        print(f"MISSED {line}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
