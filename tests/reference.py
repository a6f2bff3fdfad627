"""The reference stratified resampler the replicate tests compare against.

``resample_within_groups`` draws one resample as a dataset. It restates
the replicate build's random stream on its own, from the block
substreams alone (see the ``fairaudit.inference`` docstring), so a metric
of the resampled dataset is the replicate the build should give for that
iteration, and the replicate tests check the stream as well as the sums.
The audit never calls it; it builds replicate sums without materialising
a dataset.
"""

from __future__ import annotations

import numpy as np

from fairaudit import AuditDataset, InputError
from fairaudit.inference import SEED_DEFAULT, _block_rows, _group_key, _substream
from fairaudit.metrics import _cells


def resample_within_groups(
    dataset: AuditDataset, seed: int = SEED_DEFAULT, iteration: int = 0
) -> AuditDataset:
    """One stratified resample: per-group draws with replacement.

    Group sizes are preserved exactly. A group's resample is the one at
    ``iteration`` in its block. The block's substream draws every
    resample's counts over the group's cells (cut by decision only when
    no record of the group lacks one) in one Multinomial(n, sizes / n)
    call, then each non-empty cell's records for all resamples in turn,
    cell by cell, and the resample takes its share of each. It depends
    only on (seed, iteration, label) and the group's records, and it is
    the resample behind that iteration's bootstrap replicate.

    Metrics of the returned dataset equal that replicate's bit for bit,
    with one exception. When a group has a record without a decision and
    the resample misses it, every resampled record has a decision, so
    the resampled group is cut by decision where its replicate was not.
    Its score sums then add the same records in another order, and its
    score metrics equal the replicate's only to rounding.
    """
    if seed < 0 or iteration < 0:
        raise InputError("seed and iteration must be non-negative")
    parts = []
    for label in dataset.groups:
        cells = _cells(dataset, label)
        sizes = cells.sizes
        n = int(sizes.sum())
        rows = _block_rows(n)
        row = iteration % rows
        rng = _substream(seed, iteration - row, _group_key(label))
        nonempty = np.flatnonzero(sizes)
        counts = rng.multinomial(n, sizes[nonempty] / n, size=rows)
        before = counts[:row].sum(axis=0)
        ends = np.cumsum(sizes)[nonempty]
        picks = []
        for j, (low, high) in enumerate(zip(ends - sizes[nonempty], ends)):
            drawn = rng.integers(low, high, counts[:, j].sum())
            picks.append(drawn[before[j] : before[j] + counts[row, j]])
        parts.append(cells.rows[np.concatenate(picks)])
    return dataset.take(np.concatenate(parts))
