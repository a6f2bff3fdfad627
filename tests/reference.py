"""The reference stratified resampler the replicate tests compare against.

``resample_within_groups`` draws one resample as a dataset, through the
same draw plan and block substreams as the bootstrap's replicate build,
so a metric of the resampled dataset is the replicate the build should
give for that iteration. The audit never calls it; it builds replicate
sums without materialising a dataset.
"""

from __future__ import annotations

import numpy as np

from fairaudit import AuditDataset, InputError
from fairaudit.inference import SEED_DEFAULT, _draw, _draw_plan
from fairaudit.metrics import _cells


def resample_within_groups(
    dataset: AuditDataset, seed: int = SEED_DEFAULT, iteration: int = 0
) -> AuditDataset:
    """One stratified resample: per-group draws with replacement.

    Group sizes are preserved exactly. A group's resample is the one at
    ``iteration`` in its block (see the module docstring): its records
    are drawn within the group's cells (cut by decision only when no
    record of the group lacks one) and taken cell by cell. They depend
    only on (seed, iteration, label) and the group's records, and they
    are the resample behind that iteration's bootstrap replicate.

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
        plan = _draw_plan(label, cells)
        row = iteration % plan.rows
        counts, draws = _draw(plan, seed, iteration - row)
        before = counts[:row].sum(axis=0)
        picks = [
            drawn[before[c] : before[c] + counts[row, c]]
            for c, drawn in zip(plan.cells, draws)
        ]
        parts.append(cells.rows[np.concatenate(picks)])
    return dataset.take(np.concatenate(parts))
