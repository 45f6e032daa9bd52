"""The four pinned CLI workloads and the artifact digests they must reproduce.

Inputs are the paper's fixed configs, not generated data, so a workload is
the same on every seed.  ``digest`` is the SHA-256 of the artifact set
(every file the run writes except ``config.txt``, which embeds the output
directory), recorded at the commit that introduced this benchmark.  The
package promises byte-identical artifacts for identical inputs, so any
change of digest is a failed run, not a new baseline.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    config: str
    digest: str
    replay: bool = False   # also check the bitwise policy replay


WORKLOADS = {
    w.name: w for w in (
        # 628 points x 200 levels, 2 controls; the 6.6 MB solution.csv
        # writer dominates, the step kernel is under 5%.
        Workload(
            name="solve-eikonal",
            mode="solve",
            config="benchmark: eikonal-cos\nscheme.h: 0.01\nscheme.T: 1\n",
            digest="77e9fdadf5e7bbcb93b0456facf72a92b9857c4ccc9146bd88f713c45d31e7ce",
        ),
        # 201 points x 100 levels x 21 controls: one direct solve, 5
        # evaluations, 4 improvements; candidate evaluation dominates.
        Workload(
            name="pi-lq",
            mode="pi",
            config="benchmark: quadratic-lq\nscheme.h: 0.02\nscheme.T: 1\n",
            digest="36b6ad937c0153a399c24f7cc7ba0b66f4d82b4ce7c65f63fe3fe8fdd67f259d",
            replay=True,
        ),
        # Four direct solves scored against the brute-force Hopf-Lax oracle;
        # tiny artifacts, no policy iteration: the bypass workload.
        Workload(
            name="h-study",
            mode="h-study",
            config="benchmark: eikonal-cos\nstudy.h_values: 0.2, 0.1, 0.05, 0.025\n",
            digest="bc18f7c87924f1f059c8f71a589918d8f3dc9b4d99f7198b9a09bef4b539a56e",
        ),
        # 628 points x 500 forward levels, 5 iterations, no control set: the
        # only path through the Legendre-linearized solver.
        Workload(
            name="legendre-pi",
            mode="legendre-pi",
            config="benchmark: eikonal-cos\nscheme.h: 0.01\nlegendre.M: 2\n",
            digest="e45249f2f558f34557a181cea8664ec2111a583f8c51ff220dd1a2fc55926c9d",
        ),
    )
}


def artifact_digest(outdir):
    """SHA-256 over (name, content hash) of every artifact but config.txt."""
    total = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        if name == "config.txt":
            continue
        with open(os.path.join(outdir, name), "rb") as fh:
            content = hashlib.sha256(fh.read()).digest()
        total.update(name.encode() + b"\0" + content)
    return total.hexdigest()
