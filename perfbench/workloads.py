"""
The benchmark's workloads: named job lists, each job drawn by the seed
from a small pool of interchangeable inputs.

A pool holds inputs of equal word length whose languages have the same
size, or sizes within 0.6%: multiplicity vectors with (nearly) the same
212 product, rearrangements of a multinomial shape, and the reverse and
complement images of a pattern set (reversal keeps a shape, complement
reverses it, so on shapes with equal multiplicities all images have the
same number of words).  Generation jobs keep only images for which the
greedy engine is complete.  The seed also fixes the job order.  The
program receives only the drawn argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# 212 products: 2^8 -> 2,027,025 (others +0.02%, -0.3%);
# 2^7 -> 135,135 (-0.26%, -0.54%); 2^6 -> 10,395 (-0.26%)
POOLS = {
    "n16": ("2^8", "1,2,4,3,1,3,1,1", "2,1,4,1,3,1,2,2"),
    "n14": ("2^7", "1,4,2,1,3,1,2", "3,1,1,2,2,4,1"),
    "n12": ("2^6", "1,4,2,1,3,1", "2,1,4,1,3,1"),
    # rearrangements keep the multinomial; 12121 cannot occur with two copies
    "free8": ("2,2,2,1,1", "2,1,2,2,1", "1,2,2,1,2", "2,2,1,1,2"),
    "dense8": ("2,2,1,1,1,1", "1,1,2,1,1,2", "1,2,1,1,2,1", "2,1,1,1,1,2"),
    # reverse and complement images
    "catalan": ("231", "132", "213", "312"),
    "kcatalan": ("132,121", "231,121", "312,212", "213,212"),
    "zigzag9": tuple(
        (s, p)
        for s in ("2,2,2,2,1", "2,2,1,2,2", "1,2,2,2,2", "2,1,2,2,2")
        for p in ("231", "132")
    ),
}


@dataclass(frozen=True)
class Job:
    """One call into the program.  `kind` is "cli" (argv for
    `parse_and_dispatch`) or "stream" (argv[0] is the shape handed to
    `generate_loopless`).  `role` is "generate", "verify" or "other";
    `headline` marks the job whose first output byte is timed."""

    name: str
    kind: str
    argv: tuple[str, ...]
    role: str
    headline: bool = False


# name, kind, role, headline, pool (None: fixed argv), argv template.
# Jobs naming the same pool get the same draw.
_SPECS = {
    "loopless-212": [
        ("stream", "stream", "generate", False, "n16", ("{}",)),
        ("text", "cli", "generate", True, "n14", ("generate", "--shape", "{}", "--avoid", "212")),
        ("json", "cli", "generate", False, "n14",
         ("generate", "--shape", "{}", "--avoid", "212", "--format", "json")),
        ("dot", "cli", "generate", False, "n12",
         ("generate", "--shape", "{}", "--avoid", "212", "--format", "dot")),
        ("path", "cli", "generate", False, "n12", ("path", "--shape", "{}")),
        ("trees", "cli", "generate", False, "n12", ("trees", "--shape", "{}")),
        # the cap keeps the oracle out: exhaustiveness is left undecided
        ("verify", "cli", "verify", False, "n12",
         ("verify", "--shape", "{}", "--avoid", "212", "--cap", "1000")),
    ],
    "greedy-dense": [
        ("text", "cli", "generate", True, None, ("generate", "--shape", "1^8", "--avoid", "12121")),
        ("free", "cli", "generate", False, "free8", ("generate", "--shape", "{}")),
        ("json", "cli", "generate", False, None,
         ("generate", "--shape", "2,2,1,1,1,1", "--avoid", "212", "--engine", "greedy",
          "--format", "json")),
        ("verify", "cli", "verify", False, "dense8", ("verify", "--shape", "{}", "--avoid", "12121")),
        ("kary", "cli", "generate", False, None, ("trees", "--kind", "kary", "--shape", "2^4")),
    ],
    "oracle-sparse": [
        ("count-perm", "cli", "other", False, "catalan", ("count", "--shape", "1^8", "--avoid", "{}")),
        ("count-word", "cli", "other", False, "catalan", ("count", "--shape", "2^5", "--avoid", "{}")),
        ("count-kperm", "cli", "other", False, "kcatalan", ("count", "--shape", "1^8", "--avoid", "{}")),
        ("count-kword", "cli", "other", False, "kcatalan", ("count", "--shape", "2^5", "--avoid", "{}")),
        ("peakless", "cli", "generate", True, None,
         ("generate", "--shape", "1^8", "--avoid", "132,231,121")),
        ("verify", "cli", "verify", False, None, ("verify", "--shape", "2^5", "--avoid", "212")),
        ("zigzag", "cli", "other", False, "zigzag9",
         ("zigzag", "--shape", "{0}", "--avoid", "{1}", "--mode", "semantic")),
    ],
}

WORKLOADS = tuple(_SPECS)


def draw(workload: str, seed: int) -> list[Job]:
    """The seed's job list: one member of each pool, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    picks = {key: rng.choice(values) for key, values in POOLS.items()}
    jobs = []
    for name, kind, role, headline, pool, template in _SPECS[workload]:
        pick = picks[pool] if pool else ()
        args = pick if isinstance(pick, tuple) else (pick,)
        jobs.append(Job(name, kind, tuple(a.format(*args) for a in template), role, headline))
    rng.shuffle(jobs)
    return jobs
