"""Set-up probe: what a fresh ``sddelab`` process pays before its first replica.

    python3 perfbench/setup_probe.py CONFIG.json N [N ...]

Imports ``sddelab.cli``, loads the config, then draws the first Wiener and
fBm paths on each driver grid N, which fills the cached Cholesky factor.
``run.py`` times the whole process from spawn to exit.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    config_path, *grids = argv
    import sddelab.cli  # noqa: F401  (the import every CLI run pays)
    from sddelab import FbmParams, SeedSpec, sample_fbm, sample_wiener
    from sddelab.config import load_config

    cfg = load_config(config_path).payload
    seed = SeedSpec(cfg.seed, 0)
    for n in map(int, grids):
        sample_wiener(n, cfg.horizon, cfg.spec.n_wiener, seed.child(0))
        sample_fbm(FbmParams(cfg.params.hurst, n, cfg.horizon, cfg.driver_method),
                   seed.child(1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
