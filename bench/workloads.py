"""The benchmark's pinned workloads: one CLI command and config each.

Every workload runs as a cold `burstgic <command> --config CFG --seed SEED`
child. The seed is never part of a config: it reaches the program only
through `--seed`, so the same config serves every seed.

`layers` names the traced layers the workload must exercise (the smoke
check asserts calls > 0 for each); `cli.main` runs on every workload.
"""

WORKLOADS = {
    "detect": {
        "command": "detect",
        "why": "acceptance operating point of the detection chain; the only "
               "workload in detection (codebook draw, scan, decode)",
        "item": "receiver trace",
        "config": {
            "scenario": "detect", "n_values": [1000, 2000, 4000],
            "gamma1_db": 20, "gamma2_db": 20, "a1": 0.1, "a2": 0.1,
            "eps": 0.48, "M": 64, "trials": 50,
        },
        "layers": ("detection.draw", "detection.channel", "detection.scan",
                   "detection.decode"),
    },
    "design": {
        "command": "design",
        "why": "two-user design example at R = 0.8 lambda: nine active "
               "pairs over 150 spreads, pure-Python alpha analysis, no RNG",
        "item": "(pair, spread) outage value",
        "config": {
            "scenario": "design",
            "user1": {"k": 3, "q": 0.3, "P": 1000.0, "a": 0.5},
            "user2": {"k": 2, "q": 0.4, "P": 1000.0, "a": 0.7},
            "R1_over_lambda": 0.8, "R2_over_lambda": 0.8,
            "d_grid": [0.02, 3.0, 150],
        },
        "layers": ("design.active_set", "design.rbar_target",
                   "design.optimize_N", "design.admissible_alpha",
                   "design.inadmissible_alpha", "design.d_max",
                   "design.outage", "reliability.rate_bound",
                   "geometry.alpha_breakpoints", "model.derive_scheme_v"),
    },
    "region": {
        "command": "region",
        "why": "grid scenario with 183k cells: vectorized region_members "
               "plus a 7 MB CSV emission, no RNG",
        "item": "grid cell",
        "config": {
            "scenario": "grid",
            "user1": {"k": 2, "q": 0.3, "P_db": 20, "a": 0.5},
            "user2": {"k": 2, "q": 0.3, "P_db": 20, "a": 0.5},
            "N1": 2, "N2": 2, "theta1": 1.0, "theta2": 1.0, "alpha": 0.5,
            "m_grid": 40, "resolution": 0.01,
        },
        "layers": ("region.region_members", "region.rate_pair"),
    },
    "buffers": {
        "command": "buffers",
        "why": "arrival schedulers; no roadmap item targets them, so this "
               "is the should-not-move control",
        "item": "simulated arrival trace",
        "config": {
            "scenario": "buffers", "user": {"k": 2, "q": 0.3},
            "n_values": [300, 600, 1200, 2400], "N": 3, "theta": 1.3,
            "delta": 0.5, "trials": 600,
        },
        "layers": ("arrivals.run_async_scheduler",
                   "arrivals.run_sync_scheduler",
                   "arrivals.delay_gap_experiment",
                   "arrivals.immediacy_violation_freq"),
    },
}
