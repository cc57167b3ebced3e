#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

//! Experiment harness for the LiveSec reproduction.
//!
//! One module per experiment of the paper's evaluation (§V), as
//! indexed in `DESIGN.md`; the three scrubbed-goodput experiments
//! share one campus:
//!
//! | id | module | paper artifact |
//! |----|--------|----------------|
//! | E1 | [`access`] | §V-B.1 access throughput (OvS vs Pantou) |
//! | E2 | [`Scrub::one_host`](goodput::Scrub::one_host) | §V-B.1 SE scaling (421 → 827 Mbps → NIC cap) |
//! | E3 | [`Scrub::deployment`](goodput::Scrub::deployment) | §V-B.1 aggregate capacity (8 Gbps IDS / 2 Gbps proto-id) |
//! | E4 | [`balance_exp`] | §V-B.2 load-balance deviation (≤5% for min-load) |
//! | E5 | [`latency`] | §V-B.3 latency overhead (≈ +10%) |
//! | E6/E7 | [`viz`] | Figures 7–8 WebUI frames and event replay |
//! | E8 | [`policy_demo`] | Figure 3 interactive policy enforcement |
//! | E9 | [`balance_exp`] (2 hosts, 2 elements) | Figure 4 load-balancing schematic |
//! | E10 | [`ablation`] | design-choice ablations (ours) |
//! | E11 | [`Scrub::baseline`](goodput::Scrub::baseline) | traditional gateway middlebox vs LiveSec (Fig. 1 vs Fig. 2) |
//!
//! Each module returns plain results. The one binary, `src/bin/exp.rs`,
//! runs every experiment at its recorded seed and prints one
//! `E<id>.<name> <value>` line per reported number; its output is
//! committed as `BENCH_paper.txt`, which `scripts/check.sh` diffs and
//! `tests/paper_bounds.rs` holds to the paper's bounds. The simulator's
//! wall-clock cost is the end-to-end benchmark's `sim_speed`
//! (EXPERIMENTS.md E25).

pub mod ablation;
pub mod access;
pub mod balance_exp;
pub mod goodput;
pub mod latency;
pub mod policy_demo;
pub mod viz;
