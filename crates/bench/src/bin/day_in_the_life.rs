//! A day in the life of a shared worknet — the paper's motivating scenario
//! (§1.0) end to end.
//!
//! Eight owned workstations with synthesized owner sessions and load
//! bursts. A long Opt training job runs under MPVM + the CPE global
//! scheduler, getting evacuated every time an owner sits down, and is
//! compared against the same job on a dedicated (quiet, unshared) cluster.
//! The difference is the total price of staying unobtrusive.
//!
//! The scenario itself lives in [`bench_tables::scenarios::day_in_the_life`]
//! so the gate tests can reuse it.

use bench_tables::scenarios::{day_in_the_life, DayConfig};

fn main() {
    let seed = 1994;
    println!("an hour on 8 shared, owned workstations (seed {seed})\n");
    let dedicated = day_in_the_life(&DayConfig::full(false, seed));
    let shared = day_in_the_life(&DayConfig::full(true, seed));
    assert!(
        dedicated.converged && shared.converged,
        "training converges"
    );
    println!("evacuations driven by owner activity:");
    for l in &shared.decisions {
        println!("  {l}");
    }
    println!("\n{:<40} {:>12}", "cluster", "job runtime");
    println!(
        "{:<40} {:>11.1}s",
        "dedicated (quiet, unshared)", dedicated.job_end_secs
    );
    println!(
        "{:<40} {:>11.1}s",
        "shared + MPVM adaptive migration", shared.job_end_secs
    );
    println!("\nper-host parallel-compute utilization over the job window:");
    for (h, u) in shared.utilization.iter().enumerate() {
        println!("  ws{h}: {:>5.1}%", u * 100.0);
    }
    println!(
        "\nthe job survived {} owner reclamations, never squatted on an\n\
         owned machine, and paid {:.0}% in runtime for it — the worknet's\n\
         'effectively free' cycles (§1.0) with unobtrusiveness preserved.",
        shared.decisions.len(),
        (shared.job_end_secs / dedicated.job_end_secs - 1.0) * 100.0
    );
}
