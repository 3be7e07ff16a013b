//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p tlbdown-bench --bin figures -- all
//! cargo run --release -p tlbdown-bench --bin figures -- fig6 table4 --quick
//! ```
//!
//! The requested targets' jobs run on the sweep pool across all host
//! cores; the printed text does not depend on the core count.

use std::process::ExitCode;

use tlbdown_bench::{render_targets, Scale, TARGETS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let mut targets: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    if targets.is_empty() || targets.contains(&"all") {
        targets = TARGETS.to_vec();
    }
    if let Some(other) = targets.iter().find(|t| !TARGETS.contains(t)) {
        eprintln!(
            "unknown target '{other}'; expected one of: all {} [--quick]",
            TARGETS.join(" ")
        );
        return ExitCode::from(2);
    }
    match render_targets(&targets, scale, 0) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
