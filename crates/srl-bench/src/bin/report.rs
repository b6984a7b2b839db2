//! Prints the experiment tables (E1–E9) pinned in `BENCH_1.json` (see
//! `crates/README.md` for what each experiment measures).
//!
//! Usage: `cargo run -p srl-bench --release --bin report [--json]
//! [--backend vm|tree] [--threads N]`
//!
//! Runs on the default backend (the sequential bytecode VM) unless
//! `--backend` pins one; `--threads N` runs the VM with an `N`-worker pool
//! for proper-hom folds. The two flags are read by
//! `PipelineConfig::with_settings`, the parser `srl run` uses, so they
//! take the same words, combine the same way in either order (`--backend
//! tree --threads N` is an error) and fail with the same messages, each
//! exiting 2; so does any other argument. The semantic rows are invariant
//! along both axes: every engine configuration produces byte-identical
//! `EvalStats`, so `--backend tree` and `--threads 4` must each print
//! exactly the same report (CI diffs all three against `BENCH_1.json`).

use srl_bench::*;
use srl_core::{ExecBackend, PipelineConfig};

/// The flags: whether `--json` was given, and the engine's backend. Any
/// other argument is an error, so a mistyped flag cannot run the default
/// engine in silence.
fn parse_args(args: &[String]) -> Result<(bool, ExecBackend), String> {
    let mut json = false;
    let mut settings = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = match arg.as_str() {
            "--json" => {
                json = true;
                continue;
            }
            "--backend" => "backend",
            "--threads" => "threads",
            other => return Err(format!("unexpected argument `{other}` to `report`")),
        };
        settings.push((name, it.next().map_or("", String::as_str)));
    }
    let config = PipelineConfig::new().with_settings(&settings)?;
    Ok((json, config.backend))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (json, backend) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut all = Vec::new();
    all.extend(experiment_e1(backend, &[4, 6, 8]));
    all.extend(experiment_e2(backend, &[2, 4, 8, 12]));
    all.extend(experiment_e3(backend, &[8, 16, 32]));
    all.extend(experiment_e4(backend, &[4, 6, 8]));
    all.extend(experiment_e5(backend, &[6, 10, 14]));
    all.extend(experiment_e6(backend, &[2, 4, 8]));
    all.extend(experiment_e7(backend, &[4, 8, 16, 32]));
    all.extend(experiment_e8(backend, &[4, 5, 6]));
    all.extend(experiment_e9(backend, &[8, 16, 32]));
    if json {
        println!("{}", to_json(&all));
    } else {
        println!("{}", to_markdown(&all));
        let disagreements = all.iter().filter(|r| !r.agrees_with_baseline).count();
        println!(
            "\n{} rows, {} disagreement(s) with the native baselines.",
            all.len(),
            disagreements
        );
    }
}
