//! Prints the experiment tables (E1–E9) pinned in `BENCH_1.json` (see
//! `crates/README.md` for what each experiment measures).
//!
//! Usage: `cargo run -p srl-bench --release --bin report [--json]
//! [--backend vm|tree] [--threads N]`
//!
//! Runs on the default backend (the sequential bytecode VM) unless
//! `--backend` pins one; `--threads N` runs the VM with an `N`-worker pool
//! for proper-hom folds. The semantic rows are invariant along both axes:
//! every engine configuration produces byte-identical `EvalStats`, so
//! `--backend tree` and `--threads 4` must each print exactly the same
//! report (CI diffs all three against `BENCH_1.json`).

use srl_bench::*;
use srl_core::ExecBackend;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    // Both flags are resolved before either takes effect, so the
    // contradictory `--backend tree --threads N` is rejected (in either
    // flag order) instead of one flag silently overriding the other.
    let backend_word = args
        .iter()
        .position(|a| a == "--backend")
        .map(|i| args.get(i + 1).map(String::as_str));
    let threads = match args.iter().position(|a| a == "--threads") {
        Some(i) => match args.get(i + 1).and_then(|w| w.parse::<usize>().ok()) {
            Some(n) if n >= 1 => Some(n),
            _ => {
                eprintln!("--threads expects a worker count ≥ 1");
                std::process::exit(2);
            }
        },
        None => None,
    };
    let backend = match (backend_word, threads) {
        (None, None) => ExecBackend::default(),
        (None | Some(Some("vm")), Some(n)) => ExecBackend::vm_with_threads(n),
        (Some(Some("vm")), None) => ExecBackend::vm(),
        (Some(Some("tree")) | Some(Some("tree-walk")), None) => ExecBackend::TreeWalk,
        (Some(Some("tree")) | Some(Some("tree-walk")), Some(_)) => {
            eprintln!("--threads requires the vm backend (the tree-walk has no worker pool)");
            std::process::exit(2);
        }
        (Some(None), _) => {
            eprintln!("--backend expects vm|tree");
            std::process::exit(2);
        }
        (Some(Some(other)), _) => {
            eprintln!("unknown --backend {other:?} (expected vm|tree)");
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
