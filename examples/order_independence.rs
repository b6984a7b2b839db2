//! Section 7: order-dependent vs. order-independent queries, the mechanical
//! checker, and the Cai–Fürer–Immerman pairs behind Theorem 7.7.
//!
//! Run with `cargo run -p srl-examples --bin order_independence`.

use srl_analysis::{analyze_order_dependence, OrderVerdict};
use srl_core::dsl::var;
use srl_core::{Env, ExecBackend, Program, Value};
use srl_examples::print_header;
use srl_stdlib::hom;
use workloads::cfi::{cfi_pair, BaseGraph};
use workloads::wl::{wl1_equivalent, wl2_equivalent};

fn main() {
    let program = Program::srl();
    let env = Env::new()
        .bind("S", Value::set([Value::atom(2), Value::atom(9)]))
        .bind("P", Value::set([Value::atom(9)]));

    print_header("Purple(First(S)) — the paper's order-dependent query");
    let verdict = analyze_order_dependence(
        ExecBackend::default(),
        &program,
        &hom::purple_first(var("S"), var("P")),
        &env,
        12,
        16,
    );
    match verdict {
        OrderVerdict::ProvedDependent { witness_seed } => {
            println!("proved order-DEPENDENT (witness renaming seed {witness_seed})")
        }
        other => println!("unexpected verdict {other:?}"),
    }

    print_header("EVEN via a proper hom — order-independent");
    let verdict = analyze_order_dependence(
        ExecBackend::default(),
        &program,
        &hom::even(var("S")),
        &env,
        12,
        8,
    );
    println!("verdict: {verdict:?}");

    print_header("Cai–Fürer–Immerman pairs (Theorem 7.7)");
    for n in [4usize, 6] {
        let (g, h) = cfi_pair(&BaseGraph::cycle(n));
        println!(
            "base C{n}: 1-WL equivalent = {}, components {} vs {} (so non-isomorphic, and a linear-time order-using scan tells them apart)",
            wl1_equivalent(&g.graph, &h.graph),
            g.connected_components(),
            h.connected_components(),
        );
    }
    let (g, h) = cfi_pair(&BaseGraph::k4());
    println!(
        "base K4: 1-WL equivalent = {}, 2-WL equivalent = {} — even two-variable counting logic is blind to the twist",
        wl1_equivalent(&g.graph, &h.graph),
        wl2_equivalent(&g.graph, &h.graph),
    );
}
