//! Usage errors of the `report` binary. Each one exits 2 before any
//! experiment runs, so these spawns are fast.

use std::process::Command;

fn report(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("report spawns");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn backend_without_a_value_names_the_choices() {
    let (code, stderr) = report(&["--backend"]);
    assert_eq!(code, Some(2));
    assert_eq!(
        stderr.trim(),
        "error: missing backend name (valid backends: vm, tree, tree-walk)"
    );
}

#[test]
fn an_unknown_backend_is_named() {
    let (code, stderr) = report(&["--backend", "gpu"]);
    assert_eq!(code, Some(2));
    assert_eq!(
        stderr.trim(),
        "error: unknown backend `gpu` (valid backends: vm, tree, tree-walk)"
    );
}

#[test]
fn threads_with_the_tree_walk_is_rejected_in_either_order() {
    for args in [
        ["--backend", "tree", "--threads", "2"],
        ["--threads", "2", "--backend", "tree"],
    ] {
        let (code, stderr) = report(&args);
        assert_eq!(code, Some(2), "{args:?}");
        assert_eq!(
            stderr.trim(),
            "error: the tree-walk backend has no worker pool (threads apply to vm only)",
            "{args:?}"
        );
    }
}
