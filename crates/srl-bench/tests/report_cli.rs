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
    assert_eq!(stderr.trim(), "--backend expects vm|tree");
}

#[test]
fn an_unknown_backend_is_named() {
    let (code, stderr) = report(&["--backend", "gpu"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains(r#"unknown --backend "gpu""#), "{stderr}");
}
