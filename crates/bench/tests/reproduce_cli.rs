//! Pins the `reproduce` binary's command-line surface without running an
//! experiment: the experiment ids it advertises, and exit status 2 on
//! anything it does not understand.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("spawn reproduce")
}

#[test]
fn unknown_experiment_exits_2_and_lists_every_id() {
    let out = reproduce(&["bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let ids = stderr
        .trim_end()
        .split_once("available: ")
        .map(|(_, ids)| ids)
        .unwrap_or_else(|| panic!("no usage line in {stderr:?}"));
    assert_eq!(
        ids,
        "fig1 fig4 tab1 fig6 tab2 fig8 fig9 fig10 fig11 fig12 fig13 \
         cache ablations prefetch production all"
    );
}

#[test]
fn unknown_flag_exits_2() {
    let out = reproduce(&["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag '--bogus'"));
}
