//! `ppslab` command-line surface: unknown flags and ids are rejected with
//! exit code 2 instead of being skipped or misread.

use std::process::Command;

fn ppslab(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ppslab"))
        .args(args)
        .output()
        .expect("spawn ppslab");
    let code = out.status.code().expect("ppslab exited by signal");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn unknown_flag_exits_2_and_names_it() {
    let (code, stderr) = ppslab(&["--bogus", "e1"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(
        stderr.contains("error:") && stderr.contains("--bogus"),
        "{stderr}"
    );
}

#[test]
fn removed_flags_are_unknown() {
    for args in [&["--intra-jobs", "2", "e1"][..], &["--parallel", "e1"]] {
        let (code, stderr) = ppslab(args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stderr.contains(args[0]), "{args:?}: {stderr}");
    }
}

#[test]
fn unknown_experiment_id_exits_2() {
    let (code, stderr) = ppslab(&["e99"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("e99"), "{stderr}");
}

#[test]
fn known_experiment_exits_0() {
    let (code, stderr) = ppslab(&["--jobs", "1", "e1"]);
    assert_eq!(code, 0, "{stderr}");
}
