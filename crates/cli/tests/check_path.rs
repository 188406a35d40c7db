//! `circ check` and its batch child mode `circ check --row-json` take
//! one check path: the same budget split, the same verdict. Flags a
//! subcommand would silently ignore are usage errors.

use std::path::PathBuf;
use std::process::{Command, Output};

fn circ() -> Command {
    Command::new(env!("CARGO_BIN_EXE_circ"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two independent race variables with identical check costs.
const TWO_VARS: &str = "global int a;\nglobal int b;\n#race a;\n#race b;\n\
    thread t { loop { atomic { a = a + 1; } atomic { b = b + 1; } } }\n";

fn check(file: &str, extra: &[&str]) -> Output {
    circ().arg("check").arg(file).args(extra).output().unwrap()
}

#[test]
fn check_splits_the_memory_budget_like_row_json() {
    let dir = tmp("two-vars");
    let path = dir.join("two.nesl");
    std::fs::write(&path, TWO_VARS).unwrap();
    let file = path.to_str().unwrap();

    // One variable's accounted memory, from an unbudgeted run.
    let out = check(file, &["--json"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let per_var: Vec<u64> = stdout
        .lines()
        .filter_map(|l| l.split("\"mem_charged_bytes\":").nth(1))
        .map(|rest| rest.split([',', '}']).next().unwrap().parse().unwrap())
        .collect();
    assert_eq!(per_var.len(), 2, "one stats line per variable: {stdout}");
    let one = per_var.iter().copied().max().unwrap();

    // Enough for one variable, not for two: the split gives each
    // variable half, so both paths run out of budget.
    let limit = (one * 3 / 2).to_string();
    let human = check(file, &["--mem-limit-bytes", &limit]);
    let row = check(file, &["--row-json", "--mem-limit-bytes", &limit]);
    assert_eq!(human.status.code(), Some(3), "{}", String::from_utf8_lossy(&human.stdout));
    assert_eq!(row.status.code(), Some(3));
    let row = circ_batch::parse_row_json(String::from_utf8_lossy(&row.stdout).trim()).unwrap();
    assert_eq!(row.verdict, circ_batch::Verdict::BudgetExhausted);

    // Two variables' worth is enough under both.
    let limit = (one * 2).to_string();
    assert_eq!(check(file, &["--mem-limit-bytes", &limit]).status.code(), Some(0));
    assert_eq!(check(file, &["--row-json", "--mem-limit-bytes", &limit]).status.code(), Some(0));
}

#[test]
fn ignored_flags_are_usage_errors() {
    for args in [
        &["batch", "m.nesl", "--asserts"][..],
        &["batch", "m.nesl", "--row-json"],
        &["check", "m.nesl", "--journal", "j.jsonl"],
        &["check", "m.nesl", "--isolate"],
        &["client", "--port", "9", "--jobs", "2", "m.nesl"],
    ] {
        let out = circ().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(64), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("does not take"), "{args:?}");
    }
}
