//! The run manifest printed before any measurement: enough to trace every
//! number back to its seed, workload parameters, knobs, and build.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Escape `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render `(key, value)` pairs, values already JSON, as one JSON object.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Worker threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Build profile of this binary.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The git revision of the checkout the benchmark runs in, read from
/// `.git` in the working directory or an ancestor; `"unknown"` when there
/// is none (e.g. an exported source tree).
pub fn git_revision() -> String {
    let Ok(cwd) = std::env::current_dir() else {
        return "unknown".into();
    };
    cwd.ancestors()
        .map(|d| d.join(".git"))
        .find(|g| g.is_dir())
        .and_then(|g| read_head(&g))
        .unwrap_or_else(|| "unknown".into())
}

fn read_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    let loose: PathBuf = git.join(refname);
    if let Ok(rev) = std::fs::read_to_string(loose) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == refname).then(|| rev.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_quotes_and_controls() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(
            json_object(&[("k", "1".into()), ("s", json_str("x"))]),
            "{\"k\": 1, \"s\": \"x\"}"
        );
    }
}
