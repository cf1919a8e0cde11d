//! CI gate: `cargo run -p atomics-audit [-- --root DIR]`.
//!
//! Exit codes: 0 clean, 1 findings, 2 operational error (unreadable
//! source, missing scope directory).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = default_root();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a value"),
            },
            "--help" | "-h" => {
                print!("{HELP}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    match atomics_audit::audit(&root) {
        Ok(outcome) => {
            for f in &outcome.findings {
                println!("{f}");
            }
            let s = &outcome.stats;
            println!(
                "atomics-audit: {} files, {} atomic sites, {} unsafe occurrences, {} finding(s)",
                s.files,
                s.sites,
                s.unsafes,
                outcome.findings.len(),
            );
            if outcome.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("atomics-audit: {e}");
            ExitCode::from(2)
        }
    }
}

/// The workspace root: two levels up from this crate's manifest dir
/// when run via `cargo run -p atomics-audit`, else the cwd.
fn default_root() -> PathBuf {
    if let Ok(dir) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(dir);
        if let Some(root) = p.ancestors().nth(2) {
            return root.to_path_buf();
        }
    }
    PathBuf::from(".")
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("atomics-audit: {msg}\n{HELP}");
    ExitCode::from(2)
}

const HELP: &str = "\
Usage: cargo run -p atomics-audit [-- --root DIR]

Audits every atomic call site and unsafe occurrence in the scoped
crates against the `// ord(...)` tags above them. Exit 0 = clean,
1 = findings, 2 = error.

Options:
  --root DIR        workspace root (default: autodetected)
  -h, --help        this text
";
