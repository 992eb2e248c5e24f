//! CLI: `cargo run -p simlint [-- <root>] [--format text|json|github] [--no-cache]`.
//!
//! `text` prints `file:line: rule: message` diagnostics; `json` prints one
//! machine-readable object with every finding; `github` prints workflow
//! annotation lines (`::error file=…`) so findings attach to the diff in
//! pull-request review. Exit status: 0 clean, 1 findings, 2 usage/IO error.

use std::path::PathBuf;

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Github,
}

fn usage() -> ! {
    eprintln!("usage: simlint [root] [--format text|json|github] [--no-cache]");
    std::process::exit(2);
}

fn main() {
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut use_cache = true;
    // CLI argv is the one sanctioned environment read in this binary.
    let mut args = std::env::args().skip(1); // simlint: allow(wallclock, CLI flag parsing)
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => {
                format = match args.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some("github") => Format::Github,
                    _ => usage(),
                };
            }
            "--no-cache" => use_cache = false,
            _ if arg.starts_with('-') => usage(),
            _ if root.is_none() => root = Some(PathBuf::from(arg)),
            _ => usage(),
        }
    }
    let root = root.unwrap_or_else(
        // Default to the workspace root relative to this crate's manifest,
        // so the gate works regardless of the invoker's working directory.
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
    );

    match simlint::lint_root_opts(&root, use_cache) {
        Ok(findings) => {
            report(&findings, format);
            if !findings.is_empty() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("simlint: error: {e}");
            std::process::exit(2);
        }
    }
}

fn report(findings: &[simlint::Finding], format: Format) {
    match format {
        Format::Text => {
            if findings.is_empty() {
                println!("simlint: clean");
                return;
            }
            for f in findings {
                println!("{f}");
            }
            eprintln!("simlint: {} finding(s)", findings.len());
        }
        Format::Json => {
            // Streamed by hand so the CLI needs no Value tree; field order
            // is fixed, so output is byte-deterministic.
            let mut out = String::from("{\"findings\":[");
            for (i, f) in findings.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"file\":{},\"line\":{},\"rule\":{},\"msg\":{}}}",
                    telemetry::json::escape(&f.file),
                    f.line,
                    telemetry::json::escape(f.rule),
                    telemetry::json::escape(&f.msg),
                ));
            }
            out.push_str(&format!("],\"count\":{}}}", findings.len()));
            println!("{out}");
        }
        Format::Github => {
            for f in findings {
                // https://docs.github.com/actions workflow commands: the
                // message part must keep to one line.
                println!(
                    "::error file={},line={},title=simlint {}::{}",
                    f.file,
                    f.line,
                    f.rule,
                    f.msg.replace('\n', " ")
                );
            }
            if findings.is_empty() {
                println!("simlint: clean");
            } else {
                eprintln!("simlint: {} finding(s)", findings.len());
            }
        }
    }
}
