//! `qo-lint` CLI — run the determinism rules clippy cannot express over
//! the workspace.
//!
//! ```text
//! cargo run -p qo-lint --            # report findings (exit 0)
//! cargo run -p qo-lint -- --deny     # exit nonzero on any finding (CI gate)
//! cargo run -p qo-lint -- --json     # machine-readable report on stdout
//! cargo run -p qo-lint -- --list-rules
//! cargo run -p qo-lint -- --root /path/to/workspace
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny = false;
    let mut json = false;
    let mut list_rules = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--json" => json = true,
            "--list-rules" => list_rules = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("qo-lint: --root needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "qo-lint — seed-salt and parallel-accumulation static analysis\n\
                     (hash order, wall clock and unwraps are clippy's: see clippy.toml)\n\n\
                     USAGE: qo-lint [--deny] [--json] [--list-rules] [--root PATH]\n\n\
                     --deny        exit nonzero when any finding remains\n\
                     --json        machine-readable findings on stdout\n\
                     --list-rules  print the rule table\n\
                     --root PATH   workspace root (default: walk up from cwd)"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("qo-lint: unknown argument `{other}` (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }

    if list_rules {
        for rule in qo_lint::RULES {
            println!("{} [{}] {}", rule.id, rule.key, rule.summary);
        }
        return ExitCode::SUCCESS;
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().expect("cwd is readable");
            match qo_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("qo-lint: no workspace root above {}", cwd.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let diags = qo_lint::lint_workspace(&root);
    if json {
        print!("{}", qo_lint::render_json(&diags));
    } else {
        for d in &diags {
            println!("{}", d.render());
        }
        if diags.is_empty() {
            println!("qo-lint: clean ({} rules)", qo_lint::RULES.len() - 1);
        } else {
            println!("qo-lint: {} finding(s)", diags.len());
        }
    }
    if deny && !diags.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
