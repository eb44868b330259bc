//! The front end's output, pinned byte for byte. Every script of two
//! corpora is lexed, parsed and bound, and each stage's result is folded
//! into a digest:
//!
//! * tokens: every token and its span (`Debug`), or the lex error
//!   (`Display`, span included);
//! * parse: the statements (`Debug`), or the error (`Display`, span
//!   included);
//! * bind: the plan's fingerprint and its node list (`Debug`), or the
//!   error's kind and message — not its span, which is the bind error's
//!   one position this digest leaves free.
//!
//! The corpora are about 200 generated templates across all six patterns,
//! each instantiated under a fresh and a sticky literal policy (the script
//! text is folded too), and the hostile mutation corpus of
//! `hostile_scripts.rs`. Plans feed every cache key and digest downstream,
//! so a moved constant is a changed front end: re-record one only on
//! purpose and say why.

mod mutations;

use scope_ir::ids::StableHasher;
use scope_lang::lexer::tokenize;
use scope_lang::{parse_script, Binder, Catalog, LangError};
use scope_workload::{LiteralPolicy, TemplateSpec};
use std::collections::BTreeSet;
use std::fmt::Write;

/// One corpus's digests plus how many inputs got how far.
#[derive(Debug, Default, PartialEq, Eq)]
struct Digest {
    inputs: usize,
    lexed: usize,
    parsed: usize,
    bound: usize,
    scripts: u64,
    tokens: u64,
    parses: u64,
    binds: u64,
}

#[derive(Default)]
struct Folder {
    inputs: usize,
    lexed: usize,
    parsed: usize,
    bound: usize,
    scripts: StableHasher,
    tokens: StableHasher,
    parses: StableHasher,
    binds: StableHasher,
}

impl Folder {
    fn fold(&mut self, src: &str, catalog: &Catalog) {
        self.inputs += 1;
        write!(self.scripts, "{src}\u{0}").unwrap();
        match tokenize(src) {
            Ok(tokens) => {
                self.lexed += 1;
                for t in &tokens {
                    write!(self.tokens, "{t:?};").unwrap();
                }
            }
            Err(e) => write!(self.tokens, "{e}").unwrap(),
        }
        writeln!(self.tokens).unwrap();
        let bound = match parse_script(src) {
            Ok(script) => {
                self.parsed += 1;
                writeln!(self.parses, "{:?}", script.statements).unwrap();
                Binder::new(catalog).bind(&script)
            }
            Err(e) => {
                writeln!(self.parses, "{e}").unwrap();
                Err(e)
            }
        };
        match bound {
            Ok(plan) => {
                self.bound += 1;
                writeln!(self.binds, "{:x} {:?}", plan.fingerprint(), plan.nodes()).unwrap();
            }
            Err(e) => {
                let (kind, message) = match &e {
                    LangError::Lex { message, .. } => ("lex", message),
                    LangError::Parse { message, .. } => ("parse", message),
                    LangError::Bind { message, .. } => ("bind", message),
                };
                writeln!(self.binds, "{kind}: {message}").unwrap();
            }
        }
    }

    fn finish(self) -> Digest {
        Digest {
            inputs: self.inputs,
            lexed: self.lexed,
            parsed: self.parsed,
            bound: self.bound,
            scripts: self.scripts.finish(),
            tokens: self.tokens.finish(),
            parses: self.parses.finish(),
            binds: self.binds.finish(),
        }
    }
}

#[test]
fn generated_templates_lex_parse_and_bind_to_the_recorded_bytes() {
    let mut folder = Folder::default();
    let mut patterns = BTreeSet::new();
    let policies = [
        LiteralPolicy::FreshEachRun,
        LiteralPolicy::Sticky {
            redraw_every_days: 7,
        },
    ];
    for seed in 0..200u64 {
        let spec = TemplateSpec::generate(seed);
        patterns.insert(spec.stats.pattern.name());
        for policy in policies {
            let (script, catalog) = spec.instantiate_with(policy, 9 + seed as u32 % 5, 2);
            folder.fold(&script, &catalog);
        }
    }
    assert_eq!(patterns.len(), 6, "every pattern is covered: {patterns:?}");
    assert_eq!(
        folder.finish(),
        Digest {
            inputs: 400,
            lexed: 400,
            parsed: 400,
            bound: 400,
            scripts: 8280539378552240556,
            tokens: 4679518352212381631,
            parses: 10539612696596708830,
            binds: 15637779294990961027,
        }
    );
}

#[test]
fn hostile_mutations_lex_parse_and_bind_to_the_recorded_bytes() {
    let catalog = Catalog::default();
    let mut folder = Folder::default();
    for script in mutations::SCRIPTS {
        for input in mutations::variants(script) {
            folder.fold(&input, &catalog);
        }
    }
    assert_eq!(
        folder.finish(),
        Digest {
            inputs: 13459,
            lexed: 11380,
            parsed: 2513,
            bound: 1830,
            scripts: 18159834579694933817,
            tokens: 3236693775836412056,
            parses: 14710794350295371307,
            binds: 11985467985112310594,
        }
    );
}
