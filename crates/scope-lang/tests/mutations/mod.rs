//! The hostile-input corpus shared by `hostile_scripts.rs` and
//! `front_end_digest.rs`: two scripts shaped like the workload corpus and
//! every single-character mutation of them.

pub const JOIN_GROUP_BY: &str = r#"
fact = EXTRACT k:int, a:int, v:float FROM "store/fact";
dim  = EXTRACT k:int, g:int, s:string FROM "store/dim";
flt  = SELECT k, v FROM fact WHERE v > 10.5 AND a > 3;
j    = SELECT * FROM flt AS f JOIN dim AS d ON f.k == d.k;
rpt  = SELECT g, SUM(v) AS total, COUNT(*) AS n FROM j GROUP BY g;
OUTPUT rpt TO "out/joined";
"#;

pub const UNION_PROCESS_TOP: &str = r#"
s0   = EXTRACT k:int, v:float FROM "store/s0";
s1   = EXTRACT k:int, v:float FROM "store/s1";
u    = UNION s0, s1;
p    = PROCESS u USING Udf0;
rpt  = SELECT k, SUM(v) AS total, AVG(v) AS mean FROM p GROUP BY k;
best = SELECT TOP 50 k, total FROM rpt ORDER BY total DESC;
OUTPUT best TO "out/best";
"#;

pub const SCRIPTS: [&str; 2] = [JOIN_GROUP_BY, UNION_PROCESS_TOP];

/// The characters a replacement writes: delimiters, a quote, digits, a
/// letter, operators and whitespace, then characters a lexer walking bytes
/// must not slice through — 2-, 3- and 4-byte UTF-8 (`é`, `€`, `😀`), a
/// non-ASCII space (U+00A0, which `char::is_whitespace` accepts) — and the
/// ASCII whitespace a script written elsewhere carries (`\t`, `\r`).
pub const REPLACEMENTS: &[char] = &[
    '(', ')', ';', '"', '0', 'a', '=', ',', '.', '*', '-', '9', ' ', '\n', 'é', '\u{a0}', '€',
    '😀', '\t', '\r',
];

/// Every variant of `script`: each strict prefix, each single-character
/// replacement, each single-character deletion. The scripts are ASCII, so
/// every position is a character boundary and every variant is valid UTF-8
/// whatever the replacement's width.
pub fn variants(script: &str) -> Vec<String> {
    assert!(script.is_ascii(), "positions are byte offsets");
    let mut out: Vec<String> = (0..script.len())
        .map(|len| script[..len].to_string())
        .collect();
    for (i, b) in script.bytes().enumerate() {
        let (head, tail) = (&script[..i], &script[i + 1..]);
        for &r in REPLACEMENTS {
            if char::from(b) != r {
                out.push(format!("{head}{r}{tail}"));
            }
        }
        out.push(format!("{head}{tail}"));
    }
    out
}
