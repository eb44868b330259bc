// QL00 positive: malformed allow annotations are themselves diagnostics.
// qo-lint: allow(no-such-rule) — the key below does not exist
pub fn f() {}

pub fn g() {} // qo-lint: allow(seed-salt)
