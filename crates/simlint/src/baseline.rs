//! The committed findings baseline.
//!
//! `simlint.baseline.json` at the workspace root records the legacy
//! findings that predate a rule (or were judged acceptable wholesale when
//! a rule landed). The gate then fails only on *new* findings, while the
//! allowed legacy set stays in one auditable, diffable file instead of
//! being sprinkled as allow comments.
//!
//! Identity is `(rule code, file, excerpt)` with a count — deliberately
//! **not** the line number, so unrelated edits that shift code never
//! resurrect a baselined finding, while changing the offending line
//! itself (the excerpt) does surface it again.
//!
//! A full run also reports *stale* classes, whose `count` exceeds the
//! findings they match: deleting baselined code must shrink the baseline,
//! so no leftover entry can cover a re-introduced violation.
//!
//! The format is a small fixed-schema JSON document; reading and writing
//! are hand-rolled here because simlint is zero-dependency by rule L4.

use std::collections::BTreeMap;
use std::path::Path;

use crate::{Finding, Rule};

pub const BASELINE_FILE: &str = "simlint.baseline.json";
pub const SCHEMA: &str = "simlint-baseline-v1";

/// One baselined finding class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    pub rule: String,
    pub file: String,
    pub excerpt: String,
    pub count: usize,
}

#[derive(Debug, Default)]
pub struct Baseline {
    pub entries: Vec<Entry>,
}

impl Baseline {
    /// Load `<root>/simlint.baseline.json`; `None` when absent or
    /// unparseable (an unreadable baseline must fail open to "everything
    /// is new", never silently allow).
    pub fn load(root: &Path) -> Option<Baseline> {
        let text = std::fs::read_to_string(root.join(BASELINE_FILE)).ok()?;
        parse(&text)
    }

    /// Per-class allowance, keyed `(rule code, file, excerpt)`.
    fn budget(&self) -> BTreeMap<(String, String, String), usize> {
        let mut budget = BTreeMap::new();
        for e in &self.entries {
            *budget
                .entry((e.rule.clone(), e.file.clone(), e.excerpt.clone()))
                .or_default() += e.count;
        }
        budget
    }

    /// Subtract the baseline: returns the findings not covered. Within
    /// one `(rule, file, excerpt)` class the first `count` occurrences
    /// (in the caller's sorted order) are considered baselined.
    pub fn filter_new(&self, findings: Vec<Finding>) -> Vec<Finding> {
        let mut budget = self.budget();
        findings
            .into_iter()
            .filter(|f| match budget.get_mut(&key(f)) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    false
                }
                _ => true,
            })
            .collect()
    }

    /// One finding per class whose `count` exceeds the findings it
    /// matches, on the entry's rule, file and excerpt (line 0). Only
    /// meaningful against a run of every rule over every file.
    pub fn stale(&self, findings: &[Finding]) -> Vec<Finding> {
        let mut budget = self.budget();
        for f in findings {
            budget
                .entry(key(f))
                .and_modify(|n| *n = n.saturating_sub(1));
        }
        budget
            .into_iter()
            .filter(|&(_, left)| left > 0)
            .map(|((rule, file, excerpt), left)| Finding {
                note: format!("stale {BASELINE_FILE} entry: count exceeds its findings by {left}"),
                rule: Rule::parse(&rule).unwrap_or(Rule::AllowHygiene),
                file,
                line: 0,
                excerpt,
            })
            .collect()
    }

    /// Aggregate `findings` into baseline entries.
    pub fn from_findings(findings: &[Finding]) -> Baseline {
        let mut counts: BTreeMap<(String, String, String), usize> = BTreeMap::new();
        for f in findings {
            *counts.entry(key(f)).or_default() += 1;
        }
        Baseline {
            entries: counts
                .into_iter()
                .map(|((rule, file, excerpt), count)| Entry {
                    rule,
                    file,
                    excerpt,
                    count,
                })
                .collect(),
        }
    }

    /// Render the committed JSON form (stable ordering, one entry per
    /// line, so baseline diffs review like code).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", quote(SCHEMA)));
        out.push_str("  \"entries\": [");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"file\": {}, \"count\": {}, \"excerpt\": {}}}",
                quote(&e.rule),
                quote(&e.file),
                e.count,
                quote(&e.excerpt)
            ));
        }
        if !self.entries.is_empty() {
            out.push('\n');
            out.push_str("  ");
        }
        out.push_str("]\n}\n");
        out
    }

    pub fn total(&self) -> usize {
        self.entries.iter().map(|e| e.count).sum()
    }
}

/// A finding's baseline identity: `(rule code, file, excerpt)`.
fn key(f: &Finding) -> (String, String, String) {
    (f.rule.code().to_string(), f.file.clone(), f.excerpt.clone())
}

/// JSON string escaping for the subset we emit.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Minimal JSON value model — just enough for the baseline schema.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
            _ => None,
        }
    }
}

fn parse(text: &str) -> Option<Baseline> {
    let mut p = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.ws();
    let doc = p.value()?;
    p.ws();
    if p.pos != p.bytes.len() {
        return None;
    }
    if doc.get("schema")?.as_str()? != SCHEMA {
        return None;
    }
    let Json::Arr(items) = doc.get("entries")? else {
        return None;
    };
    let mut entries = Vec::new();
    for item in items {
        entries.push(Entry {
            rule: item.get("rule")?.as_str()?.to_string(),
            file: item.get("file")?.as_str()?.to_string(),
            excerpt: item.get("excerpt")?.as_str()?.to_string(),
            count: item.get("count")?.as_usize()?,
        });
    }
    Some(Baseline { entries })
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Option<Json> {
        self.ws();
        match self.bytes.get(self.pos)? {
            b'"' => self.string().map(Json::Str),
            b'{' => self.object(),
            b'[' => self.array(),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Option<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Some(v)
        } else {
            None
        }
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| {
            b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
        }) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse::<f64>()
            .ok()
            .map(Json::Num)
    }

    fn string(&mut self) -> Option<String> {
        if !self.eat(b'"') {
            return None;
        }
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos)?;
            self.pos += 1;
            match b {
                b'"' => return Some(out),
                b'\\' => {
                    let e = *self.bytes.get(self.pos)?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4)?;
                            self.pos += 4;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    }
                }
                _ => {
                    // Copy the full UTF-8 sequence starting at b.
                    let extra = match b {
                        0x00..=0x7f => 0,
                        0xc0..=0xdf => 1,
                        0xe0..=0xef => 2,
                        _ => 3,
                    };
                    let start = self.pos - 1;
                    self.pos += extra;
                    out.push_str(std::str::from_utf8(self.bytes.get(start..self.pos)?).ok()?);
                }
            }
        }
    }

    fn array(&mut self) -> Option<Json> {
        if !self.eat(b'[') {
            return None;
        }
        let mut items = Vec::new();
        self.ws();
        if self.eat(b']') {
            return Some(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            if self.eat(b']') {
                return Some(Json::Arr(items));
            }
            if !self.eat(b',') {
                return None;
            }
        }
    }

    fn object(&mut self) -> Option<Json> {
        if !self.eat(b'{') {
            return None;
        }
        let mut fields = Vec::new();
        self.ws();
        if self.eat(b'}') {
            return Some(Json::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            if !self.eat(b':') {
                return None;
            }
            let val = self.value()?;
            fields.push((key, val));
            self.ws();
            if self.eat(b'}') {
                return Some(Json::Obj(fields));
            }
            if !self.eat(b',') {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rule;

    fn finding(rule: Rule, file: &str, line: usize, excerpt: &str) -> Finding {
        Finding {
            rule,
            file: file.into(),
            line,
            excerpt: excerpt.into(),
            note: String::new(),
        }
    }

    #[test]
    fn round_trip_through_render_and_parse() {
        let findings = vec![
            finding(Rule::NoPanic, "crates/core/src/a.rs", 3, "x.unwrap();"),
            finding(Rule::NoPanic, "crates/core/src/a.rs", 9, "x.unwrap();"),
            finding(Rule::TimeDomain, "crates/pdn/src/b.rs", 1, "if v == 0.9 {"),
        ];
        let base = Baseline::from_findings(&findings);
        let text = base.render();
        let parsed = parse(&text).expect("rendered baseline parses");
        assert_eq!(parsed.entries, base.entries);
        assert_eq!(parsed.total(), 3);
    }

    #[test]
    fn filter_subtracts_by_count() {
        let findings = vec![
            finding(Rule::NoPanic, "f.rs", 3, "x.unwrap();"),
            finding(Rule::NoPanic, "f.rs", 9, "x.unwrap();"),
            finding(Rule::NoPanic, "f.rs", 12, "y.unwrap();"),
        ];
        // Baseline covers ONE x.unwrap() occurrence and nothing else.
        let base = Baseline {
            entries: vec![Entry {
                rule: "L2".into(),
                file: "f.rs".into(),
                excerpt: "x.unwrap();".into(),
                count: 1,
            }],
        };
        let fresh = base.filter_new(findings);
        assert_eq!(fresh.len(), 2);
        assert_eq!(fresh[0].line, 9, "first occurrence consumed the budget");
        assert_eq!(fresh[1].excerpt, "y.unwrap();");
    }

    #[test]
    fn line_drift_does_not_resurrect() {
        let base = Baseline {
            entries: vec![Entry {
                rule: "L6".into(),
                file: "f.rs".into(),
                excerpt: "v[0] += 1.0;".into(),
                count: 1,
            }],
        };
        let moved = vec![finding(Rule::PanicReachability, "f.rs", 999, "v[0] += 1.0;")];
        assert!(base.filter_new(moved).is_empty());
    }

    #[test]
    fn stale_entries_are_reported() {
        let x = finding(Rule::NoPanic, "f.rs", 3, "x.unwrap();");
        let y = finding(Rule::PanicReachability, "g.rs", 5, "v[0] += 1.0;");
        let base = Baseline::from_findings(&[x.clone(), x.clone(), y.clone()]);
        assert!(base.stale(&[x.clone(), x.clone(), y.clone()]).is_empty());
        // One `x` deleted: its class is stale by one, named by rule, file
        // and excerpt; an extra `y` is new and never offsets it.
        let stale = base.stale(&[x.clone(), y.clone(), y.clone()]);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].rule, Rule::NoPanic);
        assert_eq!(
            (stale[0].file.as_str(), stale[0].excerpt.as_str()),
            ("f.rs", "x.unwrap();")
        );
        assert!(stale[0].note.ends_with("by 1"), "{}", stale[0].note);
        // All code deleted: every class is stale.
        assert_eq!(base.stale(&[]).len(), 2);
    }

    #[test]
    fn escapes_survive() {
        let findings = vec![finding(
            Rule::Determinism,
            "f.rs",
            1,
            "let s = \"tab\\there\";",
        )];
        let base = Baseline::from_findings(&findings);
        let parsed = parse(&base.render()).unwrap();
        assert_eq!(parsed.entries[0].excerpt, "let s = \"tab\\there\";");
    }

    #[test]
    fn wrong_schema_rejected() {
        assert!(parse("{\"schema\": \"other\", \"entries\": []}").is_none());
        assert!(parse("not json").is_none());
    }
}
