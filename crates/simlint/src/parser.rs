//! A lightweight item parser over the token stream.
//!
//! Extracts the item skeleton the semantic rules need — `fn`, `struct`,
//! `enum`, `trait`, `impl`, `mod`, `use`, `const`, `static` — with enough
//! structure to answer three questions a line scanner cannot:
//!
//! 1. *Which function does this token belong to?* (fn items carry their
//!    body token range, so L6/L7/L8 attribute findings to symbols);
//! 2. *Is this code test code?* (`#[cfg(test)]` and `#[test]` are read
//!    structurally off the attribute tokens and inherited through the
//!    scope stack — no filename heuristics);
//! 3. *What is this symbol called?* (methods get their `impl` type as a
//!    qualifier, so `WorkerPool::run_all` and `RunCache::lookup` are
//!    distinct call-graph nodes even though both are named `run_all` /
//!    `lookup` locally).
//!
//! This is intentionally **not** a Rust parser: expression grammar,
//! patterns, generics and macros are skipped over by delimiter matching.
//! Items nested inside function bodies are not extracted (rare in this
//! codebase, documented as a false-negative source in DESIGN.md §6f).

use crate::lexer::{Tok, TokKind, TokenFile};

/// What kind of item a parsed entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    Fn,
    Struct,
    Enum,
    Trait,
    Impl,
    Mod,
    Use,
    Const,
    Static,
    TypeAlias,
}

/// One extracted item.
#[derive(Debug, Clone)]
pub struct Item {
    pub kind: ItemKind,
    /// The item's own name (`run_all`, `WorkerPool`); for `impl` blocks the
    /// implemented type's last path segment; for `use` the full path text.
    pub name: String,
    /// 1-based line of the introducing keyword.
    pub line: usize,
    /// 1-based last line (closing brace or semicolon). Filled when the
    /// item's extent is known; header-only parses fall back to `line`.
    pub end_line: usize,
    /// Token-index range `[start, end)` of the tokens *inside* the item's
    /// braces — the body for fns, the block for impls/mods. `None` for
    /// semicolon-terminated items and unclosed bodies at EOF.
    pub body: Option<(usize, usize)>,
    /// Token index of the first token of the item (attributes excluded).
    pub first_tok: usize,
    /// Whether the item is test code: `#[test]` / `#[cfg(test)]` on the
    /// item itself or any enclosing scope, or the whole file is a test
    /// target.
    pub is_test: bool,
    pub is_pub: bool,
    /// Name of the enclosing `impl` type, for methods.
    pub parent_impl: Option<String>,
    /// Names of enclosing `mod` blocks, outermost first.
    pub mods: Vec<String>,
}

impl Item {
    /// `Type::name` for methods, plain `name` otherwise.
    pub fn qualified(&self) -> String {
        match &self.parent_impl {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Scope kinds on the brace stack.
#[derive(Debug, Clone, PartialEq)]
enum ScopeKind {
    /// A `mod name { … }` block.
    Mod(String),
    /// An `impl Type { … }` block.
    Impl(String),
    /// A `trait Name { … }` block (its fns are parsed).
    Trait,
    /// A fn body: tracked so the matching `}` closes the right item; no
    /// items are extracted inside.
    FnBody(usize),
    /// Struct/enum bodies, expression blocks, match arms, … — anything
    /// that is not an item position.
    Opaque(usize),
}

#[derive(Debug, Clone)]
struct Scope {
    kind: ScopeKind,
    is_test: bool,
}

/// Keywords that introduce items this parser extracts.
fn item_keyword(text: &str) -> Option<ItemKind> {
    Some(match text {
        "fn" => ItemKind::Fn,
        "struct" => ItemKind::Struct,
        "enum" => ItemKind::Enum,
        "trait" => ItemKind::Trait,
        "impl" => ItemKind::Impl,
        "mod" => ItemKind::Mod,
        "use" => ItemKind::Use,
        "const" => ItemKind::Const,
        "static" => ItemKind::Static,
        "type" => ItemKind::TypeAlias,
        _ => return None,
    })
}

/// Parse the items of a lexed file. `whole_file_is_test` marks every item
/// as test code (integration tests / benches / examples — cargo's own
/// layout, not a heuristic).
pub fn parse_items(file: &TokenFile, whole_file_is_test: bool) -> Vec<Item> {
    Parser {
        file,
        items: Vec::new(),
        scopes: Vec::new(),
        pending_scope: None,
        pending_attr_test: false,
        pending_attr_cfg_test: false,
        pending_pub: false,
        whole_file_is_test,
    }
    .run()
}

struct Parser<'a> {
    file: &'a TokenFile,
    items: Vec<Item>,
    scopes: Vec<Scope>,
    /// Set when an item header has been parsed and its `{` is expected
    /// next: the scope that brace should open.
    pending_scope: Option<Scope>,
    pending_attr_test: bool,
    pending_attr_cfg_test: bool,
    pending_pub: bool,
    whole_file_is_test: bool,
}

impl Parser<'_> {
    fn toks(&self) -> &[Tok] {
        &self.file.toks
    }

    fn text(&self, i: usize) -> &str {
        self.file.text(i)
    }

    fn in_test_scope(&self) -> bool {
        self.whole_file_is_test || self.scopes.last().is_some_and(|s| s.is_test)
    }

    /// Whether the innermost scope admits items.
    fn at_item_position(&self) -> bool {
        match self.scopes.last().map(|s| &s.kind) {
            None => true,
            Some(ScopeKind::Mod(_)) | Some(ScopeKind::Impl(_)) | Some(ScopeKind::Trait) => true,
            _ => false,
        }
    }

    fn enclosing_impl(&self) -> Option<String> {
        self.scopes.iter().rev().find_map(|s| match &s.kind {
            ScopeKind::Impl(name) => Some(name.clone()),
            _ => None,
        })
    }

    fn enclosing_mods(&self) -> Vec<String> {
        self.scopes
            .iter()
            .filter_map(|s| match &s.kind {
                ScopeKind::Mod(name) => Some(name.clone()),
                _ => None,
            })
            .collect()
    }

    fn run(mut self) -> Vec<Item> {
        let mut i = 0usize;
        while let Some(j) = self.file.next_code(i) {
            i = self.step(j);
        }
        self.items
    }

    /// Process the non-trivia token at `j`; return the index to continue
    /// *from* (the caller advances with `next_code`).
    fn step(&mut self, j: usize) -> usize {
        let tok = self.toks()[j];
        let text = self.text(j);

        match (tok.kind, text) {
            (TokKind::Punct, "{") => {
                let scope = self.pending_scope.take().unwrap_or(Scope {
                    kind: ScopeKind::Opaque(usize::MAX),
                    is_test: self.in_test_scope(),
                });
                self.scopes.push(scope);
                // An opaque `{` mid-expression invalidates a pending pub /
                // attribute (should not happen at item positions).
                self.pending_pub = false;
                return j + 1;
            }
            (TokKind::Punct, "}") => {
                if let Some(scope) = self.scopes.pop() {
                    match scope.kind {
                        ScopeKind::FnBody(item_idx) | ScopeKind::Opaque(item_idx)
                            if item_idx != usize::MAX =>
                        {
                            let (body_start, _) = self.items[item_idx]
                                .body
                                .unwrap_or((j, j));
                            self.items[item_idx].body = Some((body_start, j));
                            self.items[item_idx].end_line = tok.line;
                        }
                        _ => {}
                    }
                }
                return j + 1;
            }
            (TokKind::Punct, "#") if self.at_item_position() => {
                // Attribute: `#[ … ]` or `#![ … ]`; record cfg(test)/test.
                return self.consume_attribute(j);
            }
            (TokKind::Ident, "pub") if self.at_item_position() => {
                self.pending_pub = true;
                // Skip a `pub(crate)` / `pub(super)` restriction group.
                if let Some(k) = self.file.next_code(j + 1) {
                    if self.text(k) == "(" {
                        return self.skip_group(k, "(", ")");
                    }
                }
                return j + 1;
            }
            (TokKind::Ident, "unsafe" | "async" | "extern" | "default")
                if self.at_item_position() =>
            {
                return j + 1;
            }
            (TokKind::Ident, kw) if self.at_item_position() => {
                // `const` doubles as a fn modifier (`const fn`) and an item
                // keyword; peek to disambiguate.
                if kw == "const" {
                    if let Some(k) = self.file.next_code(j + 1) {
                        if self.text(k) == "fn" {
                            return j + 1; // modifier; the `fn` comes next
                        }
                    }
                }
                if let Some(kind) = item_keyword(kw) {
                    return self.parse_item(j, kind);
                }
                // Unknown ident at item position (macro invocation, etc.):
                // drop any pending modifiers and move on.
                self.pending_pub = false;
                self.pending_attr_test = false;
                self.pending_attr_cfg_test = false;
                return j + 1;
            }
            _ => j + 1,
        }
    }

    /// Consume `#[ … ]`, noting `test` / `cfg(test)` markers.
    fn consume_attribute(&mut self, hash: usize) -> usize {
        let Some(open) = self.file.next_code(hash + 1) else {
            return hash + 1;
        };
        // Inner attribute `#![ … ]` has a `!` first.
        let open = if self.text(open) == "!" {
            match self.file.next_code(open + 1) {
                Some(o) => o,
                None => return open + 1,
            }
        } else {
            open
        };
        if self.text(open) != "[" {
            return open;
        }
        // Scan the balanced bracket group, collecting ident texts.
        let mut depth = 0usize;
        let mut k = open;
        let mut idents: Vec<String> = Vec::new();
        while k < self.toks().len() {
            let t = self.text(k);
            match t {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {
                    if self.toks()[k].kind == TokKind::Ident {
                        idents.push(t.to_string());
                    }
                }
            }
            k += 1;
        }
        // `#[test]`, `#[tokio::test]`-style: a bare `test` ident marks a
        // test fn. `#[cfg(test)]` / `#[cfg(all(test, …))]`: `cfg` + `test`.
        let has_cfg = idents.iter().any(|s| s == "cfg");
        let has_test = idents.iter().any(|s| s == "test");
        if has_cfg && has_test {
            self.pending_attr_cfg_test = true;
        } else if has_test {
            self.pending_attr_test = true;
        }
        k + 1
    }

    /// Skip a balanced delimiter group starting at `open` (whose text is
    /// `open_t`); returns the index past the closing delimiter.
    fn skip_group(&self, open: usize, open_t: &str, close_t: &str) -> usize {
        let mut depth = 0usize;
        let mut k = open;
        while k < self.toks().len() {
            let t = self.text(k);
            if t == open_t {
                depth += 1;
            } else if t == close_t {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            k += 1;
        }
        k
    }

    /// Parse one item whose keyword sits at `kw_idx`.
    fn parse_item(&mut self, kw_idx: usize, kind: ItemKind) -> usize {
        let is_pub = std::mem::take(&mut self.pending_pub);
        let attr_test = std::mem::take(&mut self.pending_attr_test);
        let attr_cfg_test = std::mem::take(&mut self.pending_attr_cfg_test);
        let is_test = self.in_test_scope() || attr_test || attr_cfg_test;
        let line = self.toks()[kw_idx].line;

        // Item name: the next ident for named items; impls resolve their
        // target type below; `use` captures the whole path.
        let name = match kind {
            ItemKind::Impl => String::new(), // resolved by scan_impl_header
            ItemKind::Use => self.use_path_text(kw_idx),
            _ => self
                .file
                .next_code(kw_idx + 1)
                .filter(|&k| self.toks()[k].kind == TokKind::Ident)
                .map(|k| self.text(k).to_string())
                .unwrap_or_default(),
        };

        let item_idx = self.items.len();
        self.items.push(Item {
            kind,
            name,
            line,
            end_line: line,
            body: None,
            first_tok: kw_idx,
            is_test,
            is_pub,
            parent_impl: self.enclosing_impl(),
            mods: self.enclosing_mods(),
        });

        match kind {
            ItemKind::Impl => {
                let (name, brace) = self.scan_impl_header(kw_idx);
                self.items[item_idx].name = name.clone();
                match brace {
                    Some(b) => {
                        self.items[item_idx].body = Some((b + 1, b + 1));
                        self.pending_scope = Some(Scope {
                            kind: ScopeKind::Impl(name),
                            is_test: is_test || attr_cfg_test,
                        });
                        // The `{` itself is processed by step(); but we must
                        // bind it to this item for extent tracking. Opaque
                        // carries the idx; Impl does not — wrap: push via
                        // pending and fix extent on close by an Opaque proxy
                        // is not possible, so record extent via body range
                        // on the impl's own close below.
                        b
                    }
                    None => kw_idx + 1,
                }
            }
            ItemKind::Mod => {
                // `mod name;` or `mod name { … }`.
                match self.header_end(kw_idx) {
                    HeaderEnd::Brace(b) => {
                        let name = self.items[item_idx].name.clone();
                        self.items[item_idx].body = Some((b + 1, b + 1));
                        self.pending_scope = Some(Scope {
                            kind: ScopeKind::Mod(name),
                            is_test: is_test || attr_cfg_test,
                        });
                        b
                    }
                    HeaderEnd::Semi(s) => {
                        self.items[item_idx].end_line = self.toks()[s].line;
                        s + 1
                    }
                    HeaderEnd::Eof(e) => e,
                }
            }
            ItemKind::Fn => match self.header_end(kw_idx) {
                HeaderEnd::Brace(b) => {
                    self.items[item_idx].body = Some((b + 1, b + 1));
                    self.pending_scope = Some(Scope {
                        kind: ScopeKind::FnBody(item_idx),
                        is_test,
                    });
                    b
                }
                HeaderEnd::Semi(s) => {
                    self.items[item_idx].end_line = self.toks()[s].line;
                    s + 1
                }
                HeaderEnd::Eof(e) => e,
            },
            ItemKind::Trait => match self.header_end(kw_idx) {
                HeaderEnd::Brace(b) => {
                    self.pending_scope = Some(Scope {
                        kind: ScopeKind::Trait,
                        is_test,
                    });
                    b
                }
                HeaderEnd::Semi(s) => s + 1,
                HeaderEnd::Eof(e) => e,
            },
            // Struct/enum bodies, and every semicolon-terminated item:
            // opaque extent, tracked for end_line only.
            _ => match self.header_end(kw_idx) {
                HeaderEnd::Brace(b) => {
                    self.pending_scope = Some(Scope {
                        kind: ScopeKind::Opaque(item_idx),
                        is_test,
                    });
                    self.items[item_idx].body = Some((b + 1, b + 1));
                    b
                }
                HeaderEnd::Semi(s) => {
                    self.items[item_idx].end_line = self.toks()[s].line;
                    s + 1
                }
                HeaderEnd::Eof(e) => e,
            },
        }
    }

    /// The `use …;` path as text (joined without trivia).
    fn use_path_text(&self, kw_idx: usize) -> String {
        let mut out = String::new();
        let mut k = kw_idx + 1;
        while let Some(j) = self.file.next_code(k) {
            let t = self.text(j);
            if t == ";" {
                break;
            }
            out.push_str(t);
            k = j + 1;
        }
        out
    }

    /// Walk an item header to its terminating `{` or `;`, balancing
    /// parens, brackets and angle brackets. Multi-char operators that
    /// *contain* angle brackets (`->`, `=>`, `<<`…) are handled by
    /// counting their characters, except the arrows which are ignored.
    /// Past a top-level `=` (a `const`/`static` initializer or a type
    /// alias) angle brackets are no longer counted: there `<`, `<<` and
    /// `<=` are operators, and counting them would swallow every item
    /// after `const N: u32 = 1 << 8;` into its header.
    fn header_end(&self, kw_idx: usize) -> HeaderEnd {
        let mut paren = 0i64;
        let mut bracket = 0i64;
        let mut angle = 0i64;
        let mut initializer = false;
        let mut k = kw_idx + 1;
        while let Some(j) = self.file.next_code(k) {
            let t = self.text(j);
            match t {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "->" | "=>" => {}
                "{" if paren == 0 && bracket == 0 && angle <= 0 => return HeaderEnd::Brace(j),
                ";" if paren == 0 && bracket == 0 && angle <= 0 => return HeaderEnd::Semi(j),
                "=" if paren == 0 && bracket == 0 && angle <= 0 => initializer = true,
                _ if !initializer && self.toks()[j].kind == TokKind::Punct => {
                    angle += t.matches('<').count() as i64;
                    angle -= t.matches('>').count() as i64;
                }
                _ => {}
            }
            k = j + 1;
        }
        HeaderEnd::Eof(self.toks().len())
    }

    /// Resolve an `impl` header: the implemented type's name (last path
    /// segment before generic args; the type after `for` when present) and
    /// the opening brace index.
    fn scan_impl_header(&self, kw_idx: usize) -> (String, Option<usize>) {
        let mut last_ident: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        let mut angle = 0i64;
        let mut paren = 0i64;
        let mut k = kw_idx + 1;
        while let Some(j) = self.file.next_code(k) {
            let t = self.text(j);
            match t {
                "{" if angle <= 0 && paren == 0 => {
                    let name = if saw_for {
                        after_for.or(last_ident)
                    } else {
                        last_ident
                    };
                    return (name.unwrap_or_default(), Some(j));
                }
                ";" if angle <= 0 && paren == 0 => break,
                "for" if angle <= 0 => saw_for = true,
                "(" => paren += 1,
                ")" => paren -= 1,
                "->" | "=>" => {}
                _ if self.toks()[j].kind == TokKind::Punct => {
                    angle += t.matches('<').count() as i64;
                    angle -= t.matches('>').count() as i64;
                }
                _ if self.toks()[j].kind == TokKind::Ident && t != "where" => {
                    // Only record type names at the top level of the header
                    // (not generic arguments).
                    if angle <= 0 {
                        if saw_for {
                            after_for = Some(t.to_string());
                        } else {
                            last_ident = Some(t.to_string());
                        }
                    }
                }
                _ => {}
            }
            k = j + 1;
        }
        (
            if saw_for {
                after_for.or(last_ident).unwrap_or_default()
            } else {
                last_ident.unwrap_or_default()
            },
            None,
        )
    }
}

enum HeaderEnd {
    Brace(usize),
    Semi(usize),
    Eof(usize),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> (TokenFile, Vec<Item>) {
        let f = TokenFile::new(src);
        let items = parse_items(&f, false);
        (f, items)
    }

    fn find<'a>(items: &'a [Item], name: &str) -> &'a Item {
        items
            .iter()
            .find(|i| i.name == name)
            .unwrap_or_else(|| panic!("no item {name}: {items:#?}"))
    }

    #[test]
    fn fns_structs_and_bodies() {
        let src = "pub fn alpha(x: u32) -> u32 { x + 1 }\nstruct Beta { v: f64 }\nfn gamma();";
        let (f, items) = parse(&items_src(src));
        let alpha = find(&items, "alpha");
        assert_eq!(alpha.kind, ItemKind::Fn);
        assert!(alpha.is_pub);
        let (b0, b1) = alpha.body.expect("alpha has a body");
        let body_text: String = (b0..b1).map(|i| f.text(i)).collect();
        assert!(body_text.contains("x + 1"), "{body_text}");
        assert_eq!(find(&items, "Beta").kind, ItemKind::Struct);
        assert_eq!(find(&items, "gamma").body, None);
    }

    fn items_src(s: &str) -> String {
        s.to_string()
    }

    #[test]
    fn impl_methods_get_parent_type() {
        let src = "
struct Pool;
impl Pool {
    pub fn run(&self) { self.go() }
    fn go(&self) {}
}
impl Drop for Pool { fn drop(&mut self) {} }
";
        let (_, items) = parse(src);
        let run = find(&items, "run");
        assert_eq!(run.parent_impl.as_deref(), Some("Pool"));
        assert_eq!(run.qualified(), "Pool::run");
        let drop_fn = find(&items, "drop");
        assert_eq!(drop_fn.parent_impl.as_deref(), Some("Pool"));
    }

    #[test]
    fn impl_generics_resolved() {
        let src = "impl<'s> Executor<'s> { fn tick(&self) {} }\nimpl From<u32> for Widget { fn from(v: u32) -> Self { Widget } }";
        let (_, items) = parse(src);
        assert_eq!(find(&items, "tick").parent_impl.as_deref(), Some("Executor"));
        assert_eq!(find(&items, "from").parent_impl.as_deref(), Some("Widget"));
    }

    #[test]
    fn cfg_test_mod_marks_items_test() {
        let src = "
fn live() {}
#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn checks() { live(); }
    fn helper() {}
}
fn live2() {}
";
        let (_, items) = parse(src);
        assert!(!find(&items, "live").is_test);
        assert!(find(&items, "checks").is_test);
        assert!(find(&items, "helper").is_test, "inherited from cfg(test) mod");
        assert!(!find(&items, "live2").is_test, "scope must close");
    }

    #[test]
    fn test_attr_marks_fn_only() {
        let src = "#[test]\nfn t() {}\nfn live() {}";
        let (_, items) = parse(src);
        assert!(find(&items, "t").is_test);
        assert!(!find(&items, "live").is_test);
    }

    #[test]
    fn nested_mods_tracked() {
        let src = "mod outer { mod inner { fn deep() {} } }";
        let (_, items) = parse(src);
        assert_eq!(find(&items, "deep").mods, ["outer", "inner"]);
    }

    #[test]
    fn trait_decls_and_default_bodies() {
        let src = "trait Exec { fn kinds(&self) -> u32; fn run(&self) { self.kinds(); } }";
        let (_, items) = parse(src);
        assert_eq!(find(&items, "kinds").body, None);
        assert!(find(&items, "run").body.is_some());
    }

    #[test]
    fn generics_with_shift_close() {
        // `Vec<Vec<T>>` ends with a `>>` token; the angle counter must
        // treat it as two closes so the body brace is found.
        let src = "fn nested(v: Vec<Vec<u32>>) -> Vec<Vec<u32>> { v }";
        let (_, items) = parse(src);
        assert!(find(&items, "nested").body.is_some());
    }

    #[test]
    fn shift_in_const_initializer_does_not_swallow_later_items() {
        let src = "const SPINS: u32 = 1 << 8;\nconst MASK: u64 = u64::MAX >> 1;\n\
                   const SMALL: bool = 1 < 2;\nfn after() { let x = 1; }";
        let (_, items) = parse(src);
        assert_eq!(find(&items, "SPINS").kind, ItemKind::Const);
        assert_eq!(find(&items, "SMALL").kind, ItemKind::Const);
        assert!(find(&items, "after").body.is_some());
    }

    #[test]
    fn use_and_const_items() {
        let src = "use std::sync::mpsc::channel;\npub const MAX: usize = 4;\nstatic NAME: &str = \"x\";\ntype Alias = u32;";
        let (_, items) = parse(src);
        assert_eq!(find(&items, "std::sync::mpsc::channel").kind, ItemKind::Use);
        assert_eq!(find(&items, "MAX").kind, ItemKind::Const);
        assert_eq!(find(&items, "NAME").kind, ItemKind::Static);
        assert_eq!(find(&items, "Alias").kind, ItemKind::TypeAlias);
    }

    #[test]
    fn const_fn_is_a_fn() {
        let src = "pub const fn zero() -> u32 { 0 }";
        let (_, items) = parse(src);
        assert_eq!(find(&items, "zero").kind, ItemKind::Fn);
        assert!(find(&items, "zero").is_pub);
    }

    #[test]
    fn end_lines_cover_extent() {
        let src = "fn long() {\n    let x = 1;\n    x;\n}\n";
        let (_, items) = parse(src);
        let long = find(&items, "long");
        assert_eq!(long.line, 1);
        assert_eq!(long.end_line, 4);
    }

    #[test]
    fn whole_file_test_flag() {
        let f = TokenFile::new("fn anything() { panic!(); }");
        let items = parse_items(&f, true);
        assert!(items[0].is_test);
    }

    #[test]
    fn where_clause_headers() {
        let src = "fn bounded<T>(v: T) -> T where T: Clone + Into<String> { v }";
        let (_, items) = parse(src);
        assert!(find(&items, "bounded").body.is_some());
    }
}
