//! STK006, the surface census: every `pub` item of a library crate must
//! be named by a caller outside that crate, through a path that reaches
//! it. Unlike STK001–005 it reads the whole tree at once, from the code
//! channels (comments, doc examples and strings never count), with no
//! parser: a token stream and a stack of open braces are enough.
//!
//! * **Checked**: `pub fn|struct|enum|trait|const|static|type|mod`
//!   declarations outside test regions in `crates/*/src`, bins excluded.
//! * **Test support**: a declaration under a test-support gate
//!   (`#[cfg(any(test, feature = "testkit"))]`, grid's `model` seam; see
//!   `scan::SUPPORT_FEATURES`), or in the file of a `mod` declared under
//!   one, is counted but not checked: the product builds without it.
//! * **Paths**: an item of module `m` is reached as `m::name`; at a crate
//!   root as `krate::name`, or through an alias of the crate (`pub use
//!   stkde_core as core`); inside `impl T` as `T::name`. A `pub use`
//!   reaches the item from the re-exporting module too, but is no caller.
//! * **Callers**: product code outside the crate's library source
//!   (other crates, bins, examples, paper bins, the facade,
//!   `benchmark/src`) that names a path of the item, `use`s it, names it
//!   after `use m::*`, or, for a method, knows `T` and calls `.name(`. A
//!   caller knows the types it names and those in the declarations of
//!   what it reaches; a crate's library source is one caller. Test code
//!   (files under a `tests/` directory, `#[cfg(test)]` regions) is no
//!   caller: what only tests name is test support or not `pub`.
//! * **Interface exemption**: a type, trait, constant or module named in
//!   the declaration of another kept item of the same crate is kept with
//!   it, and so is the `is_empty` beside a kept `len` (clippy's
//!   `len_without_is_empty`). Kept means named, exempt, or waived; the
//!   exemption runs to a fixpoint.

use crate::rules::Violation;
use crate::scan::SourceFile;
use std::collections::{HashMap, HashSet};

/// The rule id this module reports under.
pub(crate) const ID: &str = "STK006";

/// Item keywords the census checks, as they follow `pub`.
const KINDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "const", "static", "type", "mod",
];

/// Census totals, printed in the lint summary.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Census {
    /// `pub` declarations read, test support included.
    pub checked: usize,
    /// Named by a product caller outside the crate, or the interface of
    /// a kept item.
    pub kept: usize,
    /// Declared under a test-support gate, so not checked.
    pub support: usize,
    /// Kept by a `stkde-lint.allow` entry.
    pub waived: usize,
}

/// Where a line sits: the innermost open module or `impl` block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Scope<'a> {
    /// A crate root, outside any inline `mod`.
    Root,
    Module(&'a str),
    /// An `impl` block of the named type.
    Impl(&'a str),
}

/// What a caller names, outside `pub use` statements.
#[derive(Default)]
struct Names<'a> {
    /// `parent::name` steps of paths, in code and in `use` trees.
    paths: HashSet<(&'a str, &'a str)>,
    /// Modules imported whole with `use …::m::*`.
    globs: HashSet<&'a str>,
    idents: HashSet<&'a str>,
    /// Methods called as `.name(` or `.name::<`.
    calls: HashSet<&'a str>,
}

/// One file as read: the scope at the start of every line, and the
/// `(parent, name)` its `pub use`s re-export into a scope (glob: `*`).
#[derive(Default)]
struct Layout<'a> {
    scopes: Vec<Scope<'a>>,
    reexports: Vec<(Scope<'a>, &'a str, &'a str)>,
}

/// One checked declaration.
struct Item<'a> {
    krate: &'a str,
    file: &'a SourceFile,
    /// 0-based line index of the `pub` keyword.
    line: usize,
    kind: &'a str,
    name: &'a str,
    /// The `impl` type of an associated item.
    owner: Option<&'a str>,
    /// Every `parent` that reaches the item as `parent::name`.
    parents: HashSet<&'a str>,
    /// Tokens of the declaration text (the item's interface).
    iface: Vec<&'a str>,
}

impl Item<'_> {
    /// Is this item part of `kept`'s interface? A type, trait or
    /// constant is when `kept`'s declaration names it, a module when it
    /// names a path through it, and an `is_empty` is when `kept` is the
    /// `len` of the same type.
    fn is_interface_of(&self, kept: &Item) -> bool {
        let toks = &kept.iface;
        let named = |then: Option<&str>| {
            let next = |i: usize| toks.get(i + 1).copied();
            (0..toks.len()).any(|i| toks[i] == self.name && then.is_none_or(|t| next(i) == Some(t)))
        };
        match self.kind {
            "struct" | "enum" | "trait" | "type" | "const" => named(None),
            "mod" => named(Some("::")),
            _ => self.name == "is_empty" && kept.name == "len" && self.owner == kept.owner,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    Open,
    Kept,
    Waived,
}

/// The package directory and top-level scope of library source:
/// `crates/core/src/parallel/pd.rs` is `("crates/core", Module("pd"))`
/// (so is `…/pd/mod.rs`) and `src/lib.rs` is `("", Root)`. Bin targets
/// are not library source.
fn lib_source(rel_path: &str) -> Option<(&str, Scope<'_>)> {
    let (package, module) = match rel_path.strip_prefix("crates/") {
        Some(rest) => {
            let len = "crates/".len() + rest.find('/')?;
            (&rel_path[..len], rel_path[len..].strip_prefix("/src/")?)
        }
        None => ("", rel_path.strip_prefix("src/")?),
    };
    let stem = module.strip_suffix(".rs")?;
    let stem = stem.strip_suffix("/mod").unwrap_or(stem);
    let scope = match stem.rsplit('/').next().unwrap_or(stem) {
        "lib" => Scope::Root,
        name => Scope::Module(name),
    };
    (!module.starts_with("bin/")).then_some((package, scope))
}

/// The library crate whose source holds `rel_path`, if any: the `<name>`
/// of `crates/<name>/src/…`, bin targets excluded.
fn lib_crate(rel_path: &str) -> Option<&str> {
    lib_source(rel_path)?.0.strip_prefix("crates/")
}

/// Tokens of a code-channel string: identifiers and numbers whole, `::`
/// and `->` as one token, any other character alone.
fn tokens(code: &str) -> impl Iterator<Item = &str> {
    let mut rest = code;
    std::iter::from_fn(move || {
        rest = rest.trim_start();
        let c = rest.chars().next()?;
        let len = if c.is_alphanumeric() || c == '_' {
            rest.find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(rest.len())
        } else if rest.starts_with("::") || rest.starts_with("->") {
            2
        } else {
            c.len_utf8()
        };
        let (tok, tail) = rest.split_at(len);
        rest = tail;
        Some(tok)
    })
}

fn is_ident(tok: &str) -> bool {
    tok.starts_with(|c: char| c.is_alphabetic() || c == '_')
}

/// The scope a `{` opens, from the tokens since the last `;`, `{` or
/// `}`: `mod name {`, or `impl … T {` whose self type `T` is the last
/// identifier outside angle brackets (`impl<G> Tr<X> for T<Y> where …`).
/// Anything else is a plain block.
fn opens<'a>(header: &[&'a str]) -> Option<Scope<'a>> {
    let keywords = ["fn", "impl", "mod", "struct", "enum", "trait", "union"];
    let at = header.iter().position(|t| keywords.contains(t))?;
    let rest = &header[at + 1..];
    if header[at] == "mod" {
        return rest.first().map(|t| Scope::Module(t));
    }
    let (mut depth, mut ty) = (0, None);
    for &tok in rest.iter().take_while(|_| header[at] == "impl") {
        match tok {
            "<" => depth += 1,
            ">" => depth -= 1,
            "where" if depth == 0 => break,
            _ if depth == 0 && is_ident(tok) && tok != "for" => ty = Some(tok),
            _ => {}
        }
    }
    ty.map(Scope::Impl)
}

/// Read one file whose top level is `top`: add what its code names to
/// `names` and every `x as y` of its `use`s to `renames`, and return its
/// layout.
fn read<'a>(
    file: &'a SourceFile,
    top: Scope<'a>,
    names: &mut Names<'a>,
    renames: &mut Vec<(&'a str, &'a str)>,
) -> Layout<'a> {
    let mut layout = Layout::default();
    // One entry per open brace: the scope it opened, if any.
    let mut stack: Vec<Option<Scope>> = Vec::new();
    let mut header = Vec::new();
    // In a `use`: whether it is a `pub use`, the parent of each open
    // `{…}` group, the last `(parent, name)` step, and a pending `as`.
    let (mut using, mut groups, mut leaf, mut alias) = (None, Vec::new(), None, None);
    // The path being read: its last segment, whether `::` follows it,
    // and the depth of a turbofish (`T::<U>::name`) being skipped.
    let (mut seg, mut colons, mut generic) = ("", false, 0);
    let (mut prev, mut method) = ("", None);
    // Test code is read for its braces but names nothing: it is no caller.
    let (mut test_names, mut test_renames) = (Names::default(), Vec::new());
    for line in &file.lines {
        let (names, renames) = if line.in_test {
            (&mut test_names, &mut test_renames)
        } else {
            (&mut *names, &mut *renames)
        };
        let scope = stack.iter().rev().find_map(|s| *s).unwrap_or(top);
        layout.scopes.push(scope);
        for tok in tokens(&line.code) {
            if let Some(name) = method.take().filter(|_| tok == "(" || tok == "::") {
                names.calls.insert(name);
            }
            if prev == "." && is_ident(tok) {
                method = Some(tok);
            }
            prev = tok;
            if let Some(public) = using {
                if let Some(from) = alias.take() {
                    renames.push((from, tok));
                    continue;
                }
                let end = matches!(tok, "," | "}" | ";" | "as");
                let reexport = leaf.filter(|_| public && end);
                layout
                    .reexports
                    .extend(reexport.map(|(p, n)| (scope, p, n)));
                match tok {
                    "{" => groups.push(seg),
                    "," => seg = groups.last().copied().unwrap_or(""),
                    "}" => drop(groups.pop()),
                    "as" => alias = Some(seg),
                    "*" if public => layout.reexports.push((scope, seg, "*")),
                    "*" => drop(names.globs.insert(seg)),
                    ";" => (using, header) = (None, Vec::new()),
                    _ => {}
                }
                if matches!(tok, "{" | "," | "}" | "as" | "*" | ";") {
                    (leaf, colons) = (None, matches!(tok, "{" | ","));
                    continue;
                }
            }
            if is_ident(tok) && using != Some(true) {
                names.idents.insert(tok);
            }
            if generic > 0 {
                generic += usize::from(tok == "<");
                generic -= usize::from(tok == ">");
            } else if colons && tok == "<" {
                generic = 1;
            } else if tok == "::" {
                (colons, leaf) = (true, None);
            } else if is_ident(tok) {
                let parent = if colons { seg } else { "" };
                if using == Some(true) {
                    leaf = Some((parent, tok));
                } else if !parent.is_empty() {
                    names.paths.insert((parent, tok));
                }
                (seg, colons) = (tok, false);
            } else {
                (seg, colons) = ("", false);
            }
            match tok {
                "use" => using = Some(header.contains(&"pub")),
                "{" => stack.push(opens(&std::mem::take(&mut header))),
                "}" => {
                    stack.pop();
                    header.clear();
                }
                ";" => header.clear(),
                _ => header.push(tok),
            }
        }
    }
    layout
}

/// `(kind, name)` of a `pub` item declared on this code line.
fn declaration(code: &str) -> Option<(&str, &str)> {
    let mut toks = tokens(code).peekable();
    // `pub(crate)` and friends are not `pub`; nor is `publish`.
    if toks.next()? != "pub" || toks.peek() == Some(&"(") {
        return None;
    }
    let mut kind = toks.next()?;
    while matches!(kind, "unsafe" | "async" | "extern")
        || (kind == "const" && matches!(toks.peek(), Some(&("fn" | "unsafe" | "async" | "extern"))))
    {
        kind = toks.next()?;
    }
    KINDS.contains(&kind).then_some(())?;
    toks.next().map(|name| (kind, name))
}

/// The tokens of an item's declaration: what a caller of the item must
/// be able to name. That is its header up to the first `{` or `;` (a
/// constant's up to its `=`), and the body of an enum, the `pub` fields
/// of a struct and the item headers of a trait.
fn interface<'a>(file: &'a SourceFile, line: usize, kind: &str) -> Vec<&'a str> {
    let lines = file.lines[line..].iter();
    let mut toks = lines.flat_map(|l| tokens(&l.code)).skip(1).peekable();
    let (mut out, mut depth) = (Vec::new(), 0);
    // Whether the struct field being read is `pub`; `None` at its start.
    let mut public = None;
    while let Some(tok) = toks.next() {
        match tok {
            "{" if !matches!(kind, "struct" | "enum" | "trait") => break,
            "=" if depth == 0 && matches!(kind, "const" | "static") => break,
            ";" if depth == 0 => break,
            "}" if depth == 1 => break,
            "{" => depth += 1,
            "}" => depth -= 1,
            _ => {}
        }
        let keep = match kind {
            _ if depth == 0 => true,
            "struct" if matches!(tok, "{" | ",") => {
                public = None;
                false
            }
            "struct" => *public.get_or_insert(tok == "pub" && toks.peek() != Some(&"(")),
            "trait" => depth == 1,
            _ => true,
        };
        if keep && tok != "{" {
            out.push(tok);
        }
    }
    out
}

/// The two files `rustc` reads for a `mod name;` in the file `parent`:
/// `<dir>/name.rs` or `<dir>/name/mod.rs`, where `<dir>` is the parent's
/// directory for a `lib.rs`, `main.rs` or `mod.rs` and `<dir>/<stem>`
/// for any other parent.
fn child_files(parent: &str, name: &str) -> [String; 2] {
    let (dir, file) = parent.rsplit_once('/').unwrap_or(("", parent));
    let stem = file.strip_suffix(".rs").unwrap_or(file);
    let dir = match stem {
        "lib" | "main" | "mod" => dir.to_string(),
        _ => format!("{dir}/{stem}"),
    };
    [format!("{dir}/{name}.rs"), format!("{dir}/{name}/mod.rs")]
}

/// Library files the product builds without: the file of a `mod name;`
/// declared under a test-support gate, or inside such a file.
fn support_files(files: &[SourceFile]) -> HashSet<&str> {
    let mut gated = HashSet::new();
    loop {
        let before = gated.len();
        for file in files.iter().filter(|f| lib_source(&f.rel_path).is_some()) {
            let whole = gated.contains(&file.rel_path);
            for line in file.lines.iter().filter(|l| whole || l.in_support) {
                if let [.., "mod", name, ";"] = tokens(&line.code).collect::<Vec<_>>()[..] {
                    gated.extend(child_files(&file.rel_path, name));
                }
            }
        }
        if gated.len() == before {
            break;
        }
    }
    let files = files.iter().map(|f| f.rel_path.as_str());
    files.filter(|path| gated.contains(*path)).collect()
}

/// Run the census over every scanned file. `packages` maps a package
/// directory (`""` for the root, `crates/<dir>`) to its crate name; a
/// member without one is named after its directory. `waive` is asked
/// about each item no caller keeps (`rel_path`, raw declaration line)
/// and answers whether an allowlist entry covers it. Returns the totals
/// and one violation per item left unkept.
pub(crate) fn census<'a>(
    files: &'a [SourceFile],
    packages: &'a HashMap<String, String>,
    waive: &mut dyn FnMut(&str, &str) -> bool,
) -> (Census, Vec<Violation>) {
    // One caller per file, except that a crate's library source is one.
    let mut units: HashMap<&str, (Option<&str>, Names)> = HashMap::new();
    let mut renames = Vec::new();
    let mut layouts = Vec::new();
    for file in files {
        let source = lib_source(&file.rel_path);
        let key = source.map_or(file.rel_path.as_str(), |(package, _)| package);
        let unit = units
            .entry(key)
            .or_insert_with(|| (lib_crate(&file.rel_path), Names::default()));
        let top = source.map_or(Scope::Root, |(_, scope)| scope);
        layouts.push(read(file, top, &mut unit.1, &mut renames));
    }
    // The names that reach a scope as `parent::…`: a module or type by
    // its name, a crate root by its crate name and every alias of it.
    let reach = |scope, package: &'a str| -> Vec<&'a str> {
        match scope {
            Scope::Module(name) | Scope::Impl(name) => vec![name],
            Scope::Root => {
                let krate = packages.get(package).map(String::as_str);
                let krate = krate.or(package.strip_prefix("crates/"));
                let aliases = renames.iter().filter(|(from, _)| Some(*from) == krate);
                krate
                    .into_iter()
                    .chain(aliases.map(|(_, to)| *to))
                    .collect()
            }
        }
    };

    let gated = support_files(files);
    let (mut items, mut support) = (Vec::new(), 0);
    for (file, layout) in files.iter().zip(&layouts) {
        let Some(krate) = lib_crate(&file.rel_path) else {
            continue;
        };
        let package = &file.rel_path[.."crates/".len() + krate.len()];
        for (idx, line) in file.lines.iter().enumerate() {
            let Some((kind, name)) = declaration(&line.code).filter(|_| !line.in_test) else {
                continue;
            };
            if line.in_support || gated.contains(file.rel_path.as_str()) {
                support += 1;
                continue;
            }
            let scope = layout.scopes[idx];
            items.push(Item {
                krate,
                file,
                line: idx,
                kind,
                name,
                owner: if let Scope::Impl(ty) = scope {
                    Some(ty)
                } else {
                    None
                },
                parents: reach(scope, package).into_iter().collect(),
                iface: interface(file, idx, kind),
            });
        }
    }
    // A `pub use` reaches an item from its own scope too, to a fixpoint:
    // the facade re-exports a crate root's re-export.
    let mut moved = true;
    while moved {
        moved = false;
        for (file, layout) in files.iter().zip(&layouts) {
            let Some((package, _)) = lib_source(&file.rel_path) else {
                continue;
            };
            for &(scope, parent, name) in &layout.reexports {
                let reexported = items
                    .iter_mut()
                    .filter(|it| (name == "*" || it.name == name) && it.parents.contains(parent));
                for item in reexported {
                    for p in reach(scope, package) {
                        moved |= item.parents.insert(p);
                    }
                }
            }
        }
    }

    // A method's receiver may reach a caller unnamed, returned by an item
    // it reaches or held in a field of a type it knows: the types it knows
    // grow with the interfaces of both, to a fixpoint. Knowing a type is
    // not naming it.
    let mut status = vec![Status::Open; items.len()];
    for (own, f) in units.values() {
        let mut types = f.idents.clone();
        let mut open: Vec<usize> = (0..items.len()).collect();
        let mut moved = true;
        while moved {
            moved = false;
            open.retain(|&i| {
                let item = &items[i];
                let by_path = item.parents.iter().any(|p| {
                    f.paths.contains(&(*p, item.name))
                        || (f.globs.contains(p) && f.idents.contains(item.name))
                });
                let by_method = item
                    .owner
                    .is_some_and(|ty| types.contains(ty) && f.calls.contains(item.name));
                let named = *own != Some(item.krate) && (by_path || by_method);
                let known = matches!(item.kind, "struct" | "enum" | "type" | "trait")
                    && types.contains(item.name);
                if named {
                    status[i] = Status::Kept;
                }
                if named || known {
                    types.extend(&item.iface);
                    moved = true;
                }
                !(named || known)
            });
        }
    }
    loop {
        // Interface exemption to a fixpoint, then waivers; waived items'
        // interfaces are kept too, so repeat until neither moves.
        loop {
            let mut moved = false;
            for i in 0..items.len() {
                if status[i] != Status::Open {
                    continue;
                }
                let it = &items[i];
                let exempt = items.iter().zip(&status).any(|(k, s)| {
                    *s != Status::Open && k.krate == it.krate && it.is_interface_of(k)
                });
                if exempt {
                    status[i] = Status::Kept;
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
        let mut waived_any = false;
        for (item, s) in items.iter().zip(status.iter_mut()) {
            if *s == Status::Open && waive(&item.file.rel_path, &item.file.lines[item.line].raw) {
                *s = Status::Waived;
                waived_any = true;
            }
        }
        if !waived_any {
            break;
        }
    }
    let count = |want: Status| status.iter().filter(|s| **s == want).count();
    let totals = Census {
        checked: items.len() + support,
        kept: count(Status::Kept),
        support,
        waived: count(Status::Waived),
    };
    let violations = items
        .iter()
        .zip(&status)
        .filter(|(_, s)| **s == Status::Open)
        .map(|(item, _)| Violation {
            rule_id: ID,
            rel_path: item.file.rel_path.clone(),
            line: item.line + 1,
            excerpt: item.file.lines[item.line].raw.trim().to_string(),
        })
        .collect();
    (totals, violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_source;

    #[test]
    fn declarations_are_parsed() {
        assert_eq!(declaration("pub fn run() {"), Some(("fn", "run")));
        assert_eq!(
            declaration("    pub const fn new() -> Self {"),
            Some(("fn", "new"))
        );
        assert_eq!(
            declaration("pub unsafe fn raw(p: *const u8)"),
            Some(("fn", "raw"))
        );
        assert_eq!(
            declaration("pub const LIMIT: usize = 4;"),
            Some(("const", "LIMIT"))
        );
        assert_eq!(
            declaration("pub struct Grid3<S> {"),
            Some(("struct", "Grid3"))
        );
        assert_eq!(declaration("pub mod prelude {"), Some(("mod", "prelude")));
        assert_eq!(declaration("pub(crate) fn hidden() {}"), None);
        assert_eq!(declaration("    pub count: usize,"), None);
        assert_eq!(declaration("pub use inner::Thing;"), None);
    }

    #[test]
    fn library_source_excludes_bins() {
        assert_eq!(lib_crate("crates/core/src/lib.rs"), Some("core"));
        assert_eq!(lib_crate("crates/bench/src/bin/table2.rs"), None);
        assert_eq!(lib_crate("crates/core/tests/x.rs"), None);
        assert_eq!(lib_crate("src/lib.rs"), None);
        assert_eq!(lib_source("src/lib.rs"), Some(("", Scope::Root)));
        assert_eq!(lib_source("src/bin/stkde.rs"), None);
        let pd = Some(("crates/core", Scope::Module("pd")));
        assert_eq!(lib_source("crates/core/src/parallel/pd.rs"), pd);
        assert_eq!(lib_source("crates/core/src/parallel/pd/mod.rs"), pd);
    }

    #[test]
    fn use_trees_and_code_name_paths() {
        let src = "use a::{b::{self, c}, d as e, f::*, g,};\n\
                   fn f() { x::<u8>::new(); y.len(); }\n";
        let file = scan_source("examples/t.rs", src, false);
        let (mut names, mut renames) = (Names::default(), Vec::new());
        read(&file, Scope::Root, &mut names, &mut renames);
        let mut paths: Vec<_> = names.paths.into_iter().collect();
        paths.sort();
        assert_eq!(
            paths,
            [
                ("a", "b"),
                ("a", "d"),
                ("a", "f"),
                ("a", "g"),
                ("b", "c"),
                ("b", "self"),
                ("x", "new")
            ]
        );
        assert_eq!(names.globs, HashSet::from(["f"]));
        assert_eq!(renames, [("d", "e")]);
        assert_eq!(names.calls, HashSet::from(["len"]));
    }

    #[test]
    fn scopes_follow_impl_and_mod_blocks() {
        let src = "impl<S: Scalar> Grid3<S> where S: Copy {\n\
                   \x20   pub fn get() -> impl Iterator<Item = u8> {\n\
                   \x20       x\n\
                   \x20   }\n\
                   }\n\
                   impl fmt::Display for &'a File {\n\
                   }\n\
                   pub mod prelude {\n\
                   \x20   pub use a::{B, c::D as E};\n\
                   }\n";
        let file = scan_source("crates/g/src/lib.rs", src, false);
        let (mut names, mut renames) = (Names::default(), Vec::new());
        let layout = read(&file, Scope::Root, &mut names, &mut renames);
        let at = |l: usize| layout.scopes[l];
        assert_eq!(at(1), Scope::Impl("Grid3"));
        assert_eq!(at(2), Scope::Impl("Grid3"), "a fn body is not a scope");
        assert_eq!(at(6), Scope::Impl("File"));
        assert_eq!(at(8), Scope::Module("prelude"));
        let prelude = Scope::Module("prelude");
        assert_eq!(layout.reexports, [(prelude, "a", "B"), (prelude, "c", "D")]);
        assert!(!names.idents.contains("B"), "a re-export names nothing");
        assert_eq!(renames, [("D", "E")]);
    }
}
