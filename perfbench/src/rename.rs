//! Alpha-renaming of the identifiers a Skil program declares itself.
//!
//! `compile_churn` sends every request as new source text: the same
//! program with each user-declared name (functions, parameters, locals,
//! struct fields) suffixed with a per-request tag. Builtins, keywords,
//! type names and `main` keep their spelling, so the renamed program
//! compiles to the same computation — the same output and the same
//! `sim_cycles` — while its source hash, and so its cache key, is new.

use std::collections::HashSet;

/// Keywords and statement words that can precede an identifier without
/// declaring it.
const NOT_A_TYPE: &[&str] =
    &["pardata", "struct", "if", "else", "while", "for", "return", "typedef"];

#[derive(Debug, Clone, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    TypeVar,
    Punct(u8),
    Other,
}

/// Split `src` into (byte offset, token) pairs, skipping whitespace,
/// comments and string/char literals.
fn lex(src: &str) -> Vec<(usize, Tok<'_>)> {
    let b = src.as_bytes();
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c.is_ascii_whitespace() {
            i += 1;
        } else if b[i..].starts_with(b"//") {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
        } else if b[i..].starts_with(b"/*") {
            i += 2;
            while i < b.len() && !b[i..].starts_with(b"*/") {
                i += 1;
            }
            i = (i + 2).min(b.len());
        } else if c == b'"' || c == b'\'' {
            let start = i;
            i += 1;
            while i < b.len() && b[i] != c {
                i += if b[i] == b'\\' { 2 } else { 1 };
            }
            i = (i + 1).min(b.len());
            out.push((start, Tok::Other));
        } else if c == b'$' {
            let start = i;
            i += 1;
            while i < b.len() && ident(b[i]) {
                i += 1;
            }
            out.push((start, Tok::TypeVar));
        } else if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < b.len() && ident(b[i]) {
                i += 1;
            }
            out.push((start, Tok::Ident(&src[start..i])));
        } else if c.is_ascii_digit() {
            let start = i;
            while i < b.len() && (ident(b[i]) || b[i] == b'.') {
                i += 1;
            }
            out.push((start, Tok::Other));
        } else {
            out.push((i, Tok::Punct(c)));
            i += 1;
        }
    }
    out
}

/// A type position: a non-keyword identifier, a type variable, or the
/// `>` closing a one-argument generic such as `array<int>`.
fn ends_type(toks: &[(usize, Tok<'_>)], at: usize) -> bool {
    match &toks[at].1 {
        Tok::Ident(name) => !NOT_A_TYPE.contains(name),
        Tok::TypeVar => true,
        Tok::Punct(b'>') => {
            at >= 2
                && matches!(toks[at - 1].1, Tok::Ident(_) | Tok::TypeVar)
                && toks[at - 2].1 == Tok::Punct(b'<')
        }
        _ => false,
    }
}

/// The names `src` declares: identifiers in a type position's wake and
/// followed by `(`, `=`, `;`, `,`, `)` or `[`. `main` is excluded.
pub fn declared_names(src: &str) -> HashSet<&str> {
    let toks = lex(src);
    let mut names = HashSet::new();
    for at in 1..toks.len() {
        let Tok::Ident(name) = toks[at].1 else { continue };
        let next_ok = matches!(
            toks.get(at + 1).map(|t| &t.1),
            Some(Tok::Punct(b'(' | b'=' | b';' | b',' | b')' | b'['))
        );
        if next_ok && ends_type(&toks, at - 1) && name != "main" {
            names.insert(name);
        }
    }
    names
}

/// `src` with every declared name `n` (see [`declared_names`]) spelled
/// `n_<tag>`. `tag` must consist of identifier characters.
pub fn rename(src: &str, tag: &str) -> String {
    let names = declared_names(src);
    let mut out = String::with_capacity(src.len() + 8 * names.len());
    let mut last = 0;
    for (at, tok) in lex(src) {
        if let Tok::Ident(name) = tok {
            if names.contains(name) {
                out.push_str(&src[last..at + name.len()]);
                out.push('_');
                out.push_str(tag);
                last = at + name.len();
            }
        }
    }
    out.push_str(&src[last..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renames_declarations_and_uses_only() {
        let src = "pardata array <$t>;\n\
                   int n() { return 4; } // n is a user function\n\
                   int conv(int v, Index ix) { return v + ix[0]; }\n\
                   void main() { array<int> a = f(n()); int total = array_fold(conv, (+), a); print(total); }";
        let out = rename(src, "k1");
        assert!(out.contains("int n_k1() { return 4; } // n is a user function"), "{out}");
        assert!(out.contains("int conv_k1(int v_k1, Index ix_k1) { return v_k1 + ix_k1[0]; }"));
        assert!(out.contains("array<int> a_k1 = f(n_k1());"), "{out}");
        assert!(out.contains("array_fold(conv_k1, (+), a_k1); print(total_k1);"), "{out}");
        assert!(out.contains("void main()") && out.starts_with("pardata array <$t>;"));
    }
}
