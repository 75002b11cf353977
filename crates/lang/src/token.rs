//! Tokens and the lexer.

use crate::diag::{Diag, Phase, Pos, Result};

/// One lexical token. Names borrow the source text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tok<'a> {
    /// Identifier or keyword.
    Ident(&'a str),
    /// Type variable `$t`.
    TypeVar(&'a str),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Punctuation / operator.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl Tok<'_> {
    /// Render for error messages.
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier `{s}`"),
            Tok::TypeVar(s) => format!("type variable `${s}`"),
            Tok::Int(v) => format!("integer `{v}`"),
            Tok::Float(v) => format!("float `{v}`"),
            Tok::Punct(p) => format!("`{p}`"),
            Tok::Eof => "end of input".into(),
        }
    }
}

/// A token with its source position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spanned<'a> {
    /// The token.
    pub tok: Tok<'a>,
    /// Where it starts.
    pub pos: Pos,
}

const PUNCTS2: [&str; 10] = ["==", "!=", "<=", ">=", "&&", "||", "->", "+=", "-=", "::"];
const PUNCTS1: [&str; 20] = [
    "(", ")", "{", "}", "[", "]", "<", ">", ",", ";", "+", "-", "*", "/", "%", "=", "!", ".", "&",
    "|",
];

/// Tokenize Skil source text.
pub fn lex(src: &str) -> Result<Vec<Spanned<'_>>> {
    let bytes = src.as_bytes();
    // a token per five bytes of source is a generous first guess
    let mut out = Vec::with_capacity(src.len() / 5 + 1);
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    let pos = |line: u32, col: u32| Pos { line, col };

    while i < bytes.len() {
        // reject non-ASCII input up front (Skil is an ASCII language);
        // this also keeps every slice below on a char boundary
        if bytes[i] >= 0x80 {
            let ch = src[i..].chars().next().unwrap_or('\u{FFFD}');
            return Err(Diag::new(
                Phase::Lex,
                pos(line, col),
                format!("unexpected non-ASCII character `{ch}`"),
            ));
        }
        let c = bytes[i] as char;
        // whitespace
        if c == '\n' {
            line += 1;
            col = 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            col += 1;
            continue;
        }
        // comments
        if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            let start = pos(line, col);
            i += 2;
            col += 2;
            loop {
                if i + 1 >= bytes.len() {
                    return Err(Diag::new(Phase::Lex, start, "unterminated block comment"));
                }
                if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                    i += 2;
                    col += 2;
                    break;
                }
                if bytes[i] == b'\n' {
                    line += 1;
                    col = 1;
                } else {
                    col += 1;
                }
                i += 1;
            }
            continue;
        }
        let start = pos(line, col);
        // type variable
        if c == '$' {
            let mut j = i + 1;
            while j < bytes.len()
                && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
            {
                j += 1;
            }
            if j == i + 1 {
                return Err(Diag::new(Phase::Lex, start, "`$` must begin a type variable"));
            }
            let name = &src[i + 1..j];
            col += (j - i) as u32;
            i = j;
            out.push(Spanned { tok: Tok::TypeVar(name), pos: start });
            continue;
        }
        // identifier / keyword
        if c.is_ascii_alphabetic() || c == '_' {
            let mut j = i;
            while j < bytes.len()
                && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
            {
                j += 1;
            }
            let name = &src[i..j];
            col += (j - i) as u32;
            i = j;
            out.push(Spanned { tok: Tok::Ident(name), pos: start });
            continue;
        }
        // number
        if c.is_ascii_digit() {
            let mut j = i;
            let mut is_float = false;
            while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                j += 1;
            }
            if j < bytes.len()
                && bytes[j] == b'.'
                && j + 1 < bytes.len()
                && (bytes[j + 1] as char).is_ascii_digit()
            {
                is_float = true;
                j += 1;
                while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                    j += 1;
                }
            }
            // exponent
            if j < bytes.len() && (bytes[j] == b'e' || bytes[j] == b'E') {
                let mut k = j + 1;
                if k < bytes.len() && (bytes[k] == b'+' || bytes[k] == b'-') {
                    k += 1;
                }
                if k < bytes.len() && (bytes[k] as char).is_ascii_digit() {
                    is_float = true;
                    j = k;
                    while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                        j += 1;
                    }
                }
            }
            let text = &src[i..j];
            let tok = if is_float {
                Tok::Float(text.parse().map_err(|_| {
                    Diag::new(Phase::Lex, start, format!("bad float literal `{text}`"))
                })?)
            } else {
                Tok::Int(text.parse().map_err(|_| {
                    Diag::new(Phase::Lex, start, format!("integer literal `{text}` overflows"))
                })?)
            };
            col += (j - i) as u32;
            i = j;
            out.push(Spanned { tok, pos: start });
            continue;
        }
        // two-char puncts (guard the slice: the next byte may start a
        // multibyte char, which is rejected on the following iteration)
        if i + 1 < bytes.len() && src.is_char_boundary(i + 2) {
            let two = &bytes[i..i + 2];
            if let Some(&p) = PUNCTS2.iter().find(|&&p| p.as_bytes() == two) {
                i += 2;
                col += 2;
                out.push(Spanned { tok: Tok::Punct(p), pos: start });
                continue;
            }
        }
        if let Some(&p) = PUNCTS1.iter().find(|&&p| p.as_bytes()[0] == bytes[i]) {
            i += 1;
            col += 1;
            out.push(Spanned { tok: Tok::Punct(p), pos: start });
            continue;
        }
        return Err(Diag::new(Phase::Lex, start, format!("unexpected character `{c}`")));
    }
    out.push(Spanned { tok: Tok::Eof, pos: pos(line, col) });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn lexes_basic_program() {
        let t = toks("int f(int x) { return x + 1; }");
        assert_eq!(
            t,
            vec![
                Tok::Ident("int"),
                Tok::Ident("f"),
                Tok::Punct("("),
                Tok::Ident("int"),
                Tok::Ident("x"),
                Tok::Punct(")"),
                Tok::Punct("{"),
                Tok::Ident("return"),
                Tok::Ident("x"),
                Tok::Punct("+"),
                Tok::Int(1),
                Tok::Punct(";"),
                Tok::Punct("}"),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn lexes_type_vars_and_pardata() {
        let t = toks("pardata array <$t> ;");
        assert_eq!(
            t,
            vec![
                Tok::Ident("pardata"),
                Tok::Ident("array"),
                Tok::Punct("<"),
                Tok::TypeVar("t"),
                Tok::Punct(">"),
                Tok::Punct(";"),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(toks("42")[0], Tok::Int(42));
        assert_eq!(toks("3.25")[0], Tok::Float(3.25));
        assert_eq!(toks("1e3")[0], Tok::Float(1000.0));
        assert_eq!(toks("2.5e-1")[0], Tok::Float(0.25));
        // `1.` is Int then Punct (field access style), not a float
        assert_eq!(toks("1.x")[..2], [Tok::Int(1), Tok::Punct(".")]);
    }

    #[test]
    fn lexes_two_char_operators() {
        let t = toks("a == b != c <= d >= e && f || g");
        let puncts: Vec<&Tok> = t.iter().filter(|t| matches!(t, Tok::Punct(_))).collect();
        assert_eq!(
            puncts,
            vec![
                &Tok::Punct("=="),
                &Tok::Punct("!="),
                &Tok::Punct("<="),
                &Tok::Punct(">="),
                &Tok::Punct("&&"),
                &Tok::Punct("||"),
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let t = toks("a // line comment\n b /* block\n comment */ c");
        assert_eq!(t, vec![Tok::Ident("a"), Tok::Ident("b"), Tok::Ident("c"), Tok::Eof]);
    }

    #[test]
    fn positions_track_lines() {
        let s = lex("a\n  b").unwrap();
        assert_eq!(s[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(s[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn errors() {
        assert!(lex("a $ b").is_err());
        assert!(lex("/* unterminated").is_err());
        assert!(lex("a ~ b").is_err());
        assert!(lex("99999999999999999999").is_err());
    }

    #[test]
    fn non_ascii_is_an_error_not_a_panic() {
        // regression: multibyte characters used to panic the slicing
        assert!(lex("é").is_err());
        assert!(lex("(é").is_err());
        assert!(lex("aé").is_err());
        assert!(lex("1é").is_err());
        assert!(lex("=😀").is_err());
    }
}
