//! Recursive-descent parser for Skil.

use crate::ast::*;
use crate::diag::{Diag, Phase, Pos, Result};
use crate::token::{lex, Spanned, Tok};

/// The deepest nesting the parser accepts. Every parenthesis, brace,
/// bracket, call argument list, unary operator, postfix operator,
/// binary operator of a chain, type argument list and nested statement
/// body opens one level. Deeper programs are rejected with a `parse`
/// diagnostic instead of recursing without bound: the limit bounds the
/// recursion of every later phase (check, instantiate, bytecode,
/// optimizer, emitters and engines) to well within a 2 MiB thread stack.
pub const MAX_NESTING: usize = 256;

/// Parse a complete Skil program.
pub fn parse(src: &str) -> Result<Program<'_>> {
    let toks = lex(src)?;
    let mut p = Parser { toks, at: 0, depth: 0 };
    p.program()
}

struct Parser<'a> {
    toks: Vec<Spanned<'a>>,
    at: usize,
    depth: usize,
}

const KEYWORDS: [&str; 8] = ["pardata", "struct", "if", "else", "while", "for", "return", "int"];

/// Binding power of a binary operator (higher binds tighter).
fn precedence(tok: Tok<'_>) -> Option<(&'static str, u8)> {
    let Tok::Punct(op) = tok else { return None };
    let prec = match op {
        "||" => 1,
        "&&" => 2,
        "==" | "!=" => 3,
        "<" | "<=" | ">" | ">=" => 4,
        "+" | "-" => 5,
        "*" | "/" | "%" => 6,
        _ => return None,
    };
    Some((op, prec))
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Tok<'a> {
        self.toks[self.at].tok
    }

    fn peek2(&self) -> Tok<'a> {
        self.toks[(self.at + 1).min(self.toks.len() - 1)].tok
    }

    fn pos(&self) -> Pos {
        self.toks[self.at].pos
    }

    fn bump(&mut self) -> Tok<'a> {
        let t = self.toks[self.at].tok;
        if self.at + 1 < self.toks.len() {
            self.at += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(Diag::new(Phase::Parse, self.pos(), msg.into()))
    }

    /// Open one nesting level (see [`MAX_NESTING`]).
    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return self.err(format!("nesting too deep: more than {MAX_NESTING} levels"));
        }
        Ok(())
    }

    /// Close `n` nesting levels.
    fn leave(&mut self, n: usize) {
        self.depth -= n;
    }

    fn eat_punct(&mut self, p: &str) -> Result<()> {
        match self.peek() {
            Tok::Punct(q) if q == p => {
                self.bump();
                Ok(())
            }
            other => {
                let d = other.describe();
                self.err(format!("expected `{p}`, found {d}"))
            }
        }
    }

    fn at_punct(&self, p: &str) -> bool {
        matches!(self.peek(), Tok::Punct(q) if q == p)
    }

    fn eat_ident(&mut self) -> Result<&'a str> {
        match self.peek() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => {
                let d = other.describe();
                self.err(format!("expected identifier, found {d}"))
            }
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    /// `item (, item)*` up to (not including) `close`; an empty list when
    /// `close` comes first.
    fn list<T>(
        &mut self,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let mut out = Vec::new();
        if !self.at_punct(close) {
            loop {
                out.push(item(self)?);
                if self.at_punct(",") {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        Ok(out)
    }

    // ---------------- items ----------------

    fn program(&mut self) -> Result<Program<'a>> {
        let mut items = Vec::new();
        while !matches!(self.peek(), Tok::Eof) {
            items.push(self.item()?);
        }
        Ok(Program { items })
    }

    /// `< $a, $b, ... >` after a pardata or struct name.
    fn type_params(&mut self, what: &str, pos: Pos) -> Result<Vec<&'a str>> {
        let mut params = Vec::new();
        if self.at_punct("<") {
            self.bump();
            loop {
                match self.bump() {
                    Tok::TypeVar(v) => params.push(v),
                    other => {
                        return Err(Diag::new(
                            Phase::Parse,
                            pos,
                            format!(
                                "{what} type parameters must be type variables, found {}",
                                other.describe()
                            ),
                        ))
                    }
                }
                if self.at_punct(",") {
                    self.bump();
                } else {
                    break;
                }
            }
            self.eat_punct(">")?;
        }
        Ok(params)
    }

    fn item(&mut self) -> Result<Item<'a>> {
        let pos = self.pos();
        if self.at_kw("pardata") {
            self.bump();
            let name = self.eat_ident()?;
            let arity = self.type_params("pardata", pos)?.len();
            self.eat_punct(";")?;
            return Ok(Item::Pardata { name, arity, pos });
        }
        if self.at_kw("struct") {
            self.bump();
            let name = self.eat_ident()?;
            let params = self.type_params("struct", pos)?;
            self.eat_punct("{")?;
            let mut fields = Vec::new();
            while !self.at_punct("}") {
                let fty = self.type_expr()?;
                let fname = self.eat_ident()?;
                self.eat_punct(";")?;
                fields.push((fname, fty));
            }
            self.eat_punct("}")?;
            self.eat_punct(";")?;
            return Ok(Item::Struct { name, params, fields, pos });
        }
        // function: type name ( params ) { body }
        let ret = self.type_expr()?;
        let name = self.eat_ident()?;
        self.eat_punct("(")?;
        let params = self.list(")", Self::param)?;
        self.eat_punct(")")?;
        let body = self.block()?;
        Ok(Item::Func(Func { name, params, ret, body, pos }))
    }

    /// `type name` or the functional form `type name(argtypes...)`.
    fn param(&mut self) -> Result<Param<'a>> {
        let pos = self.pos();
        let ty = self.type_expr()?;
        let name = self.eat_ident()?;
        if self.at_punct("(") {
            self.bump();
            let args = self.list(")", Self::type_expr)?;
            self.eat_punct(")")?;
            return Ok(Param { name, ty: TypeExpr::Fun(args, Box::new(ty)), pos });
        }
        Ok(Param { name, ty, pos })
    }

    // ---------------- types ----------------

    fn type_expr(&mut self) -> Result<TypeExpr<'a>> {
        match self.peek() {
            Tok::TypeVar(v) => {
                self.bump();
                Ok(TypeExpr::Var(v))
            }
            Tok::Ident(name) => {
                if KEYWORDS.contains(&name) && name != "int" {
                    return self.err(format!("`{name}` is not a type"));
                }
                self.bump();
                let mut args = Vec::new();
                if self.at_punct("<") {
                    self.enter()?;
                    self.bump();
                    loop {
                        args.push(self.type_expr()?);
                        if self.at_punct(",") {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.eat_punct(">")?;
                    self.leave(1);
                }
                Ok(TypeExpr::Named(name, args))
            }
            other => {
                let d = other.describe();
                self.err(format!("expected a type, found {d}"))
            }
        }
    }

    /// Skip a type expression without building it; whether
    /// [`Parser::type_expr`] would have parsed one here. Iterative, so
    /// speculation never recurses.
    fn skip_type(&mut self) -> bool {
        let mut open = 0usize;
        loop {
            match self.peek() {
                Tok::TypeVar(_) => {
                    self.bump();
                }
                Tok::Ident(name) if !KEYWORDS.contains(&name) || name == "int" => {
                    self.bump();
                    if self.at_punct("<") {
                        self.bump();
                        open += 1;
                        continue;
                    }
                }
                _ => return false,
            }
            // after a complete type: close argument lists
            loop {
                if open == 0 {
                    return true;
                }
                if self.at_punct(",") {
                    self.bump();
                    break;
                }
                if !self.at_punct(">") {
                    return false;
                }
                self.bump();
                open -= 1;
            }
        }
    }

    // ---------------- statements ----------------

    fn block(&mut self) -> Result<Block<'a>> {
        self.enter()?;
        self.eat_punct("{")?;
        let mut stmts = Vec::new();
        while !self.at_punct("}") {
            stmts.push(self.stmt()?);
        }
        self.eat_punct("}")?;
        self.leave(1);
        Ok(Block(stmts))
    }

    fn block_or_single(&mut self) -> Result<Block<'a>> {
        if self.at_punct("{") {
            self.block()
        } else {
            self.enter()?;
            let s = self.stmt()?;
            self.leave(1);
            Ok(Block(vec![s]))
        }
    }

    fn stmt(&mut self) -> Result<Stmt<'a>> {
        let pos = self.pos();
        if self.at_kw("if") {
            self.bump();
            self.eat_punct("(")?;
            let cond = self.expr()?;
            self.eat_punct(")")?;
            let then = self.block_or_single()?;
            let els = if self.at_kw("else") {
                self.bump();
                Some(self.block_or_single()?)
            } else {
                None
            };
            return Ok(Stmt::If { cond, then, els });
        }
        if self.at_kw("while") {
            self.bump();
            self.eat_punct("(")?;
            let cond = self.expr()?;
            self.eat_punct(")")?;
            let body = self.block_or_single()?;
            return Ok(Stmt::While { cond, body });
        }
        if self.at_kw("for") {
            self.bump();
            self.eat_punct("(")?;
            let init =
                if self.at_punct(";") { None } else { Some(Box::new(self.simple_stmt_no_semi()?)) };
            self.eat_punct(";")?;
            let cond = if self.at_punct(";") { None } else { Some(self.expr()?) };
            self.eat_punct(";")?;
            let step =
                if self.at_punct(")") { None } else { Some(Box::new(self.simple_stmt_no_semi()?)) };
            self.eat_punct(")")?;
            let body = self.block_or_single()?;
            return Ok(Stmt::For { init, cond, step, body });
        }
        if self.at_kw("return") {
            self.bump();
            let value = if self.at_punct(";") { None } else { Some(self.expr()?) };
            self.eat_punct(";")?;
            return Ok(Stmt::Return { value, pos });
        }
        let s = self.simple_stmt_no_semi()?;
        self.eat_punct(";")?;
        Ok(s)
    }

    /// Declaration, assignment, or expression — without the trailing
    /// semicolon (shared with `for` headers).
    fn simple_stmt_no_semi(&mut self) -> Result<Stmt<'a>> {
        let pos = self.pos();
        // A declaration is `type ident` followed by `=`, `;` or `,`
        // (`type ident (` would be no valid expression either, but is
        // not treated as a declaration). Look ahead without building
        // anything, then parse for real.
        let save = self.at;
        let is_decl = self.skip_type()
            && matches!(self.peek(), Tok::Ident(_))
            && matches!(self.peek2(), Tok::Punct("=" | ";" | ","));
        self.at = save;
        if is_decl {
            let ty = self.type_expr()?;
            let name = self.eat_ident()?;
            if self.at_punct("=") {
                self.bump();
                let init = self.expr()?;
                return Ok(Stmt::Decl { ty, name, init: Some(init), pos });
            }
            return Ok(Stmt::Decl { ty, name, init: None, pos });
        }
        // Assignment: `ident = expr`
        if let (Tok::Ident(name), Tok::Punct("=")) = (self.peek(), self.peek2()) {
            self.bump();
            self.bump();
            let value = self.expr()?;
            return Ok(Stmt::Assign { name, value, pos });
        }
        // Plain expression
        let e = self.expr()?;
        Ok(Stmt::Expr(e))
    }

    // ---------------- expressions ----------------

    fn expr(&mut self) -> Result<Expr<'a>> {
        self.enter()?;
        let e = self.binary(1)?;
        self.leave(1);
        Ok(e)
    }

    /// Precedence climbing over the left-associative binary operators
    /// binding at least as tight as `min`.
    fn binary(&mut self, min: u8) -> Result<Expr<'a>> {
        let mut lhs = self.unary_expr()?;
        let mut levels = 0;
        while let Some((op, prec)) = precedence(self.peek()) {
            if prec < min {
                break;
            }
            let pos = self.pos();
            self.enter()?;
            levels += 1;
            self.bump();
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs), pos };
        }
        self.leave(levels);
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr<'a>> {
        let pos = self.pos();
        if let Tok::Punct(op @ ("-" | "!")) = self.peek() {
            self.enter()?;
            self.bump();
            let e = self.unary_expr()?;
            self.leave(1);
            return Ok(Expr::Unary { op, expr: Box::new(e), pos });
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr<'a>> {
        let mut e = self.primary_expr()?;
        let mut levels = 0;
        loop {
            let pos = self.pos();
            if self.at_punct("(") {
                self.enter()?;
                levels += 1;
                self.bump();
                let args = self.list(")", Self::expr)?;
                self.eat_punct(")")?;
                e = Expr::Call { callee: Box::new(e), args, pos };
                continue;
            }
            if self.at_punct(".") || self.at_punct("->") {
                self.enter()?;
                levels += 1;
                self.bump();
                let field = self.eat_ident()?;
                e = Expr::Field { expr: Box::new(e), field, pos };
                continue;
            }
            if self.at_punct("[") {
                self.enter()?;
                levels += 1;
                self.bump();
                let index = self.expr()?;
                self.eat_punct("]")?;
                e = Expr::IndexAt { expr: Box::new(e), index: Box::new(index), pos };
                continue;
            }
            break;
        }
        self.leave(levels);
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<Expr<'a>> {
        let pos = self.pos();
        match self.peek() {
            Tok::Int(v) => {
                self.bump();
                Ok(Expr::Int(v, pos))
            }
            Tok::Float(v) => {
                self.bump();
                Ok(Expr::Float(v, pos))
            }
            Tok::Ident(name) => {
                self.bump();
                // struct literal `name{...}`
                if self.at_punct("{") {
                    self.bump();
                    let fields = self.list("}", Self::expr)?;
                    self.eat_punct("}")?;
                    return Ok(Expr::StructLit { name, fields, pos });
                }
                Ok(Expr::Var(name, pos))
            }
            Tok::Punct("{") => {
                self.bump();
                let elems = self.list("}", Self::expr)?;
                self.eat_punct("}")?;
                Ok(Expr::BraceList { elems, pos })
            }
            Tok::Punct("(") => {
                self.bump();
                // operator section `(+)` etc.
                if let Tok::Punct(
                    op @ ("+" | "-" | "*" | "/" | "%" | "==" | "!=" | "<" | "<=" | ">" | ">="),
                ) = self.peek()
                {
                    if matches!(self.peek2(), Tok::Punct(")")) {
                        self.bump();
                        self.bump();
                        return Ok(Expr::OpSection(op, pos));
                    }
                }
                let e = self.expr()?;
                self.eat_punct(")")?;
                Ok(e)
            }
            other => {
                let d = other.describe();
                self.err(format!("expected an expression, found {d}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pardata_and_struct() {
        let p = parse(
            "pardata array <$t>;\n\
             struct elemrec { float val; int row; int col; };",
        )
        .unwrap();
        assert_eq!(p.items.len(), 2);
        assert!(matches!(&p.items[0], Item::Pardata { name, arity: 1, .. } if *name == "array"));
        match &p.items[1] {
            Item::Struct { name, fields, .. } => {
                assert_eq!(*name, "elemrec");
                assert_eq!(fields.len(), 3);
                assert_eq!(fields[1].0, "row");
            }
            other => panic!("expected struct, got {other:?}"),
        }
    }

    #[test]
    fn parses_polymorphic_struct() {
        let p = parse("struct pair <$a, $b> { $a fst; $b snd; };").unwrap();
        match &p.items[0] {
            Item::Struct { params, .. } => assert_eq!(params, &["a", "b"]),
            _ => panic!(),
        }
    }

    #[test]
    fn parses_hof_signature() {
        // the paper's above_thresh / map example
        let p = parse(
            "int above_thresh(float thresh, float elem, Index ix) { return elem >= thresh; }",
        )
        .unwrap();
        match &p.items[0] {
            Item::Func(f) => {
                assert_eq!(f.name, "above_thresh");
                assert_eq!(f.params.len(), 3);
                assert_eq!(f.params[2].ty, TypeExpr::named("Index"));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_functional_parameter() {
        let p = parse("$b apply($b f($a), $a x) { return f(x); }").unwrap();
        match &p.items[0] {
            Item::Func(f) => {
                assert_eq!(
                    f.params[0].ty,
                    TypeExpr::Fun(vec![TypeExpr::Var("a")], Box::new(TypeExpr::Var("b")))
                );
                assert_eq!(f.ret, TypeExpr::Var("b"));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_statements() {
        let p = parse(
            "void main() {\n\
               int i;\n\
               int n = 10;\n\
               for (i = 0 ; i < n ; i = i + 1) {\n\
                 if (i % 2 == 0) n = n - 1; else n = n + 1;\n\
               }\n\
               while (n > 0) { n = n - 2; }\n\
               return;\n\
             }",
        )
        .unwrap();
        match &p.items[0] {
            Item::Func(f) => assert_eq!(f.body.0.len(), 5),
            _ => panic!(),
        }
    }

    #[test]
    fn parses_generic_type_declarations() {
        let p = parse("void main() { array<float> a; array<int> b = f(); }").unwrap();
        match &p.items[0] {
            Item::Func(f) => {
                assert!(matches!(
                    &f.body.0[0],
                    Stmt::Decl { ty: TypeExpr::Named(n, args), .. }
                        if *n == "array" && args.len() == 1
                ));
                assert!(matches!(&f.body.0[1], Stmt::Decl { init: Some(_), .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_operator_sections_and_currying() {
        let p =
            parse("void main() { x = fold((+), l); y = map((*)(2), l); z = f(a)(b); }").unwrap();
        let Item::Func(f) = &p.items[0] else { panic!() };
        // fold((+), l)
        match &f.body.0[0] {
            Stmt::Assign { value: Expr::Call { args, .. }, .. } => {
                assert!(matches!(&args[0], Expr::OpSection(op, _) if *op == "+"));
            }
            other => panic!("{other:?}"),
        }
        // map((*)(2), l): first arg is a Call of an OpSection
        match &f.body.0[1] {
            Stmt::Assign { value: Expr::Call { args, .. }, .. } => match &args[0] {
                Expr::Call { callee, args, .. } => {
                    assert!(matches!(&**callee, Expr::OpSection(op, _) if *op == "*"));
                    assert_eq!(args.len(), 1);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        // f(a)(b): nested call
        match &f.body.0[2] {
            Stmt::Assign { value: Expr::Call { callee, .. }, .. } => {
                assert!(matches!(&**callee, Expr::Call { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_brace_and_struct_literals() {
        let p = parse("void main() { ix = {1, 2}; e = elemrec{1.5, 2, 3}; }").unwrap();
        let Item::Func(f) = &p.items[0] else { panic!() };
        assert!(matches!(
            &f.body.0[0],
            Stmt::Assign { value: Expr::BraceList { elems, .. }, .. } if elems.len() == 2
        ));
        assert!(matches!(
            &f.body.0[1],
            Stmt::Assign { value: Expr::StructLit { name, fields, .. }, .. }
                if *name == "elemrec" && fields.len() == 3
        ));
    }

    #[test]
    fn parses_field_access_chain() {
        let p = parse("void main() { x = e.val + b.lower.row; }").unwrap();
        let Item::Func(f) = &p.items[0] else { panic!() };
        assert!(matches!(&f.body.0[0], Stmt::Assign { .. }));
    }

    #[test]
    fn parses_index_access_and_arrow() {
        // the paper's `ix[0]` and `bds->lowerBd[1]`
        let p = parse("void main() { x = ix[0] + bds->lowerBd[1]; }").unwrap();
        let Item::Func(f) = &p.items[0] else { panic!() };
        let Stmt::Assign { value, .. } = &f.body.0[0] else { panic!() };
        let Expr::Binary { lhs, rhs, .. } = value else { panic!() };
        assert!(matches!(&**lhs, Expr::IndexAt { .. }));
        match &**rhs {
            Expr::IndexAt { expr, .. } => {
                assert!(matches!(&**expr, Expr::Field { field, .. } if *field == "lowerBd"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_is_conventional() {
        let p = parse("void main() { x = 1 + 2 * 3 == 7 && 1 < 2; }").unwrap();
        let Item::Func(f) = &p.items[0] else { panic!() };
        let Stmt::Assign { value, .. } = &f.body.0[0] else { panic!() };
        // top node is &&
        assert!(matches!(value, Expr::Binary { op, .. } if *op == "&&"));
    }

    #[test]
    fn error_on_missing_semicolon() {
        assert!(parse("void main() { int x = 1 }").is_err());
    }

    #[test]
    fn error_on_bad_item() {
        assert!(parse("42;").is_err());
    }

    #[test]
    fn for_with_declaration_init() {
        let p = parse("void main() { for (int i = 0; i < 3; i = i + 1) { f(i); } }").unwrap();
        let Item::Func(f) = &p.items[0] else { panic!() };
        assert!(matches!(&f.body.0[0], Stmt::For { init: Some(s), .. }
            if matches!(&**s, Stmt::Decl { .. })));
    }
}
