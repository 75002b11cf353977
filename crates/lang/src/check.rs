//! The polymorphic type checker.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::ast::*;
use crate::builtins::{builtin_const, builtin_scheme};
use crate::diag::{Diag, Phase, Pos, Result};
use crate::types::{
    check_pardata_rules, contains_pardata, Scheme, StructDef, Sym, Ty, TyKind, TypeDefs, Unifier,
    VarMap, ARRAY,
};

/// Lexical scopes for local variables: one flat stack of bindings, so
/// entering a scope and declaring a variable allocate nothing.
#[derive(Debug, Default)]
pub struct Scopes<'a> {
    vars: Vec<(Cow<'a, str>, Ty)>,
    marks: Vec<usize>,
}

impl<'a> Scopes<'a> {
    /// Enter a scope.
    pub fn push(&mut self) {
        self.marks.push(self.vars.len());
    }

    /// Leave a scope.
    pub fn pop(&mut self) {
        let mark = self.marks.pop().expect("scope");
        self.vars.truncate(mark);
    }

    /// Declare a variable in the innermost scope.
    pub fn declare(&mut self, name: impl Into<Cow<'a, str>>, ty: Ty) {
        self.vars.push((name.into(), ty));
    }

    /// Look a variable up, innermost first.
    pub fn lookup(&self, name: &str) -> Option<Ty> {
        self.vars.iter().rev().find(|(n, _)| n == name).map(|&(_, t)| t)
    }
}

/// A user function: its AST and its type scheme.
#[derive(Debug)]
pub struct UserFn<'a> {
    /// The definition.
    pub func: &'a Func<'a>,
    /// Its polymorphic type.
    pub scheme: Scheme,
}

/// The checked program environment, consumed by the instantiation pass.
/// It borrows the program it checked.
pub struct Checked<'a> {
    /// Struct and pardata definitions.
    pub defs: TypeDefs<'a>,
    /// User functions by name. Builtins live in the static
    /// [`crate::builtins::BUILTIN_SCHEMES`] table; user functions are
    /// looked up first (they may not shadow a builtin).
    pub funcs: HashMap<&'a str, UserFn<'a>>,
    /// The unifier (carried into instantiation for local inference).
    pub uni: Unifier,
}

/// Type-check a parsed program.
pub fn check<'a>(prog: &'a Program<'a>) -> Result<Checked<'a>> {
    let mut defs = TypeDefs { structs: Vec::new(), pardatas: vec![("array", 1)] };
    let mut funcs: HashMap<&str, UserFn> = HashMap::new();
    let mut order: Vec<&Func> = Vec::new();

    // Pass 1: collect type definitions and function ASTs.
    for item in &prog.items {
        match item {
            Item::Pardata { name, arity, pos } => {
                if *name == "array" {
                    if *arity != 1 {
                        return Err(Diag::new(
                            Phase::Type,
                            *pos,
                            "the built-in pardata `array` has exactly one type parameter",
                        ));
                    }
                    continue; // re-declaration of the builtin prototype
                }
                if defs.pardata_arity(name).is_some() {
                    return Err(Diag::new(
                        Phase::Type,
                        *pos,
                        format!("duplicate pardata `{name}`"),
                    ));
                }
                defs.pardatas.push((*name, *arity));
            }
            Item::Struct { name, params, fields, pos } => {
                if defs.struct_def(name).is_some() {
                    return Err(Diag::new(Phase::Type, *pos, format!("duplicate struct `{name}`")));
                }
                defs.structs.push((*name, (params.as_slice(), fields.as_slice())));
            }
            Item::Func(f) => {
                let placeholder = Scheme { vars: Vec::new(), ty: Ty::VOID };
                if funcs.insert(f.name, UserFn { func: f, scheme: placeholder }).is_some() {
                    return Err(Diag::new(
                        Phase::Type,
                        f.pos,
                        format!("duplicate function `{}`", f.name),
                    ));
                }
                order.push(f);
            }
        }
    }

    let mut uni = Unifier::default();

    // Pass 1.5: struct fields may not contain pardata types (the paper's
    // composition rule — local structures are copied and flattened, a
    // distributed structure cannot live inside them).
    for &(name, (params, fields)) in &defs.structs {
        let mut var_map: VarMap = params.iter().map(|&p| (p, uni.fresh())).collect();
        for (fname, fty) in fields {
            let t = defs.lower(fty, &mut var_map, &mut uni, false, Pos::default())?;
            if contains_pardata(&uni, t) {
                return Err(Diag::new(
                    Phase::Type,
                    Pos::default(),
                    format!(
                        "field `{fname}` of struct `{name}` has a pardata type; \
                         distributed structures may not be components of other \
                         data structures"
                    ),
                ));
            }
        }
    }

    // Pass 2: lower all signatures (enables mutual recursion).
    let mut sig_vars: Vec<VarMap> = Vec::with_capacity(order.len());
    for f in &order {
        if builtin_scheme(f.name).is_some() {
            return Err(Diag::new(
                Phase::Type,
                f.pos,
                format!("`{}` shadows a built-in function", f.name),
            ));
        }
        let mut var_map = VarMap::new();
        let mut params = Vec::with_capacity(f.params.len());
        for p in &f.params {
            params.push(defs.lower(&p.ty, &mut var_map, &mut uni, true, p.pos)?);
        }
        let ret = defs.lower(&f.ret, &mut var_map, &mut uni, true, f.pos)?;
        let ty = uni.fun(&params, ret);
        let vars = var_map.iter().map(|&(_, v)| v).collect();
        funcs.get_mut(f.name).expect("collected in pass 1").scheme = Scheme { vars, ty };
        sig_vars.push(var_map);
    }

    // Pass 3: check bodies.
    let mut checked = Checked { defs, funcs, uni };
    for (f, vars) in order.iter().zip(&sig_vars) {
        checked.check_func(f, vars)?;
    }

    // main must exist with signature `void main()`.
    match checked.funcs.get("main") {
        Some(main) => {
            let TyKind::Fun(params, ret) = checked.uni.kind(main.scheme.ty) else {
                return Err(Diag::new(Phase::Type, Pos::default(), "main is not a function"));
            };
            if !params.is_empty() || checked.uni.resolve(ret) != TyKind::Void {
                return Err(Diag::new(
                    Phase::Type,
                    Pos::default(),
                    "main must have the signature `void main()`",
                ));
            }
        }
        None => {
            return Err(Diag::new(Phase::Type, Pos::default(), "program has no `main` function"))
        }
    }
    Ok(checked)
}

impl<'a> Checked<'a> {
    /// A fresh instance of the type of function `name` (user functions
    /// first, then builtins).
    pub(crate) fn instantiate_fn(&mut self, name: &str) -> Option<Ty> {
        match self.funcs.get(name) {
            Some(f) => Some(self.uni.instantiate(&f.scheme)),
            None => builtin_scheme(name).map(|s| self.uni.instantiate_builtin(s)),
        }
    }

    /// The declaration of the struct an interned name stands for.
    pub(crate) fn struct_entry(&self, s: Sym) -> (&'a str, StructDef<'a>) {
        let name = self.uni.name(s);
        *self.defs.structs.iter().find(|(n, _)| *n == name).expect("declared struct")
    }

    /// Bind struct `def`'s type parameters to `args`.
    pub(crate) fn struct_vars(&self, def: StructDef<'a>, args: crate::types::Kids) -> VarMap<'a> {
        def.0.iter().copied().zip(self.uni.kids(args).iter().copied()).collect()
    }

    fn check_func(&mut self, f: &'a Func<'a>, sig_vars: &VarMap<'a>) -> Result<()> {
        let TyKind::Fun(params, ret) = self.uni.kind(self.funcs[f.name].scheme.ty) else {
            unreachable!()
        };
        let mut scopes = Scopes::default();
        scopes.push();
        for (p, &ty) in f.params.iter().zip(self.uni.kids(params)) {
            scopes.declare(p.name, ty);
        }
        self.check_block(&f.body, &mut scopes, ret)?;

        // The body must not constrain the signature's type variables
        // ("skeletons depend only on the structure of the problem, not on
        // particular data types").
        let mut seen = Vec::new();
        for &(vname, vt) in sig_vars {
            match self.uni.resolve(vt) {
                TyKind::Var(w) => {
                    if seen.contains(&w) {
                        return Err(Diag::new(
                            Phase::Type,
                            f.pos,
                            format!(
                                "type variable ${vname} of `{}` is forced equal to \
                                 another signature variable by the body",
                                f.name
                            ),
                        ));
                    }
                    seen.push(w);
                }
                _ => {
                    return Err(Diag::new(
                        Phase::Type,
                        f.pos,
                        format!(
                            "type variable ${vname} of `{}` is constrained to `{}` \
                             by the body; use a monomorphic signature instead",
                            f.name,
                            self.uni.show(vt)
                        ),
                    ))
                }
            }
        }

        // Pardata composition rules on the (resolved) signature.
        for &ty in self.uni.kids(params) {
            check_pardata_rules(&self.uni, ty, f.pos)?;
        }
        Ok(())
    }

    fn check_block(&mut self, b: &'a Block<'a>, scopes: &mut Scopes<'a>, ret: Ty) -> Result<()> {
        scopes.push();
        for s in &b.0 {
            self.check_stmt(s, scopes, ret)?;
        }
        scopes.pop();
        Ok(())
    }

    fn check_stmt(&mut self, s: &'a Stmt<'a>, scopes: &mut Scopes<'a>, ret: Ty) -> Result<()> {
        match s {
            Stmt::Decl { ty, name, init, pos } => {
                let t = self.defs.lower(ty, &mut VarMap::new(), &mut self.uni, false, *pos)?;
                check_pardata_rules(&self.uni, t, *pos)?;
                if let Some(e) = init {
                    let it = self.infer_expr(e, scopes)?;
                    self.uni.unify(t, it, *pos)?;
                }
                scopes.declare(*name, t);
                Ok(())
            }
            Stmt::Assign { name, value, pos } => {
                let vt = scopes.lookup(name).ok_or_else(|| {
                    Diag::new(Phase::Type, *pos, format!("assignment to undeclared `{name}`"))
                })?;
                let et = self.infer_expr(value, scopes)?;
                self.uni.unify(vt, et, *pos)
            }
            Stmt::If { cond, then, els } => {
                let ct = self.infer_expr(cond, scopes)?;
                self.uni.unify(ct, Ty::INT, cond.pos())?;
                self.check_block(then, scopes, ret)?;
                if let Some(e) = els {
                    self.check_block(e, scopes, ret)?;
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                let ct = self.infer_expr(cond, scopes)?;
                self.uni.unify(ct, Ty::INT, cond.pos())?;
                self.check_block(body, scopes, ret)
            }
            Stmt::For { init, cond, step, body } => {
                scopes.push();
                if let Some(i) = init {
                    self.check_stmt(i, scopes, ret)?;
                }
                if let Some(c) = cond {
                    let ct = self.infer_expr(c, scopes)?;
                    self.uni.unify(ct, Ty::INT, c.pos())?;
                }
                if let Some(st) = step {
                    self.check_stmt(st, scopes, ret)?;
                }
                self.check_block(body, scopes, ret)?;
                scopes.pop();
                Ok(())
            }
            Stmt::Return { value, pos } => match value {
                Some(e) => {
                    let t = self.infer_expr(e, scopes)?;
                    self.uni.unify(ret, t, *pos)
                }
                None => self.uni.unify(ret, Ty::VOID, *pos),
            },
            Stmt::Expr(e) => {
                self.infer_expr(e, scopes)?;
                Ok(())
            }
        }
    }

    /// The type of operator section `op`: `($a, $a) -> $a` for
    /// arithmetic, `($a, $a) -> int` for comparisons, with `$a` fresh.
    pub(crate) fn op_section_ty(&mut self, op: &str) -> (Ty, Ty) {
        let a = self.uni.fresh();
        let ret = match op {
            "+" | "-" | "*" | "/" | "%" => a,
            _ => Ty::INT,
        };
        (self.uni.fun(&[a, a], ret), a)
    }

    /// The result type of binary operator `op` on operands of types `lt`
    /// and `rt`.
    pub(crate) fn binary_ty(&mut self, op: &str, lt: Ty, rt: Ty, pos: Pos) -> Result<Ty> {
        self.uni.unify(lt, rt, pos)?;
        match op {
            "+" | "-" | "*" | "/" => {
                self.require_numeric(lt, pos)?;
                Ok(lt)
            }
            "%" => {
                self.uni.unify(lt, Ty::INT, pos)?;
                Ok(Ty::INT)
            }
            "==" | "!=" | "<" | "<=" | ">" | ">=" => {
                self.require_numeric(lt, pos)?;
                Ok(Ty::INT)
            }
            "&&" | "||" => {
                self.uni.unify(lt, Ty::INT, pos)?;
                Ok(Ty::INT)
            }
            other => Err(Diag::new(Phase::Type, pos, format!("unknown operator `{other}`"))),
        }
    }

    /// The result type of unary operator `op` on an operand of type `t`.
    pub(crate) fn unary_ty(&mut self, op: &str, t: Ty, pos: Pos) -> Result<Ty> {
        match op {
            "-" => {
                self.require_numeric(t, pos)?;
                Ok(t)
            }
            _ => {
                self.uni.unify(t, Ty::INT, pos)?;
                Ok(Ty::INT)
            }
        }
    }

    /// The type of field `field` of a value of type `t`.
    pub(crate) fn field_ty(&mut self, t: Ty, field: &str, pos: Pos) -> Result<Ty> {
        match self.uni.resolve(t) {
            TyKind::Bounds => match field {
                "lowerBd" | "upperBd" => Ok(Ty::INDEX),
                other => Err(Diag::new(
                    Phase::Type,
                    pos,
                    format!("Bounds has fields `lowerBd`/`upperBd`, not `{other}`"),
                )),
            },
            TyKind::Struct(s, args) => {
                let (name, def) = self.struct_entry(s);
                let (_, fty) = def.1.iter().find(|(n, _)| *n == field).ok_or_else(|| {
                    Diag::new(Phase::Type, pos, format!("struct `{name}` has no field `{field}`"))
                })?;
                let mut var_map = self.struct_vars(def, args);
                self.defs.lower(fty, &mut var_map, &mut self.uni, false, pos)
            }
            _ => Err(Diag::new(
                Phase::Type,
                pos,
                format!("field access on non-struct type `{}`", self.uni.show(t)),
            )),
        }
    }

    /// Infer an expression's type.
    pub fn infer_expr(&mut self, e: &'a Expr<'a>, scopes: &Scopes<'a>) -> Result<Ty> {
        match e {
            Expr::Int(_, _) => Ok(Ty::INT),
            Expr::Float(_, _) => Ok(Ty::FLOAT),
            Expr::Var(name, pos) => {
                if let Some(t) = scopes.lookup(name) {
                    return Ok(t);
                }
                if let Some(t) = builtin_const(name) {
                    return Ok(t);
                }
                if let Some(t) = self.instantiate_fn(name) {
                    return Ok(t);
                }
                Err(Diag::new(Phase::Type, *pos, format!("unknown identifier `{name}`")))
            }
            Expr::OpSection(op, _pos) => Ok(self.op_section_ty(op).0),
            Expr::Call { callee, args, pos } => {
                let ct = self.infer_expr(callee, scopes)?;
                let TyKind::Fun(params, ret) = self.uni.resolve(ct) else {
                    return Err(Diag::new(
                        Phase::Type,
                        *pos,
                        format!("call of a non-function value of type `{}`", self.uni.show(ct)),
                    ));
                };
                if args.len() > params.len() {
                    return Err(Diag::new(
                        Phase::Type,
                        *pos,
                        format!(
                            "too many arguments: function takes {}, got {}",
                            params.len(),
                            args.len()
                        ),
                    ));
                }
                for (i, a) in args.iter().enumerate() {
                    let at = self.infer_expr(a, scopes)?;
                    self.uni.unify(self.uni.kid(params, i), at, a.pos())?;
                }
                if args.len() == params.len() {
                    Ok(ret)
                } else {
                    // partial application (currying)
                    Ok(self.uni.fun_of(params.skip(args.len()), ret))
                }
            }
            Expr::Binary { op, lhs, rhs, pos } => {
                let lt = self.infer_expr(lhs, scopes)?;
                let rt = self.infer_expr(rhs, scopes)?;
                self.binary_ty(op, lt, rt, *pos)
            }
            Expr::Unary { op, expr, pos } => {
                let t = self.infer_expr(expr, scopes)?;
                self.unary_ty(op, t, *pos)
            }
            Expr::Field { expr, field, pos } => {
                let t = self.infer_expr(expr, scopes)?;
                self.field_ty(t, field, *pos)
            }
            Expr::IndexAt { expr, index, pos } => {
                let t = self.infer_expr(expr, scopes)?;
                self.uni.unify(t, Ty::INDEX, *pos)?;
                let it = self.infer_expr(index, scopes)?;
                self.uni.unify(it, Ty::INT, *pos)?;
                Ok(Ty::INT)
            }
            Expr::BraceList { elems, pos } => {
                check_index_arity(elems.len(), *pos)?;
                for e in elems {
                    let t = self.infer_expr(e, scopes)?;
                    self.uni.unify(t, Ty::INT, e.pos())?;
                }
                Ok(Ty::INDEX)
            }
            Expr::StructLit { name, fields, pos } => {
                let (s, def, mut var_map) = self.struct_lit_start(name, fields.len(), *pos)?;
                for (e, (_, fty)) in fields.iter().zip(def.1) {
                    let want = self.defs.lower(fty, &mut var_map, &mut self.uni, false, *pos)?;
                    let got = self.infer_expr(e, scopes)?;
                    self.uni.unify(want, got, e.pos())?;
                }
                Ok(self.struct_lit_ty(s, def, &var_map))
            }
        }
    }

    /// Validate struct literal `name{...}` with `n` fields: its symbol,
    /// declaration, and fresh variables for its type parameters.
    pub(crate) fn struct_lit_start(
        &mut self,
        name: &str,
        n: usize,
        pos: Pos,
    ) -> Result<(Sym, StructDef<'a>, VarMap<'a>)> {
        let Some(def) = self.defs.struct_def(name) else {
            return Err(Diag::new(Phase::Type, pos, format!("unknown struct `{name}`")));
        };
        if n != def.1.len() {
            return Err(Diag::new(
                Phase::Type,
                pos,
                format!("struct `{name}` has {} fields, literal provides {n}", def.1.len()),
            ));
        }
        let var_map = def.0.iter().map(|&p| (p, self.uni.fresh())).collect();
        Ok((self.uni.sym(name), def, var_map))
    }

    /// The type of a struct literal once its fields are unified.
    pub(crate) fn struct_lit_ty(&mut self, s: Sym, def: StructDef<'a>, var_map: &VarMap<'a>) -> Ty {
        let args: Vec<Ty> = def
            .0
            .iter()
            .map(|p| var_map.iter().find(|(n, _)| n == p).expect("param bound").1)
            .collect();
        self.uni.strukt(s, &args)
    }

    fn require_numeric(&mut self, t: Ty, pos: Pos) -> Result<()> {
        match self.uni.resolve(t) {
            TyKind::Int | TyKind::Float | TyKind::Var(_) => Ok(()),
            _ => Err(Diag::new(
                Phase::Type,
                pos,
                format!("arithmetic on non-numeric type `{}`", self.uni.show(t)),
            )),
        }
    }
}

/// `Index` literals have one or two components.
pub(crate) fn check_index_arity(n: usize, pos: Pos) -> Result<()> {
    if n == 0 || n > 2 {
        return Err(Diag::new(Phase::Type, pos, "Index literals have one or two components"));
    }
    Ok(())
}

/// Whether a type is (resolved to) the built-in `array` pardata; its
/// element type if so.
pub(crate) fn array_elem(uni: &Unifier, t: Ty) -> Option<Ty> {
    match uni.resolve(t) {
        TyKind::Pardata(ARRAY, args) => Some(uni.kid(args, 0)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn ok(src: &str) {
        let p = parse(src).unwrap();
        if let Err(e) = check(&p) {
            panic!("expected well-typed, got: {e}\n{src}");
        }
    }

    fn bad(src: &str) -> String {
        let p = parse(src).unwrap();
        match check(&p) {
            Ok(_) => panic!("expected a type error\n{src}"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn minimal_main() {
        ok("void main() { int x = 1; x = x + 2; }");
    }

    #[test]
    fn requires_main() {
        let e = bad("int f() { return 1; }");
        assert!(e.contains("main"));
    }

    #[test]
    fn arithmetic_types() {
        ok("void main() { float y = 1.5; y = y * 2.0; }");
        let e = bad("void main() { int x = 1.5; }");
        assert!(e.contains("mismatch"));
        let e = bad("void main() { float y = 1.0 + 1; }");
        assert!(e.contains("mismatch"));
        bad("void main() { float y = 1.5 % 2.0; }");
    }

    #[test]
    fn undeclared_and_unknown() {
        assert!(bad("void main() { x = 1; }").contains("undeclared"));
        assert!(bad("void main() { int x = nope; }").contains("unknown identifier"));
    }

    #[test]
    fn polymorphic_user_function() {
        ok("$a ident($a x) { return x; }\n\
            void main() { int i = ident(3); float f = ident(2.5); }");
    }

    #[test]
    fn body_may_not_constrain_type_vars() {
        let e = bad("$a bad($a x) { return x + 1; }\nvoid main() { }");
        assert!(e.contains("constrained"), "{e}");
    }

    #[test]
    fn hof_with_functional_param() {
        ok("$b apply($b f($a), $a x) { return f(x); }\n\
            int inc(int x) { return x + 1; }\n\
            void main() { int y = apply(inc, 41); }");
    }

    #[test]
    fn partial_application_types() {
        ok("int addthree(int a, int b, int c) { return a + b + c; }\n\
            int apply2(int f(int, int), int x, int y) { return f(x, y); }\n\
            void main() { int r = apply2(addthree(1), 2, 3); }");
    }

    #[test]
    fn operator_sections() {
        ok("$t fold2($t f($t, $t), $t a, $t b) { return f(a, b); }\n\
            void main() { int s = fold2((+), 1, 2); float p = fold2((*), 1.5, 2.0); }");
    }

    #[test]
    fn skeleton_signatures() {
        ok("float init_f(Index ix) { return itof(ix[0]); }\n\
            void main() {\n\
              array<float> a;\n\
              a = array_create(1, {8, 1}, {0, 0}, {0 - 1, 0 - 1}, init_f, DISTR_DEFAULT);\n\
              array_destroy(a);\n\
            }");
    }

    #[test]
    fn map_with_partial_application_types() {
        // the paper's threshold example, types end to end
        ok("int above_thresh(float thresh, float elem, Index ix) { return elem >= thresh; }\n\
            float init_f(Index ix) { return itof(ix[0]); }\n\
            int zero(Index ix) { return 0; }\n\
            void main() {\n\
              array<float> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, init_f, DISTR_DEFAULT);\n\
              array<int> b = array_create(1, {8,1}, {0,0}, {0-1,0-1}, zero, DISTR_DEFAULT);\n\
              float t = 3.0;\n\
              array_map(above_thresh(t), a, b);\n\
            }");
    }

    #[test]
    fn map_type_mismatch_rejected() {
        let e = bad("int above(float t, float e, Index ix) { return 1; }\n\
             int zero(Index ix) { return 0; }\n\
             void main() {\n\
               array<int> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, zero, DISTR_DEFAULT);\n\
               array<int> b = array_create(1, {8,1}, {0,0}, {0-1,0-1}, zero, DISTR_DEFAULT);\n\
               float t = 3.0;\n\
               array_map(above(t), a, b);\n\
             }");
        assert!(e.contains("mismatch"), "{e}");
    }

    #[test]
    fn structs_and_fields() {
        ok("struct elemrec { float val; int row; int col; };\n\
            void main() {\n\
              elemrec e = elemrec{1.5, 2, 3};\n\
              float v = e.val;\n\
              int r = e.row + e.col;\n\
            }");
        let e = bad("struct elemrec { float val; };\n\
             void main() { elemrec e = elemrec{1.5}; int v = e.val; }");
        assert!(e.contains("mismatch"));
        let e = bad("struct elemrec { float val; };\n\
             void main() { elemrec e = elemrec{1.5}; float v = e.bogus; }");
        assert!(e.contains("no field"));
    }

    #[test]
    fn polymorphic_struct() {
        ok("struct pair<$a, $b> { $a fst; $b snd; };\n\
            void main() {\n\
              pair<int, float> p = pair{1, 2.5};\n\
              int x = p.fst;\n\
              float y = p.snd;\n\
            }");
    }

    #[test]
    fn bounds_fields() {
        ok("int zero(Index ix) { return 0; }\n\
            void main() {\n\
              array<int> a = array_create(2, {4,4}, {0,0}, {0-1,0-1}, zero, DISTR_DEFAULT);\n\
              Bounds bds = array_part_bounds(a);\n\
              int lo = bds->lowerBd[0];\n\
              int hi = bds.upperBd[1];\n\
            }");
    }

    #[test]
    fn pardata_struct_field_rejected() {
        let e = bad("struct holder { array<int> a; int n; };\n\
             void main() { }");
        assert!(e.contains("component"), "{e}");
    }

    #[test]
    fn nested_pardata_rejected() {
        let e = bad("int zero(Index ix) { return 0; }\n\
             void main() { array< array<int> > a; }");
        assert!(e.contains("component"), "{e}");
    }

    #[test]
    fn local_access_types() {
        ok("int zero(Index ix) { return 0; }\n\
            void main() {\n\
              array<int> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, zero, DISTR_DEFAULT);\n\
              int v = array_get_elem(a, {0, 0});\n\
              array_put_elem(a, {0, 0}, v + 1);\n\
            }");
    }

    #[test]
    fn shadowing_builtin_rejected() {
        let e = bad("int array_map(int x) { return x; }\nvoid main() { }");
        assert!(e.contains("shadows"));
    }

    #[test]
    fn fold_result_type() {
        ok("struct rec { float v; int r; };\n\
            rec conv(float x, Index ix) { return rec{x, ix[0]}; }\n\
            rec pick(rec a, rec b) { if (a.v >= b.v) { return a; } return b; }\n\
            float init_f(Index ix) { return itof(ix[0]); }\n\
            void main() {\n\
              array<float> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, init_f, DISTR_DEFAULT);\n\
              rec best = array_fold(conv, pick, a);\n\
              print(best.r);\n\
            }");
    }
}
