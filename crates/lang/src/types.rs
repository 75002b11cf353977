//! The semantic type representation and unification.
//!
//! Skil's polymorphic type system: type variables (`$t`), the scalar C
//! types of the subset, nominal (possibly parameterized) structs, hidden
//! `pardata` types, and n-ary curried function types. "Polymorphism can
//! be simulated in C by using void pointers and casting. ... Our approach
//! leads however to safer programs, as a polymorphic type checking is
//! performed."
//!
//! Types live in one store owned by the [`Unifier`]: a [`Ty`] is a
//! `Copy` handle to an immutable node, compound nodes refer to their
//! components by handle, and a unification variable is bound in place.
//! Building, copying and resolving a type therefore never allocates, and
//! a scheme instantiation copies only the nodes that mention its
//! quantified variables.

use crate::ast::TypeExpr;
use crate::diag::{Diag, Phase, Pos, Result};
use std::fmt;

/// A semantic type: a handle into the [`Unifier`]'s type store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ty(u32);

impl Ty {
    /// `int` (C `int`/`unsigned`; also the boolean type).
    pub const INT: Ty = Ty(0);
    /// `float` / `double`.
    pub const FLOAT: Ty = Ty(1);
    /// `void`.
    pub const VOID: Ty = Ty(2);
    /// The `Index`/`Size` builtin (a `dim`-element index vector).
    pub const INDEX: Ty = Ty(3);
    /// The partition bounds record returned by `array_part_bounds`.
    pub const BOUNDS: Ty = Ty(4);
}

/// An interned struct or pardata name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

/// The interned name of the built-in pardata `array`.
pub const ARRAY: Sym = Sym(0);

/// A run of component handles in the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kids {
    start: u32,
    len: u32,
}

impl Kids {
    /// Number of components.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether there are no components.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The run without its first `n` components.
    pub fn skip(self, n: usize) -> Kids {
        let n = n.min(self.len as usize) as u32;
        Kids { start: self.start + n, len: self.len - n }
    }
}

/// One node of the type store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TyKind {
    /// `int`.
    Int,
    /// `float`.
    Float,
    /// `void`.
    Void,
    /// `Index` / `Size`.
    Index,
    /// `Bounds`.
    Bounds,
    /// A unification variable, by number.
    Var(u32),
    /// A cons list `list<$t>` (the paper's d&c skeleton works on lists).
    List(Ty),
    /// A `pardata` type with its type arguments (e.g. `array<float>`).
    Pardata(Sym, Kids),
    /// A nominal struct instance.
    Struct(Sym, Kids),
    /// An n-ary function; application is curried.
    Fun(Kids, Ty),
}

/// A polymorphic type scheme: `forall vars . ty`.
#[derive(Debug, Clone)]
pub struct Scheme {
    /// Universally quantified variables (variable nodes of `ty`).
    pub vars: Vec<Ty>,
    /// The body.
    pub ty: Ty,
}

/// A built-in type, described statically (see [`crate::builtins`]).
#[derive(Debug)]
pub enum BTy {
    /// `int`.
    Int,
    /// `float`.
    Float,
    /// `void`.
    Void,
    /// `Index`.
    Index,
    /// `Bounds`.
    Bounds,
    /// The scheme's `n`-th quantified variable.
    V(u8),
    /// `array<t>`.
    Arr(&'static BTy),
    /// `list<t>`.
    List(&'static BTy),
    /// A function type.
    Fun(&'static [BTy], &'static BTy),
}

/// A built-in type scheme: `nvars` quantified variables over `ty`.
#[derive(Debug)]
pub struct BScheme {
    /// Number of quantified variables (`BTy::V(0..nvars)`).
    pub nvars: u8,
    /// The body.
    pub ty: BTy,
}

/// `$name` -> type bindings of one signature or instance, in order of
/// first sight.
pub type VarMap<'a> = Vec<(&'a str, Ty)>;

fn var_get(map: &VarMap<'_>, name: &str) -> Option<Ty> {
    map.iter().find(|(n, _)| *n == name).map(|&(_, t)| t)
}

/// The unifier: the type store, the fresh-variable supply and the
/// substitution.
#[derive(Debug)]
pub struct Unifier {
    nodes: Vec<TyKind>,
    kids: Vec<Ty>,
    /// Binding of each variable, by number.
    bound: Vec<Option<Ty>>,
    names: Vec<String>,
    /// Component handles under construction (a stack shared by nested
    /// builders).
    stack: Vec<Ty>,
    /// Variable substitution of the scheme being instantiated.
    subst: Vec<(Ty, Ty)>,
}

impl Default for Unifier {
    fn default() -> Unifier {
        Unifier {
            nodes: vec![TyKind::Int, TyKind::Float, TyKind::Void, TyKind::Index, TyKind::Bounds],
            kids: Vec::new(),
            bound: Vec::new(),
            names: vec!["array".to_string()],
            stack: Vec::new(),
            subst: Vec::new(),
        }
    }
}

impl Unifier {
    fn push(&mut self, k: TyKind) -> Ty {
        self.nodes.push(k);
        Ty(self.nodes.len() as u32 - 1)
    }

    /// The node a handle names (not resolved through bindings).
    pub fn kind(&self, t: Ty) -> TyKind {
        self.nodes[t.0 as usize]
    }

    /// The component handles of a run.
    pub fn kids(&self, k: Kids) -> &[Ty] {
        &self.kids[k.start as usize..(k.start + k.len) as usize]
    }

    /// The `i`-th component of a run.
    pub fn kid(&self, k: Kids, i: usize) -> Ty {
        self.kids[k.start as usize + i]
    }

    /// Intern a struct or pardata name.
    pub fn sym(&mut self, name: &str) -> Sym {
        match self.names.iter().position(|n| n == name) {
            Some(i) => Sym(i as u32),
            None => {
                self.names.push(name.to_string());
                Sym(self.names.len() as u32 - 1)
            }
        }
    }

    /// The name an interned symbol stands for.
    pub fn name(&self, s: Sym) -> &str {
        &self.names[s.0 as usize]
    }

    /// Store the components pushed on the stack since `mark` as one run.
    fn kids_from(&mut self, mark: usize) -> Kids {
        let start = self.kids.len() as u32;
        self.kids.extend(self.stack.drain(mark..));
        Kids { start, len: self.kids.len() as u32 - start }
    }

    fn kids_of(&mut self, tys: &[Ty]) -> Kids {
        let start = self.kids.len() as u32;
        self.kids.extend_from_slice(tys);
        Kids { start, len: tys.len() as u32 }
    }

    /// `list<t>`.
    pub fn list(&mut self, t: Ty) -> Ty {
        self.push(TyKind::List(t))
    }

    /// A function type.
    pub fn fun(&mut self, args: &[Ty], ret: Ty) -> Ty {
        let k = self.kids_of(args);
        self.push(TyKind::Fun(k, ret))
    }

    /// A function type over an existing run of parameters.
    pub fn fun_of(&mut self, args: Kids, ret: Ty) -> Ty {
        self.push(TyKind::Fun(args, ret))
    }

    /// A pardata type.
    pub fn pardata(&mut self, s: Sym, args: &[Ty]) -> Ty {
        let k = self.kids_of(args);
        self.push(TyKind::Pardata(s, k))
    }

    /// A struct type.
    pub fn strukt(&mut self, s: Sym, args: &[Ty]) -> Ty {
        let k = self.kids_of(args);
        self.push(TyKind::Struct(s, k))
    }

    /// A fresh unification variable.
    pub fn fresh(&mut self) -> Ty {
        let v = self.bound.len() as u32;
        self.bound.push(None);
        self.push(TyKind::Var(v))
    }

    /// Instantiate a scheme with fresh variables (one per quantified
    /// variable, in order). Nodes that mention no quantified variable
    /// are shared, not copied.
    pub fn instantiate(&mut self, s: &Scheme) -> Ty {
        if s.vars.is_empty() {
            return s.ty;
        }
        let base = self.subst.len();
        for &v in &s.vars {
            let f = self.fresh();
            self.subst.push((v, f));
        }
        let t = self.subst_in(s.ty, base);
        self.subst.truncate(base);
        t
    }

    /// Copy `t` with the variables in `subst[base..]` replaced. Bindings
    /// are not followed: a scheme quantifies over its variable nodes.
    fn subst_in(&mut self, t: Ty, base: usize) -> Ty {
        match self.kind(t) {
            TyKind::Var(_) => {
                self.subst[base..].iter().find(|(v, _)| *v == t).map_or(t, |&(_, f)| f)
            }
            TyKind::List(el) => {
                let el2 = self.subst_in(el, base);
                if el2 == el {
                    t
                } else {
                    self.list(el2)
                }
            }
            TyKind::Pardata(_, k) | TyKind::Struct(_, k) | TyKind::Fun(k, _) => {
                let mark = self.stack.len();
                let mut changed = false;
                for i in 0..k.len() {
                    let a = self.kid(k, i);
                    let a2 = self.subst_in(a, base);
                    changed |= a2 != a;
                    self.stack.push(a2);
                }
                let ret = match self.kind(t) {
                    TyKind::Fun(_, r) => {
                        let r2 = self.subst_in(r, base);
                        changed |= r2 != r;
                        Some(r2)
                    }
                    _ => None,
                };
                if !changed {
                    self.stack.truncate(mark);
                    return t;
                }
                let k2 = self.kids_from(mark);
                match (self.kind(t), ret) {
                    (TyKind::Pardata(s, _), _) => self.push(TyKind::Pardata(s, k2)),
                    (TyKind::Struct(s, _), _) => self.push(TyKind::Struct(s, k2)),
                    (_, Some(r)) => self.push(TyKind::Fun(k2, r)),
                    _ => unreachable!("compound node"),
                }
            }
            _ => t,
        }
    }

    /// Instantiate a built-in scheme with fresh variables.
    pub fn instantiate_builtin(&mut self, s: &BScheme) -> Ty {
        // `BTy::V(i)` is the `i`-th entry past `base`.
        let base = self.subst.len();
        for _ in 0..s.nvars {
            let f = self.fresh();
            self.subst.push((f, f));
        }
        let t = self.build(&s.ty, base);
        self.subst.truncate(base);
        t
    }

    fn build(&mut self, b: &BTy, base: usize) -> Ty {
        match b {
            BTy::Int => Ty::INT,
            BTy::Float => Ty::FLOAT,
            BTy::Void => Ty::VOID,
            BTy::Index => Ty::INDEX,
            BTy::Bounds => Ty::BOUNDS,
            BTy::V(i) => self.subst[base + *i as usize].1,
            BTy::Arr(el) => {
                let el = self.build(el, base);
                self.pardata(ARRAY, &[el])
            }
            BTy::List(el) => {
                let el = self.build(el, base);
                self.list(el)
            }
            BTy::Fun(args, ret) => {
                let mark = self.stack.len();
                for a in args.iter() {
                    let a = self.build(a, base);
                    self.stack.push(a);
                }
                let r = self.build(ret, base);
                let k = self.kids_from(mark);
                self.push(TyKind::Fun(k, r))
            }
        }
    }

    /// Follow variable bindings to the current representative.
    pub fn shallow(&self, mut t: Ty) -> Ty {
        while let TyKind::Var(v) = self.kind(t) {
            match self.bound[v as usize] {
                Some(b) => t = b,
                None => break,
            }
        }
        t
    }

    /// The representative's node.
    pub fn resolve(&self, t: Ty) -> TyKind {
        self.kind(self.shallow(t))
    }

    fn occurs(&self, v: u32, t: Ty) -> bool {
        match self.resolve(t) {
            TyKind::Var(w) => w == v,
            TyKind::List(el) => self.occurs(v, el),
            TyKind::Pardata(_, k) | TyKind::Struct(_, k) => {
                self.kids(k).iter().any(|&a| self.occurs(v, a))
            }
            TyKind::Fun(k, ret) => {
                self.kids(k).iter().any(|&a| self.occurs(v, a)) || self.occurs(v, ret)
            }
            _ => false,
        }
    }

    /// Unify two types, extending the substitution.
    pub fn unify(&mut self, a: Ty, b: Ty, pos: Pos) -> Result<()> {
        let a = self.shallow(a);
        let b = self.shallow(b);
        if a == b {
            return Ok(());
        }
        match (self.kind(a), self.kind(b)) {
            (TyKind::Var(v), kb) => {
                if kb == TyKind::Var(v) {
                    return Ok(());
                }
                if self.occurs(v, b) {
                    return Err(Diag::new(
                        Phase::Type,
                        pos,
                        format!("infinite type: {} = {}", self.show(a), self.show(b)),
                    ));
                }
                self.bound[v as usize] = Some(b);
                Ok(())
            }
            (_, TyKind::Var(_)) => self.unify(b, a, pos),
            (TyKind::Int, TyKind::Int)
            | (TyKind::Float, TyKind::Float)
            | (TyKind::Void, TyKind::Void)
            | (TyKind::Index, TyKind::Index)
            | (TyKind::Bounds, TyKind::Bounds) => Ok(()),
            (TyKind::List(t1), TyKind::List(t2)) => self.unify(t1, t2, pos),
            (TyKind::Pardata(n1, a1), TyKind::Pardata(n2, a2))
            | (TyKind::Struct(n1, a1), TyKind::Struct(n2, a2))
                if n1 == n2 && a1.len() == a2.len() =>
            {
                for i in 0..a1.len() {
                    self.unify(self.kid(a1, i), self.kid(a2, i), pos)?;
                }
                Ok(())
            }
            (TyKind::Fun(p1, r1), TyKind::Fun(p2, r2)) if p1.len() == p2.len() => {
                for i in 0..p1.len() {
                    self.unify(self.kid(p1, i), self.kid(p2, i), pos)?;
                }
                self.unify(r1, r2, pos)
            }
            _ => Err(Diag::new(
                Phase::Type,
                pos,
                format!("type mismatch: expected {}, found {}", self.show(a), self.show(b)),
            )),
        }
    }

    /// A `Display` view of a type, resolved through bindings.
    pub fn show(&self, t: Ty) -> Show<'_> {
        Show { uni: self, ty: t }
    }
}

/// A type rendered through its bindings (see [`Unifier::show`]).
pub struct Show<'u> {
    uni: &'u Unifier,
    ty: Ty,
}

impl fmt::Display for Show<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let u = self.uni;
        let list = |f: &mut fmt::Formatter<'_>, k: Kids| -> fmt::Result {
            for (i, &a) in u.kids(k).iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", u.show(a))?;
            }
            Ok(())
        };
        match u.resolve(self.ty) {
            TyKind::Int => write!(f, "int"),
            TyKind::Float => write!(f, "float"),
            TyKind::Void => write!(f, "void"),
            TyKind::Index => write!(f, "Index"),
            TyKind::Bounds => write!(f, "Bounds"),
            TyKind::Var(v) => write!(f, "${v}"),
            TyKind::List(t) => write!(f, "list<{}>", u.show(t)),
            TyKind::Pardata(n, args) | TyKind::Struct(n, args) => {
                write!(f, "{}", u.name(n))?;
                if !args.is_empty() {
                    write!(f, "<")?;
                    list(f, args)?;
                    write!(f, ">")?;
                }
                Ok(())
            }
            TyKind::Fun(args, ret) => {
                write!(f, "(")?;
                list(f, args)?;
                write!(f, ") -> {}", u.show(ret))
            }
        }
    }
}

/// A struct declaration body: type parameter names plus named fields.
pub type StructDef<'a> = (&'a [&'a str], &'a [(&'a str, TypeExpr<'a>)]);

/// Declared type-constructor environment: structs and pardatas, in
/// declaration order.
#[derive(Debug, Clone, Default)]
pub struct TypeDefs<'a> {
    /// struct name -> (type parameter names, fields).
    pub structs: Vec<(&'a str, StructDef<'a>)>,
    /// pardata name -> arity.
    pub pardatas: Vec<(&'a str, usize)>,
}

impl<'a> TypeDefs<'a> {
    /// The definition of struct `name`.
    pub fn struct_def(&self, name: &str) -> Option<StructDef<'a>> {
        self.structs.iter().find(|(n, _)| *n == name).map(|&(_, d)| d)
    }

    /// The arity of pardata `name`.
    pub fn pardata_arity(&self, name: &str) -> Option<usize> {
        self.pardatas.iter().find(|(n, _)| *n == name).map(|&(_, a)| a)
    }

    /// Convert a surface type into a semantic type, mapping `$`-variables
    /// through `var_map` (extended on first sight when `open` is set).
    pub fn lower(
        &self,
        te: &'a TypeExpr<'a>,
        var_map: &mut VarMap<'a>,
        uni: &mut Unifier,
        open: bool,
        pos: Pos,
    ) -> Result<Ty> {
        match te {
            TypeExpr::Var(v) => {
                if let Some(t) = var_get(var_map, v) {
                    Ok(t)
                } else if open {
                    let t = uni.fresh();
                    var_map.push((*v, t));
                    Ok(t)
                } else {
                    Err(Diag::new(Phase::Type, pos, format!("unbound type variable ${v}")))
                }
            }
            TypeExpr::Fun(args, ret) => {
                let mark = uni.stack.len();
                for a in args {
                    match self.lower(a, var_map, uni, open, pos) {
                        Ok(t) => uni.stack.push(t),
                        Err(e) => {
                            uni.stack.truncate(mark);
                            return Err(e);
                        }
                    }
                }
                let ret = match self.lower(ret, var_map, uni, open, pos) {
                    Ok(t) => t,
                    Err(e) => {
                        uni.stack.truncate(mark);
                        return Err(e);
                    }
                };
                let k = uni.kids_from(mark);
                Ok(uni.fun_of(k, ret))
            }
            TypeExpr::Named(name, args) => {
                let mark = uni.stack.len();
                for a in args {
                    match self.lower(a, var_map, uni, open, pos) {
                        Ok(t) => uni.stack.push(t),
                        Err(e) => {
                            uni.stack.truncate(mark);
                            return Err(e);
                        }
                    }
                }
                let n = uni.stack.len() - mark;
                let scalar = match (*name, n) {
                    ("int", 0) | ("uint", 0) | ("unsigned", 0) | ("char", 0) => Some(Ty::INT),
                    ("float", 0) | ("double", 0) => Some(Ty::FLOAT),
                    ("void", 0) => Some(Ty::VOID),
                    ("Index", 0) | ("Size", 0) => Some(Ty::INDEX),
                    ("Bounds", 0) => Some(Ty::BOUNDS),
                    _ => None,
                };
                if let Some(t) = scalar {
                    return Ok(t);
                }
                if *name == "list" && n == 1 {
                    let el = uni.stack.pop().expect("one arg");
                    return Ok(uni.list(el));
                }
                type Node = fn(Sym, Kids) -> TyKind;
                let (what, node, want): (&str, Node, usize) =
                    if let Some(arity) = self.pardata_arity(name) {
                        ("pardata", TyKind::Pardata, arity)
                    } else if let Some((params, _)) = self.struct_def(name) {
                        ("struct", TyKind::Struct, params.len())
                    } else {
                        uni.stack.truncate(mark);
                        return Err(Diag::new(Phase::Type, pos, format!("unknown type `{name}`")));
                    };
                if want != n {
                    uni.stack.truncate(mark);
                    return Err(Diag::new(
                        Phase::Type,
                        pos,
                        format!("{what} {name} expects {want} type arguments, got {n}"),
                    ));
                }
                let s = uni.sym(name);
                let k = uni.kids_from(mark);
                Ok(uni.push(node(s, k)))
            }
        }
    }
}

/// Whether a (resolved) type mentions a pardata type anywhere.
pub fn contains_pardata(uni: &Unifier, ty: Ty) -> bool {
    match uni.resolve(ty) {
        TyKind::Pardata(_, _) => true,
        TyKind::List(t) => contains_pardata(uni, t),
        TyKind::Struct(_, args) => uni.kids(args).iter().any(|&a| contains_pardata(uni, a)),
        TyKind::Fun(args, ret) => {
            uni.kids(args).iter().any(|&a| contains_pardata(uni, a)) || contains_pardata(uni, ret)
        }
        _ => false,
    }
}

/// Enforce the paper's pardata composition rules on a resolved type:
/// "type variables appearing as components of other data types may not be
/// instantiated with types introduced by the pardata construct" and
/// "distributed data structures may not be nested".
pub fn check_pardata_rules(uni: &Unifier, ty: Ty, pos: Pos) -> Result<()> {
    fn no_pardata(uni: &Unifier, ty: Ty, pos: Pos, what: &dyn Fn() -> String) -> Result<()> {
        match uni.resolve(ty) {
            TyKind::Pardata(n, _) => Err(Diag::new(
                Phase::Type,
                pos,
                format!("pardata `{}` may not appear as a component of {}", uni.name(n), what()),
            )),
            TyKind::List(t) => no_pardata(uni, t, pos, what),
            TyKind::Struct(_, args) => {
                for &a in uni.kids(args) {
                    no_pardata(uni, a, pos, what)?;
                }
                Ok(())
            }
            TyKind::Fun(args, ret) => {
                for &a in uni.kids(args) {
                    no_pardata(uni, a, pos, what)?;
                }
                no_pardata(uni, ret, pos, what)
            }
            _ => Ok(()),
        }
    }
    match uni.resolve(ty) {
        TyKind::Pardata(n, args) => {
            for &a in uni.kids(args) {
                no_pardata(uni, a, pos, &|| format!("pardata `{}`", uni.name(n)))?;
                check_pardata_rules(uni, a, pos)?;
            }
            Ok(())
        }
        TyKind::Struct(n, args) => {
            for &a in uni.kids(args) {
                no_pardata(uni, a, pos, &|| format!("struct `{}`", uni.name(n)))?;
                check_pardata_rules(uni, a, pos)?;
            }
            Ok(())
        }
        TyKind::List(t) => {
            no_pardata(uni, t, pos, &|| "a list".to_string())?;
            check_pardata_rules(uni, t, pos)
        }
        TyKind::Fun(args, ret) => {
            for &a in uni.kids(args) {
                check_pardata_rules(uni, a, pos)?;
            }
            check_pardata_rules(uni, ret, pos)
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pos() -> Pos {
        Pos::default()
    }

    #[test]
    fn unify_basics() {
        let mut u = Unifier::default();
        let v = u.fresh();
        u.unify(v, Ty::INT, pos()).unwrap();
        assert_eq!(u.resolve(v), TyKind::Int);
        assert!(u.unify(Ty::INT, Ty::FLOAT, pos()).is_err());
    }

    #[test]
    fn unify_functions_and_pardata() {
        let mut u = Unifier::default();
        let a = u.fresh();
        let f1 = u.fun(&[a], Ty::INT);
        let f2 = u.fun(&[Ty::FLOAT], Ty::INT);
        u.unify(f1, f2, pos()).unwrap();
        assert_eq!(u.resolve(a), TyKind::Float);

        let fresh = u.fresh();
        let p1 = u.pardata(ARRAY, &[fresh]);
        let p2 = u.pardata(ARRAY, &[Ty::INT]);
        u.unify(p1, p2, pos()).unwrap();
        assert_eq!(u.show(p1).to_string(), "array<int>");
        assert_eq!(u.show(p2).to_string(), "array<int>");
    }

    #[test]
    fn occurs_check() {
        let mut u = Unifier::default();
        let v = u.fresh();
        let f = u.fun(&[v], Ty::INT);
        assert!(u.unify(v, f, pos()).is_err());
    }

    #[test]
    fn scheme_instantiation_is_fresh() {
        let mut u = Unifier::default();
        let v = u.fresh();
        let body = u.fun(&[v], v);
        let s = Scheme { vars: vec![v], ty: body };
        let t1 = u.instantiate(&s);
        let t2 = u.instantiate(&s);
        assert_ne!(u.show(t1).to_string(), u.show(t2).to_string(), "fresh variables each time");
        // constraining one instance does not constrain the other
        let TyKind::Fun(args, _) = u.kind(t1) else { panic!() };
        u.unify(u.kid(args, 0), Ty::INT, pos()).unwrap();
        let TyKind::Fun(args2, _) = u.kind(t2) else { panic!() };
        assert!(matches!(u.resolve(u.kid(args2, 0)), TyKind::Var(_)));
    }

    #[test]
    fn monomorphic_parts_are_shared() {
        let mut u = Unifier::default();
        let v = u.fresh();
        let l = u.list(Ty::INT);
        let body = u.fun(&[l, v], l);
        let t = u.instantiate(&Scheme { vars: vec![v], ty: body });
        let TyKind::Fun(args, ret) = u.kind(t) else { panic!() };
        assert_eq!(u.kid(args, 0), l);
        assert_eq!(ret, l);
        assert_eq!(u.show(t).to_string(), "(list<int>, $1) -> list<int>");
    }

    #[test]
    fn pardata_rules_enforced() {
        let mut u = Unifier::default();
        let arr_int = u.pardata(ARRAY, &[Ty::INT]);
        assert!(check_pardata_rules(&u, arr_int, pos()).is_ok());
        // nested pardata rejected
        let nested = u.pardata(ARRAY, &[arr_int]);
        assert!(check_pardata_rules(&u, nested, pos()).is_err());
        // pardata inside a struct's type arguments rejected
        let pair = u.sym("pair");
        let s = u.strukt(pair, &[arr_int, Ty::INT]);
        assert!(check_pardata_rules(&u, s, pos()).is_err());
        // plain struct fine
        let s = u.strukt(pair, &[Ty::FLOAT, Ty::INT]);
        assert!(check_pardata_rules(&u, s, pos()).is_ok());
    }

    #[test]
    fn lower_surface_types() {
        let params = ["a"];
        let fields = [("fst", TypeExpr::Var("a"))];
        let defs = TypeDefs {
            structs: vec![("pair", (&params[..], &fields[..]))],
            pardatas: vec![("array", 1)],
        };
        let mut uni = Unifier::default();
        let mut vm = VarMap::new();
        let arr = TypeExpr::Named("array", vec![TypeExpr::named("float")]);
        let t = defs.lower(&arr, &mut vm, &mut uni, true, Pos::default()).unwrap();
        assert_eq!(uni.show(t).to_string(), "array<float>");
        // arity mismatch
        let bare = TypeExpr::named("array");
        assert!(defs.lower(&bare, &mut vm, &mut uni, true, Pos::default()).is_err());
        // unknown type
        let wibble = TypeExpr::named("wibble");
        assert!(defs.lower(&wibble, &mut vm, &mut uni, true, Pos::default()).is_err());
        // Size is Index
        let size = TypeExpr::named("Size");
        let t = defs.lower(&size, &mut vm, &mut uni, true, Pos::default()).unwrap();
        assert_eq!(t, Ty::INDEX);
    }
}
