//! Translation by instantiation — the paper's core compiler technique
//! (\[1\], "Translation by Instantiation: Integrating Functional Features
//! into an Imperative Language").
//!
//! A (polymorphic) higher-order function is translated into one or more
//! specialized first-order monomorphic functions:
//!
//! * functional arguments of HOFs are bound into the specialized instance
//!   (the skeleton calls the argument-function instance directly);
//! * partial applications are translated by **lifting** their arguments:
//!   the lifted values become extra parameters of the instance and travel
//!   with the call;
//! * a polymorphic function becomes one monomorphic instance per distinct
//!   use, as determined by its calls.
//!
//! The classical alternative — closures — "causes important run-time
//! overheads"; instantiation produces code that "differ\[s\] only little
//! from the hand-written versions".
//!
//! Restriction (as in the paper): functional arguments must be statically
//! resolvable — a function name, an operator section, or a partial
//! application of those. Function-valued *results* would require
//! eta-expansion at the call site and are rejected with a diagnostic.

use std::collections::HashMap;

use crate::ast::{Expr, Func, Stmt, TypeExpr};
use crate::builtins::{builtin_const, INTRINSICS, SKELETONS};
use crate::check::{array_elem, check_index_arity, Checked, Scopes};
use crate::diag::{Diag, Phase, Pos, Result};
use crate::fo::*;
use crate::types::{Kids, Sym, Ty, TyKind, VarMap, ARRAY};

/// What a functional value ultimately names.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Target<'a> {
    /// A user-defined function.
    User(&'a str),
    /// An operator section, monomorphized at the given operand type.
    Op(&'static str, FoTy),
    /// A scalar builtin (e.g. `min` used as a folding function).
    Intrinsic(&'static str),
}

/// One element of a partial application's argument prefix.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PrefixItem<'a> {
    /// A lifted value argument of the given type.
    Val(FoTy),
    /// A functional argument, itself resolved.
    Fn(FnSig<'a>),
}

/// The static identity of a functional value: the target plus the shape
/// of the applied prefix. Two functional arguments with equal `FnSig`s
/// share one instance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FnSig<'a> {
    /// The named target.
    pub target: Target<'a>,
    /// Already-applied argument prefix.
    pub prefix: Vec<PrefixItem<'a>>,
}

impl FnSig<'_> {
    /// The lifted value types, flattened in evaluation order.
    pub fn flat_val_tys(&self) -> Vec<FoTy> {
        let mut out = Vec::new();
        self.push_val_tys(&mut out);
        out
    }

    fn push_val_tys(&self, out: &mut Vec<FoTy>) {
        for it in &self.prefix {
            match it {
                PrefixItem::Val(t) => out.push(t.clone()),
                PrefixItem::Fn(s) => s.push_val_tys(out),
            }
        }
    }
}

/// A resolved functional value at a specific call site: identity plus
/// the lifted argument expressions (flattened, matching
/// [`FnSig::flat_val_tys`]).
#[derive(Debug, Clone)]
pub struct FnVal<'a> {
    /// Static identity.
    pub sig: FnSig<'a>,
    /// Lifted argument expressions.
    pub lifted: Vec<FoExpr>,
}

type InstKey<'a> = (&'a str, Vec<FoTy>, Vec<FnSig<'a>>);

/// Run the instantiation procedure on a checked program.
pub fn instantiate(ck: &mut Checked) -> Result<FoProgram> {
    let mut inst = Instantiator {
        ck,
        memo: HashMap::new(),
        synth_memo: HashMap::new(),
        struct_memo: HashMap::new(),
        struct_origin: HashMap::new(),
        counters: HashMap::new(),
        out: FoProgram::default(),
    };
    let name = inst.request_instance("main", vec![], vec![], Pos::default())?;
    debug_assert_eq!(name, "main");
    inst.out.reindex();
    Ok(inst.out)
}

struct Instantiator<'c, 'a> {
    ck: &'c mut Checked<'a>,
    memo: HashMap<InstKey<'a>, String>,
    synth_memo: HashMap<(Target<'a>, usize, Vec<FoTy>), String>,
    struct_memo: HashMap<(&'a str, Vec<FoTy>), String>,
    /// Struct instance name -> (struct, type arguments).
    struct_origin: HashMap<String, (&'a str, Vec<FoTy>)>,
    counters: HashMap<String, usize>,
    out: FoProgram,
}

/// Per-instance translation context.
struct Ctx<'a> {
    /// `$name` -> concrete type for this instance.
    var_map: VarMap<'a>,
    /// Functional parameter bindings.
    fn_bindings: Vec<(&'a str, FnVal<'a>)>,
    /// Local value scopes.
    scopes: Scopes<'a>,
    /// The instance's return type.
    ret: Ty,
}

impl<'a> Ctx<'a> {
    fn binding(&self, name: &str) -> Option<&FnVal<'a>> {
        self.fn_bindings.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }
}

/// Flatten a curried application chain `f(a)(b)` into its base and the
/// argument list `[a, b]`.
fn flatten_call<'e, 'a>(e: &'e Expr<'a>) -> (&'e Expr<'a>, Vec<&'e Expr<'a>>) {
    let mut base = e;
    let mut groups: Vec<&[Expr]> = Vec::new();
    while let Expr::Call { callee, args, .. } = base {
        groups.push(args);
        base = callee;
    }
    (base, groups.into_iter().rev().flatten().collect())
}

fn intrinsic(name: &str) -> Option<&'static str> {
    INTRINSICS.iter().copied().find(|&n| n == name)
}

impl<'c, 'a> Instantiator<'c, 'a> {
    fn fresh_name(&mut self, base: &str) -> String {
        let n = match self.counters.get_mut(base) {
            Some(n) => {
                *n += 1;
                *n
            }
            None => {
                self.counters.insert(base.to_string(), 1);
                1
            }
        };
        format!("{base}_{n}")
    }

    fn err<T>(&self, pos: Pos, msg: impl Into<String>) -> Result<T> {
        Err(Diag::new(Phase::Instantiate, pos, msg.into()))
    }

    fn is_float(&self, t: Ty) -> bool {
        self.ck.uni.resolve(t) == TyKind::Float
    }

    fn kid(&self, k: Kids, i: usize) -> Ty {
        self.ck.uni.kid(k, i)
    }

    fn unify(&mut self, a: Ty, b: Ty, pos: Pos) -> Result<()> {
        self.ck.uni.unify(a, b, pos)
    }

    // ------------------------------------------------------------------
    // types
    // ------------------------------------------------------------------

    fn foty(&mut self, ty: Ty, pos: Pos) -> Result<FoTy> {
        match self.ck.uni.resolve(ty) {
            TyKind::Int => Ok(FoTy::Int),
            TyKind::Float => Ok(FoTy::Float),
            TyKind::Void => Ok(FoTy::Void),
            TyKind::Index => Ok(FoTy::Index),
            TyKind::Bounds => Ok(FoTy::Bounds),
            TyKind::Var(_) => self.err(
                pos,
                "type is not determined by this call; the instantiation procedure \
                 requires every instance to be fully monomorphic",
            ),
            TyKind::Fun(_, _) => self.err(
                pos,
                "a function-typed value survives to a first-order position; \
                 function results require eta-expansion, which Skil restricts away",
            ),
            TyKind::List(t) => Ok(FoTy::List(Box::new(self.foty(t, pos)?))),
            TyKind::Pardata(n, args) => {
                if n != ARRAY {
                    let n = self.ck.uni.name(n);
                    return self.err(
                        pos,
                        format!("pardata `{n}` has no implementation linked into this build"),
                    );
                }
                let el = self.foty(self.kid(args, 0), pos)?;
                Ok(FoTy::Array(Box::new(el)))
            }
            TyKind::Struct(n, args) => Ok(FoTy::Struct(self.struct_instance(n, args, pos)?)),
        }
    }

    fn ty_of(&mut self, t: &FoTy) -> Ty {
        match t {
            FoTy::Int => Ty::INT,
            FoTy::Float => Ty::FLOAT,
            FoTy::Void => Ty::VOID,
            FoTy::Index => Ty::INDEX,
            FoTy::Bounds => Ty::BOUNDS,
            FoTy::List(el) => {
                let el = self.ty_of(el);
                self.ck.uni.list(el)
            }
            FoTy::Array(el) => {
                let el = self.ty_of(el);
                self.ck.uni.pardata(ARRAY, &[el])
            }
            FoTy::Struct(inst) => {
                let (orig, args) = self.struct_origin[inst].clone();
                let args: Vec<Ty> = args.iter().map(|a| self.ty_of(a)).collect();
                let s = self.ck.uni.sym(orig);
                self.ck.uni.strukt(s, &args)
            }
        }
    }

    fn struct_instance(&mut self, s: Sym, args: Kids, pos: Pos) -> Result<String> {
        let fo_args = (0..args.len())
            .map(|i| self.foty(self.kid(args, i), pos))
            .collect::<Result<Vec<_>>>()?;
        let (name, def) = self.ck.struct_entry(s);
        let key = (name, fo_args);
        if let Some(n) = self.struct_memo.get(&key) {
            return Ok(n.clone());
        }
        let inst_name = if key.1.is_empty() {
            name.to_string()
        } else {
            let suffix: Vec<String> = key.1.iter().map(|t| t.cname()).collect();
            format!("{name}_{}", suffix.join("_"))
        };
        self.struct_origin.insert(inst_name.clone(), key.clone());
        self.struct_memo.insert(key, inst_name.clone());
        let mut var_map = self.ck.struct_vars(def, args);
        let mut fo_fields = Vec::with_capacity(def.1.len());
        for (fname, fty) in def.1 {
            let ck = &mut *self.ck;
            let t = ck.defs.lower(fty, &mut var_map, &mut ck.uni, false, pos)?;
            fo_fields.push((fname.to_string(), self.foty(t, pos)?));
        }
        self.out.structs.push(FoStruct { name: inst_name.clone(), fields: fo_fields });
        Ok(inst_name)
    }

    fn struct_field_index(&self, inst: &str, field: &str, pos: Pos) -> Result<usize> {
        let def = self.out.struct_def(inst).expect("struct instance exists");
        def.fields.iter().position(|(n, _)| n == field).ok_or_else(|| {
            Diag::new(Phase::Instantiate, pos, format!("struct `{inst}` has no field `{field}`"))
        })
    }

    // ------------------------------------------------------------------
    // instances
    // ------------------------------------------------------------------

    /// Specialize user function `fname` for concrete value-parameter
    /// types and functional bindings; returns the instance name.
    fn request_instance(
        &mut self,
        fname: &'a str,
        value_tys: Vec<FoTy>,
        fn_sigs: Vec<FnSig<'a>>,
        pos: Pos,
    ) -> Result<String> {
        let key: InstKey = (fname, value_tys, fn_sigs);
        if let Some(n) = self.memo.get(&key) {
            return Ok(n.clone());
        }
        let inst_name = if fname == "main" { "main".to_string() } else { self.fresh_name(fname) };
        self.memo.insert(key.clone(), inst_name.clone());
        let (_, value_tys, fn_sigs) = key;

        let f: &'a Func<'a> = self.ck.funcs.get(fname).map(|u| u.func).ok_or_else(|| {
            Diag::new(Phase::Instantiate, pos, format!("unknown function `{fname}`"))
        })?;

        // Lower the signature with instance-fresh type variables.
        let mut var_map = VarMap::new();
        let mut param_tys = Vec::with_capacity(f.params.len());
        for p in &f.params {
            let ck = &mut *self.ck;
            param_tys.push(ck.defs.lower(&p.ty, &mut var_map, &mut ck.uni, true, p.pos)?);
        }
        let ck = &mut *self.ck;
        let ret = ck.defs.lower(&f.ret, &mut var_map, &mut ck.uni, true, f.pos)?;

        // Bind value parameters to the requested concrete types and
        // functional parameters to their targets' applied types.
        let mut ctx = Ctx { var_map, fn_bindings: Vec::new(), scopes: Scopes::default(), ret };
        ctx.scopes.push();

        let mut fo_params: Vec<(String, FoTy)> = Vec::with_capacity(f.params.len());
        let mut vt = value_tys.into_iter();
        let mut fs = fn_sigs.into_iter();
        for (p, &pty) in f.params.iter().zip(&param_tys) {
            if matches!(p.ty, TypeExpr::Fun(_, _)) {
                let sig = fs.next().ok_or_else(|| {
                    Diag::new(
                        Phase::Instantiate,
                        p.pos,
                        format!("missing functional binding for parameter `{}`", p.name),
                    )
                })?;
                // Unify the parameter's function type with the target's
                // applied type so element types become concrete inside.
                let applied = self.sig_applied_ty(&sig, p.pos)?;
                self.unify(pty, applied, p.pos)?;
                // Lifted values become extra instance parameters.
                let mut lifted_exprs = Vec::new();
                for (i, lt) in sig.flat_val_tys().into_iter().enumerate() {
                    let lname = format!("{}__l{i}", p.name);
                    let lty = self.ty_of(&lt);
                    ctx.scopes.declare(lname.clone(), lty);
                    lifted_exprs.push(FoExpr::Var(lname.clone()));
                    fo_params.push((lname, lt));
                }
                ctx.scopes.declare(p.name, pty);
                ctx.fn_bindings.push((p.name, FnVal { sig, lifted: lifted_exprs }));
            } else {
                let want = vt.next().ok_or_else(|| {
                    Diag::new(
                        Phase::Instantiate,
                        p.pos,
                        format!("missing value type for parameter `{}`", p.name),
                    )
                })?;
                let wt = self.ty_of(&want);
                self.unify(pty, wt, p.pos)?;
                fo_params.push((p.name.to_string(), want));
                ctx.scopes.declare(p.name, pty);
            }
        }

        let body = self.tr_block(&f.body.0, &mut ctx)?;
        let ret_fo = self.foty(ret, f.pos)?;
        self.out.funcs.push(FoFunc {
            name: inst_name.clone(),
            origin: fname.to_string(),
            params: fo_params,
            ret: ret_fo,
            body,
        });
        Ok(inst_name)
    }

    /// The (curried) type a functional value presents after its prefix
    /// has been applied.
    fn sig_applied_ty(&mut self, sig: &FnSig<'a>, pos: Pos) -> Result<Ty> {
        match &sig.target {
            Target::User(h) => {
                let t = self.ck.instantiate_fn(h).expect("user function has a scheme");
                let TyKind::Fun(ptys, rty) = self.ck.uni.kind(t) else {
                    return self.err(pos, format!("`{h}` is not a function"));
                };
                let l = sig.prefix.len();
                if l > ptys.len() {
                    return self.err(pos, format!("over-applied prefix for `{h}`"));
                }
                for (i, item) in sig.prefix.iter().enumerate() {
                    let pty = self.kid(ptys, i);
                    let want = match item {
                        PrefixItem::Val(ft) => self.ty_of(ft),
                        PrefixItem::Fn(inner) => self.sig_applied_ty(inner, pos)?,
                    };
                    self.unify(pty, want, pos)?;
                }
                Ok(self.ck.uni.fun_of(ptys.skip(l), rty))
            }
            Target::Op(op, ft) => {
                let a = self.ty_of(ft);
                let ret = match *op {
                    "+" | "-" | "*" | "/" | "%" => a,
                    _ => Ty::INT,
                };
                let l = sig.prefix.len().min(2);
                Ok(self.ck.uni.fun(&[a, a][l..], ret))
            }
            Target::Intrinsic(name) => {
                let t = self.ck.instantiate_fn(name).expect("intrinsic has a scheme");
                let TyKind::Fun(ptys, rty) = self.ck.uni.kind(t) else {
                    return self.err(pos, format!("`{name}` is not a function"));
                };
                let l = sig.prefix.len();
                for (i, item) in sig.prefix.iter().enumerate().take(ptys.len()) {
                    if let PrefixItem::Val(ft) = item {
                        let want = self.ty_of(ft);
                        self.unify(self.kid(ptys, i), want, pos)?;
                    }
                }
                Ok(self.ck.uni.fun_of(ptys.skip(l), rty))
            }
        }
    }

    /// The first-order instance a [`FnSig`] calls into, given the types
    /// of the remaining (element) arguments.
    fn instance_for_sig(
        &mut self,
        sig: &FnSig<'a>,
        remaining_tys: &[Ty],
        pos: Pos,
    ) -> Result<String> {
        match &sig.target {
            Target::User(h) => {
                let ast = self.ck.funcs[h].func;
                let mut value_tys = Vec::new();
                let mut fn_sigs = Vec::new();
                let mut rem = remaining_tys.iter();
                for (i, p) in ast.params.iter().enumerate() {
                    if i < sig.prefix.len() {
                        match &sig.prefix[i] {
                            PrefixItem::Val(t) => value_tys.push(t.clone()),
                            PrefixItem::Fn(s) => fn_sigs.push(s.clone()),
                        }
                    } else {
                        if matches!(p.ty, TypeExpr::Fun(_, _)) {
                            return self.err(
                                pos,
                                format!(
                                    "functional parameter `{}` of `{h}` is not covered by \
                                     the partial application prefix",
                                    p.name
                                ),
                            );
                        }
                        let &t = rem.next().ok_or_else(|| {
                            Diag::new(
                                Phase::Instantiate,
                                pos,
                                format!("arity mismatch instantiating `{h}`"),
                            )
                        })?;
                        value_tys.push(self.foty(t, pos)?);
                    }
                }
                self.request_instance(h, value_tys, fn_sigs, pos)
            }
            Target::Op(op, ft) => self.synth_op(op, ft.clone(), sig.prefix.len(), pos),
            Target::Intrinsic(name) => self.synth_intrinsic(name, sig, remaining_tys, pos),
        }
    }

    /// Synthesize the first-order function an operator section denotes
    /// (the paper's `(op)` conversion), e.g. `op_add_int(a, b)`.
    fn synth_op(&mut self, op: &'static str, ft: FoTy, lifted: usize, pos: Pos) -> Result<String> {
        let key = (Target::Op(op, ft), lifted, vec![]);
        if let Some(n) = self.synth_memo.get(&key) {
            return Ok(n.clone());
        }
        let Target::Op(_, ft) = &key.0 else { unreachable!() };
        let ft = ft.clone();
        let float = ft == FoTy::Float;
        let bop = BinOp::from_lexeme(op)
            .ok_or_else(|| Diag::new(Phase::Instantiate, pos, format!("bad operator `{op}`")))?;
        let opname = match bop {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::Eq => "eq",
            BinOp::Ne => "ne",
            BinOp::Lt => "lt",
            BinOp::Le => "le",
            BinOp::Gt => "gt",
            BinOp::Ge => "ge",
            BinOp::And => "and",
            BinOp::Or => "or",
        };
        let name = self.fresh_name(&format!("op_{opname}_{}", ft.cname()));
        self.synth_memo.insert(key, name.clone());
        let ret =
            if matches!(bop, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
            {
                FoTy::Int
            } else {
                ft.clone()
            };
        // parameters: lifted prefix values, then the remaining operands
        // (lifted operands are simply the leading params)
        let params = vec![("x0".to_string(), ft.clone()), ("x1".to_string(), ft)];
        let body = vec![FoStmt::Return(Some(FoExpr::Binary {
            op: bop,
            float,
            lhs: Box::new(FoExpr::Var("x0".into())),
            rhs: Box::new(FoExpr::Var("x1".into())),
        }))];
        self.out.funcs.push(FoFunc {
            name: name.clone(),
            origin: format!("({op})"),
            params,
            ret,
            body,
        });
        Ok(name)
    }

    /// Synthesize a wrapper instance for a scalar builtin used as a
    /// functional argument (e.g. `min` as a folding function).
    fn synth_intrinsic(
        &mut self,
        name: &'static str,
        sig: &FnSig<'a>,
        remaining_tys: &[Ty],
        pos: Pos,
    ) -> Result<String> {
        let rem: Vec<FoTy> =
            remaining_tys.iter().map(|&t| self.foty(t, pos)).collect::<Result<Vec<_>>>()?;
        let key = (Target::Intrinsic(name), sig.prefix.len(), rem);
        if let Some(n) = self.synth_memo.get(&key) {
            return Ok(n.clone());
        }
        let applied = self.sig_applied_ty(sig, pos)?;
        let TyKind::Fun(ptys, rty) = self.ck.uni.resolve(applied) else {
            return self.err(pos, format!("`{name}` is not applicable"));
        };
        let wname = self.fresh_name(&format!("{name}_w"));
        self.synth_memo.insert(key, wname.clone());
        let mut params = Vec::new();
        let mut args = Vec::new();
        for (i, lt) in sig.flat_val_tys().into_iter().enumerate() {
            params.push((format!("l{i}"), lt));
            args.push(FoExpr::Var(format!("l{i}")));
        }
        for i in 0..ptys.len() {
            let t = self.foty(self.kid(ptys, i), pos)?;
            params.push((format!("x{i}"), t));
            args.push(FoExpr::Var(format!("x{i}")));
        }
        let ret = self.foty(rty, pos)?;
        let body = vec![FoStmt::Return(Some(FoExpr::Intrinsic(name.to_string(), args)))];
        self.out.funcs.push(FoFunc {
            name: wname.clone(),
            origin: name.to_string(),
            params,
            ret,
            body,
        });
        Ok(wname)
    }

    // ------------------------------------------------------------------
    // functional-argument resolution
    // ------------------------------------------------------------------

    /// Translate a lifted value argument of a partial application: its
    /// FO expression, after unifying its type with `want`.
    fn lift_arg(
        &mut self,
        a: &'a Expr<'a>,
        want: Ty,
        ctx: &mut Ctx<'a>,
    ) -> Result<(PrefixItem<'a>, FoExpr)> {
        let (fo, at) = self.tr_expr(a, ctx)?;
        self.unify(want, at, a.pos())?;
        Ok((PrefixItem::Val(self.foty(at, a.pos())?), fo))
    }

    /// Resolve a functional argument expression to its static identity
    /// plus lifted argument expressions. `expected` is the function type
    /// the context requires.
    fn resolve_fn_val(
        &mut self,
        e: &'a Expr<'a>,
        expected: Ty,
        ctx: &mut Ctx<'a>,
    ) -> Result<FnVal<'a>> {
        let (base, prefix_args) = flatten_call(e);
        let n = prefix_args.len();
        let pos = e.pos();

        match base {
            Expr::Var(name, _) if ctx.binding(name).is_some() => {
                let FnVal { mut sig, mut lifted } = ctx.binding(name).expect("bound").clone();
                let applied = self.sig_applied_ty(&sig, pos)?;
                if n == 0 {
                    self.unify(applied, expected, pos)?;
                    return Ok(FnVal { sig, lifted });
                }
                // further partial application of a functional parameter:
                // extend the prefix
                let TyKind::Fun(ptys, rty) = self.ck.uni.kind(applied) else {
                    return self.err(pos, "over-application of functional parameter");
                };
                if n > ptys.len() {
                    return self.err(pos, "over-application of functional parameter");
                }
                for (i, &a) in prefix_args.iter().enumerate() {
                    let (item, fo) = self.lift_arg(a, self.kid(ptys, i), ctx)?;
                    sig.prefix.push(item);
                    lifted.push(fo);
                }
                let rest = self.ck.uni.fun_of(ptys.skip(n), rty);
                self.unify(rest, expected, pos)?;
                Ok(FnVal { sig, lifted })
            }
            Expr::Var(name, _) if self.ck.funcs.contains_key(name) => {
                let h: &'a str = name;
                let ast = self.ck.funcs[h].func;
                let t = self.ck.instantiate_fn(h).expect("user function has a scheme");
                let TyKind::Fun(ptys, rty) = self.ck.uni.kind(t) else {
                    return self.err(pos, format!("`{h}` is not a function"));
                };
                if n > ptys.len() {
                    return self.err(pos, format!("too many arguments to `{h}`"));
                }
                // the remaining signature must match the expectation
                let rest = self.ck.uni.fun_of(ptys.skip(n), rty);
                self.unify(rest, expected, pos)?;
                let mut prefix = Vec::with_capacity(n);
                let mut lifted = Vec::new();
                for (i, &a) in prefix_args.iter().enumerate() {
                    if matches!(ast.params[i].ty, TypeExpr::Fun(_, _)) {
                        let inner = self.resolve_fn_val(a, self.kid(ptys, i), ctx)?;
                        lifted.extend(inner.lifted);
                        prefix.push(PrefixItem::Fn(inner.sig));
                    } else {
                        let (item, fo) = self.lift_arg(a, self.kid(ptys, i), ctx)?;
                        prefix.push(item);
                        lifted.push(fo);
                    }
                }
                Ok(FnVal { sig: FnSig { target: Target::User(h), prefix }, lifted })
            }
            Expr::Var(name, _) if intrinsic(name).is_some() => {
                let name = intrinsic(name).expect("intrinsic");
                let t = self.ck.instantiate_fn(name).expect("intrinsic has a scheme");
                let TyKind::Fun(ptys, rty) = self.ck.uni.kind(t) else {
                    return self.err(pos, format!("`{name}` is not a function"));
                };
                let rest = self.ck.uni.fun_of(ptys.skip(n), rty);
                self.unify(rest, expected, pos)?;
                let mut prefix = Vec::new();
                let mut lifted = Vec::new();
                for (i, &a) in prefix_args.iter().enumerate().take(ptys.len()) {
                    let (item, fo) = self.lift_arg(a, self.kid(ptys, i), ctx)?;
                    prefix.push(item);
                    lifted.push(fo);
                }
                Ok(FnVal { sig: FnSig { target: Target::Intrinsic(name), prefix }, lifted })
            }
            Expr::OpSection(op, _) => {
                // operand type from the expectation
                let (full, a) = self.ck.op_section_ty(op);
                let TyKind::Fun(ptys, rty) = self.ck.uni.kind(full) else { unreachable!() };
                let rest = self.ck.uni.fun_of(ptys.skip(n.min(2)), rty);
                self.unify(rest, expected, pos)?;
                let mut prefix = Vec::new();
                let mut lifted = Vec::new();
                for &arg in &prefix_args {
                    let (item, fo) = self.lift_arg(arg, a, ctx)?;
                    prefix.push(item);
                    lifted.push(fo);
                }
                let ft = self.foty(a, pos)?;
                Ok(FnVal { sig: FnSig { target: Target::Op(op, ft), prefix }, lifted })
            }
            other => self.err(
                other.pos(),
                "a functional argument must be a function name, an operator section, \
                 or a partial application of those (the Skil instantiation restriction)",
            ),
        }
    }

    // ------------------------------------------------------------------
    // body translation
    // ------------------------------------------------------------------

    fn tr_block(&mut self, stmts: &'a [Stmt<'a>], ctx: &mut Ctx<'a>) -> Result<Vec<FoStmt>> {
        ctx.scopes.push();
        let out = stmts.iter().map(|s| self.tr_stmt(s, ctx)).collect::<Result<Vec<_>>>();
        ctx.scopes.pop();
        out
    }

    /// Translate a condition: an `int`-typed expression.
    fn tr_cond(&mut self, cond: &'a Expr<'a>, ctx: &mut Ctx<'a>) -> Result<FoExpr> {
        let (fo, ct) = self.tr_expr(cond, ctx)?;
        self.unify(ct, Ty::INT, cond.pos())?;
        Ok(fo)
    }

    fn tr_stmt(&mut self, s: &'a Stmt<'a>, ctx: &mut Ctx<'a>) -> Result<FoStmt> {
        match s {
            Stmt::Decl { ty, name, init, pos } => {
                let ck = &mut *self.ck;
                let t = ck.defs.lower(ty, &mut ctx.var_map, &mut ck.uni, false, *pos)?;
                let fo_init = match init {
                    Some(e) => {
                        let (fo, it) = self.tr_expr(e, ctx)?;
                        self.unify(t, it, *pos)?;
                        Some(fo)
                    }
                    None => None,
                };
                ctx.scopes.declare(*name, t);
                Ok(FoStmt::Decl { name: name.to_string(), ty: self.foty(t, *pos)?, init: fo_init })
            }
            Stmt::Assign { name, value, pos } => {
                let vt = ctx.scopes.lookup(name).ok_or_else(|| {
                    Diag::new(Phase::Instantiate, *pos, format!("undeclared `{name}`"))
                })?;
                let (fo, et) = self.tr_expr(value, ctx)?;
                self.unify(vt, et, *pos)?;
                Ok(FoStmt::Assign { name: name.to_string(), value: fo })
            }
            Stmt::If { cond, then, els } => Ok(FoStmt::If {
                cond: self.tr_cond(cond, ctx)?,
                then: self.tr_block(&then.0, ctx)?,
                els: match els {
                    Some(b) => self.tr_block(&b.0, ctx)?,
                    None => vec![],
                },
            }),
            Stmt::While { cond, body } => Ok(FoStmt::While {
                cond: self.tr_cond(cond, ctx)?,
                body: self.tr_block(&body.0, ctx)?,
            }),
            Stmt::For { init, cond, step, body } => {
                ctx.scopes.push();
                let fo_init = match init {
                    Some(s) => Some(Box::new(self.tr_stmt(s, ctx)?)),
                    None => None,
                };
                let fo_cond = match cond {
                    Some(c) => Some(self.tr_cond(c, ctx)?),
                    None => None,
                };
                let fo_step = match step {
                    Some(s) => Some(Box::new(self.tr_stmt(s, ctx)?)),
                    None => None,
                };
                let fo_body = self.tr_block(&body.0, ctx)?;
                ctx.scopes.pop();
                Ok(FoStmt::For { init: fo_init, cond: fo_cond, step: fo_step, body: fo_body })
            }
            Stmt::Return { value, pos } => match value {
                Some(e) => {
                    let (fo, t) = self.tr_expr(e, ctx)?;
                    self.unify(ctx.ret, t, *pos)?;
                    Ok(FoStmt::Return(Some(fo)))
                }
                None => Ok(FoStmt::Return(None)),
            },
            Stmt::Expr(e) => Ok(FoStmt::Expr(self.tr_expr(e, ctx)?.0)),
        }
    }

    /// Translate an expression to first-order form, returning its type
    /// too: each expression is inferred exactly once per instance, by
    /// the same rules as [`Checked::infer_expr`]. A decision that
    /// depends on an operand's type (float arithmetic, struct instance,
    /// field index) is taken as soon as that operand is translated.
    fn tr_expr(&mut self, e: &'a Expr<'a>, ctx: &mut Ctx<'a>) -> Result<(FoExpr, Ty)> {
        match e {
            Expr::Int(v, _) => Ok((FoExpr::Int(*v), Ty::INT)),
            Expr::Float(v, _) => Ok((FoExpr::Float(*v), Ty::FLOAT)),
            Expr::Var(name, pos) => {
                if ctx.binding(name).is_some() {
                    return self
                        .err(*pos, format!("functional parameter `{name}` used as a value"));
                }
                if let Some(t) = ctx.scopes.lookup(name) {
                    return Ok((FoExpr::Var(name.to_string()), t));
                }
                if let Some(t) = builtin_const(name) {
                    return Ok((FoExpr::Intrinsic(name.to_string(), vec![]), t));
                }
                self.err(*pos, format!("`{name}` is not a value in this context"))
            }
            Expr::Call { pos, .. } => self.tr_call(e, *pos, ctx),
            Expr::OpSection(_, pos) => {
                self.err(*pos, "an operator section is only meaningful as a functional argument")
            }
            Expr::Binary { op, lhs, rhs, pos } => {
                let (lfo, lt) = self.tr_expr(lhs, ctx)?;
                let float = self.is_float(lt);
                let bop = BinOp::from_lexeme(op)
                    .ok_or_else(|| Diag::new(Phase::Instantiate, *pos, "bad operator"))?;
                let (rfo, rt) = self.tr_expr(rhs, ctx)?;
                let ty = self.ck.binary_ty(op, lt, rt, *pos)?;
                Ok((FoExpr::Binary { op: bop, float, lhs: Box::new(lfo), rhs: Box::new(rfo) }, ty))
            }
            Expr::Unary { op, expr, pos } => {
                let (fo, t) = self.tr_expr(expr, ctx)?;
                let float = self.is_float(t);
                let ty = self.ck.unary_ty(op, t, *pos)?;
                Ok((FoExpr::Unary { neg: *op == "-", float, expr: Box::new(fo) }, ty))
            }
            Expr::Field { expr, field, pos } => {
                let (fo, t) = self.tr_expr(expr, ctx)?;
                let index = match self.ck.uni.resolve(t) {
                    TyKind::Bounds => match *field {
                        "lowerBd" => 0,
                        "upperBd" => 1,
                        _ => return self.err(*pos, format!("bad Bounds field `{field}`")),
                    },
                    TyKind::Struct(s, args) => {
                        let inst = self.struct_instance(s, args, *pos)?;
                        self.struct_field_index(&inst, field, *pos)?
                    }
                    _ => {
                        let shown = self.ck.uni.show(t).to_string();
                        return self.err(*pos, format!("field access on `{shown}`"));
                    }
                };
                let ty = self.ck.field_ty(t, field, *pos)?;
                Ok((FoExpr::Field { expr: Box::new(fo), index, name: field.to_string() }, ty))
            }
            Expr::IndexAt { expr, index, pos } => {
                let (efo, t) = self.tr_expr(expr, ctx)?;
                self.unify(t, Ty::INDEX, *pos)?;
                let (ifo, it) = self.tr_expr(index, ctx)?;
                self.unify(it, Ty::INT, *pos)?;
                Ok((FoExpr::IndexAt { expr: Box::new(efo), index: Box::new(ifo) }, Ty::INT))
            }
            Expr::BraceList { elems, pos } => {
                check_index_arity(elems.len(), *pos)?;
                let mut es = Vec::with_capacity(elems.len());
                for e in elems {
                    let (fo, t) = self.tr_expr(e, ctx)?;
                    self.unify(t, Ty::INT, e.pos())?;
                    es.push(fo);
                }
                Ok((FoExpr::MakeIndex(es), Ty::INDEX))
            }
            Expr::StructLit { name, fields, pos } => {
                let (s, def, mut var_map) = self.ck.struct_lit_start(name, fields.len(), *pos)?;
                let mut es = Vec::with_capacity(fields.len());
                for (e, (_, fty)) in fields.iter().zip(def.1) {
                    let ck = &mut *self.ck;
                    let want = ck.defs.lower(fty, &mut var_map, &mut ck.uni, false, *pos)?;
                    let (fo, got) = self.tr_expr(e, ctx)?;
                    self.unify(want, got, e.pos())?;
                    es.push(fo);
                }
                let ty = self.ck.struct_lit_ty(s, def, &var_map);
                let TyKind::Struct(s, args) = self.ck.uni.resolve(ty) else {
                    return self.err(*pos, "struct literal did not resolve");
                };
                let inst = self.struct_instance(s, args, *pos)?;
                Ok((FoExpr::MakeStruct(inst, es), ty))
            }
        }
    }

    fn tr_call(&mut self, e: &'a Expr<'a>, pos: Pos, ctx: &mut Ctx<'a>) -> Result<(FoExpr, Ty)> {
        let (base, args) = flatten_call(e);

        match base {
            Expr::Var(name, _) if ctx.binding(name).is_some() => {
                // call through a functional parameter: direct call of the
                // bound instance with lifted arguments prepended
                let binding = ctx.binding(name).expect("bound");
                let mut fo_args = binding.lifted.clone();
                let applied = self.sig_applied_ty(&binding.sig, pos)?;
                let TyKind::Fun(ptys, ret) = self.ck.uni.resolve(applied) else {
                    return self.err(pos, "functional parameter is not applicable");
                };
                if args.len() != ptys.len() {
                    return self.err(
                        pos,
                        format!(
                            "call through `{name}` needs {} arguments, got {} \
                             (partial results require eta-expansion)",
                            ptys.len(),
                            args.len()
                        ),
                    );
                }
                let mut remaining_tys = Vec::with_capacity(args.len());
                for (i, &a) in args.iter().enumerate() {
                    let (fo, at) = self.tr_expr(a, ctx)?;
                    self.unify(self.kid(ptys, i), at, a.pos())?;
                    remaining_tys.push(at);
                    fo_args.push(fo);
                }
                let sig = &ctx.binding(name).expect("bound").sig;
                let inst = self.instance_for_sig(sig, &remaining_tys, pos)?;
                Ok((FoExpr::Call(inst, fo_args), ret))
            }
            Expr::Var(name, _) if SKELETONS.contains(name) => {
                self.tr_skeleton(name, &args, pos, ctx)
            }
            Expr::Var(name, _) if self.ck.funcs.contains_key(name) => {
                let h: &'a str = name;
                let ast = self.ck.funcs[h].func;
                if args.len() != ast.params.len() {
                    return self.err(
                        pos,
                        format!(
                            "partial application of `{h}` outside an argument position \
                             (would require a closure; Skil instantiates instead)"
                        ),
                    );
                }
                let t = self.ck.instantiate_fn(h).expect("user function has a scheme");
                let TyKind::Fun(ptys, ret) = self.ck.uni.kind(t) else {
                    return self.err(pos, format!("`{h}` is not a function"));
                };
                // value args and lifted args interleave in parameter order
                let mut value_tys = Vec::new();
                let mut fn_sigs = Vec::new();
                let mut fo_args = Vec::with_capacity(args.len());
                for (i, (&a, p)) in args.iter().zip(&ast.params).enumerate() {
                    let pty = self.kid(ptys, i);
                    if matches!(p.ty, TypeExpr::Fun(_, _)) {
                        let fv = self.resolve_fn_val(a, pty, ctx)?;
                        fo_args.extend(fv.lifted);
                        fn_sigs.push(fv.sig);
                    } else {
                        let (fo, at) = self.tr_expr(a, ctx)?;
                        self.unify(pty, at, a.pos())?;
                        value_tys.push(self.foty(at, a.pos())?);
                        fo_args.push(fo);
                    }
                }
                let inst = self.request_instance(h, value_tys, fn_sigs, pos)?;
                Ok((FoExpr::Call(inst, fo_args), ret))
            }
            Expr::Var(name, _) if intrinsic(name).is_some() => {
                // scalar intrinsic call, typed like any application
                let t = self.ck.instantiate_fn(name).expect("intrinsic has a scheme");
                let TyKind::Fun(params, ret) = self.ck.uni.kind(t) else { unreachable!() };
                if args.len() > params.len() {
                    return Err(Diag::new(
                        Phase::Type,
                        pos,
                        format!(
                            "too many arguments: function takes {}, got {}",
                            params.len(),
                            args.len()
                        ),
                    ));
                }
                let mut fo = Vec::with_capacity(args.len());
                for (i, &a) in args.iter().enumerate() {
                    let (afo, at) = self.tr_expr(a, ctx)?;
                    self.unify(self.kid(params, i), at, a.pos())?;
                    fo.push(afo);
                }
                let ty = if args.len() == params.len() {
                    ret
                } else {
                    self.ck.uni.fun_of(params.skip(args.len()), ret)
                };
                Ok((FoExpr::Intrinsic(name.to_string(), fo), ty))
            }
            Expr::OpSection(op, _) => {
                if args.len() != 2 {
                    return self.err(
                        pos,
                        "a partially applied operator section is only meaningful as a \
                         functional argument",
                    );
                }
                let (lfo, lt) = self.tr_expr(args[0], ctx)?;
                let (rfo, rt) = self.tr_expr(args[1], ctx)?;
                self.unify(lt, rt, pos)?;
                let float = self.is_float(lt);
                let bop = BinOp::from_lexeme(op)
                    .ok_or_else(|| Diag::new(Phase::Instantiate, pos, "bad operator"))?;
                let ty = match *op {
                    "+" | "-" | "*" | "/" | "%" => lt,
                    _ => Ty::INT,
                };
                Ok((FoExpr::Binary { op: bop, float, lhs: Box::new(lfo), rhs: Box::new(rfo) }, ty))
            }
            other => self.err(other.pos(), "uncallable expression"),
        }
    }

    fn tr_skeleton(
        &mut self,
        name: &str,
        args: &[&'a Expr<'a>],
        pos: Pos,
        ctx: &mut Ctx<'a>,
    ) -> Result<(FoExpr, Ty)> {
        let (op, fn_positions): (SkelOp, &[usize]) = match name {
            "array_create" => (SkelOp::Create, &[4]),
            "array_destroy" => (SkelOp::Destroy, &[]),
            "array_map" => (SkelOp::Map, &[0]),
            "array_fold" => (SkelOp::Fold, &[0, 1]),
            "array_copy" => (SkelOp::Copy, &[]),
            "array_broadcast_part" => (SkelOp::BroadcastPart, &[]),
            "array_permute_rows" => (SkelOp::PermuteRows, &[1]),
            "array_gen_mult" => (SkelOp::GenMult, &[2, 3]),
            "array_scan" => (SkelOp::Scan, &[0]),
            "dc" => (SkelOp::Dc, &[0, 1, 2, 3]),
            "farm" => (SkelOp::Farm, &[0]),
            _ => return self.err(pos, format!("unknown skeleton `{name}`")),
        };
        let t = self.ck.instantiate_fn(name).expect("skeleton has a scheme");
        let TyKind::Fun(ptys, ret) = self.ck.uni.kind(t) else {
            unreachable!("skeleton schemes are functions")
        };
        if args.len() != ptys.len() {
            return self
                .err(pos, format!("{name} takes {} arguments, got {}", ptys.len(), args.len()));
        }
        // value args first (so array element types are known), then
        // functional args
        let mut fo_args = Vec::with_capacity(args.len());
        for (i, &a) in args.iter().enumerate() {
            if fn_positions.contains(&i) {
                continue;
            }
            let (fo, at) = self.tr_expr(a, ctx)?;
            self.unify(self.kid(ptys, i), at, a.pos())?;
            fo_args.push(fo);
        }
        let mut fns = Vec::with_capacity(fn_positions.len());
        for &i in fn_positions {
            let fv = self.resolve_fn_val(args[i], self.kid(ptys, i), ctx)?;
            let TyKind::Fun(rem_ptys, _) = self.ck.uni.resolve(self.kid(ptys, i)) else {
                return self.err(pos, "skeleton functional parameter is not a function");
            };
            let rem = self.ck.uni.kids(rem_ptys).to_vec();
            let inst = self.instance_for_sig(&fv.sig, &rem, pos)?;
            fns.push(FnInst { func: inst, lifted: fv.lifted });
        }
        // the element type: from the first array-typed parameter, or —
        // for array_create, which has none — from the initializer's
        // return type
        let mut elem = FoTy::Void;
        for i in 0..ptys.len() {
            if let Some(el) = array_elem(&self.ck.uni, self.kid(ptys, i)) {
                elem = self.foty(el, pos)?;
                break;
            }
        }
        if op == SkelOp::Create {
            if let TyKind::Fun(_, rty) = self.ck.uni.resolve(self.kid(ptys, 4)) {
                elem = self.foty(rty, pos)?;
            }
        }
        Ok((FoExpr::Skel { op, fns, args: fo_args, elem }, ret))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use crate::parser::parse;

    fn compile(src: &str) -> FoProgram {
        let prog = parse(src).unwrap();
        let mut ck = check(&prog).unwrap();
        match instantiate(&mut ck) {
            Ok(p) => p,
            Err(e) => panic!("instantiation failed: {e}\n{src}"),
        }
    }

    #[test]
    fn monomorphic_passthrough() {
        let p = compile(
            "int inc(int x) { return x + 1; }\n\
             void main() { int y = inc(41); print(y); }",
        );
        assert!(p.is_first_order());
        assert!(p.func("main").is_some());
        assert!(p.func("inc_1").is_some());
    }

    #[test]
    fn polymorphic_function_gets_one_instance_per_type() {
        let p = compile(
            "$a ident($a x) { return x; }\n\
             void main() { int i = ident(3); float f = ident(2.5); int j = ident(4); }",
        );
        let idents: Vec<&FoFunc> = p.funcs.iter().filter(|f| f.origin == "ident").collect();
        assert_eq!(idents.len(), 2, "int and float instances only");
        let tys: Vec<&FoTy> = idents.iter().map(|f| &f.params[0].1).collect();
        assert!(tys.contains(&&FoTy::Int));
        assert!(tys.contains(&&FoTy::Float));
    }

    #[test]
    fn hof_with_plain_function_argument() {
        let p = compile(
            "int inc(int x) { return x + 1; }\n\
             int apply(int f(int), int x) { return f(x); }\n\
             void main() { int y = apply(inc, 41); }",
        );
        assert!(p.is_first_order());
        // apply's instance has one value parameter (x), no functional one
        let a = p.funcs.iter().find(|f| f.origin == "apply").unwrap();
        assert_eq!(a.params.len(), 1);
        // and its body calls the inc instance directly
        let inc = p.funcs.iter().find(|f| f.origin == "inc").unwrap();
        let FoStmt::Return(Some(FoExpr::Call(callee, _))) = &a.body[0] else {
            panic!("{:?}", a.body)
        };
        assert_eq!(callee, &inc.name);
    }

    #[test]
    fn partial_application_lifts_arguments() {
        // the paper's above_thresh example: t is lifted into the
        // instance's parameter list
        let p = compile(
            "int above_thresh(float thresh, float elem, Index ix) { return elem >= thresh; }\n\
             float init_f(Index ix) { return itof(ix[0]); }\n\
             int zero(Index ix) { return 0; }\n\
             void main() {\n\
               array<float> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, init_f, DISTR_DEFAULT);\n\
               array<int> b = array_create(1, {8,1}, {0,0}, {0-1,0-1}, zero, DISTR_DEFAULT);\n\
               float t = 3.0;\n\
               array_map(above_thresh(t), a, b);\n\
             }",
        );
        assert!(p.is_first_order());
        let main = p.func("main").unwrap();
        // find the map skeleton call
        fn find_map(stmts: &[FoStmt]) -> Option<(&FnInst, &FoTy)> {
            for s in stmts {
                if let FoStmt::Expr(FoExpr::Skel { op: SkelOp::Map, fns, elem, .. }) = s {
                    return Some((&fns[0], elem));
                }
            }
            None
        }
        let (fi, _elem) = find_map(&main.body).expect("map call present");
        assert_eq!(fi.lifted.len(), 1, "t is lifted");
        assert_eq!(fi.lifted[0], FoExpr::Var("t".into()));
        // the instance takes (thresh, elem, ix)
        let inst = p.func(&fi.func).unwrap();
        assert_eq!(inst.origin, "above_thresh");
        assert_eq!(inst.params.len(), 3);
        assert_eq!(inst.params[0].1, FoTy::Float);
    }

    #[test]
    fn operator_sections_become_synth_functions() {
        let p = compile(
            "float initf(Index ix) { return itof(ix[0]); }\n\
             void main() {\n\
               array<float> a = array_create(2, {4,4}, {0,0}, {0-1,0-1}, initf, DISTR_TORUS2D);\n\
               array<float> b = array_create(2, {4,4}, {0,0}, {0-1,0-1}, initf, DISTR_TORUS2D);\n\
               array<float> c = array_create(2, {4,4}, {0,0}, {0-1,0-1}, initf, DISTR_TORUS2D);\n\
               array_gen_mult(a, b, (+), (*), c);\n\
             }",
        );
        assert!(p.is_first_order());
        let add = p.funcs.iter().find(|f| f.name.starts_with("op_add_float")).unwrap();
        assert_eq!(add.params.len(), 2);
        let mul = p.funcs.iter().find(|f| f.name.starts_with("op_mul_float")).unwrap();
        assert_eq!(mul.ret, FoTy::Float);
    }

    #[test]
    fn intrinsic_as_fold_function_gets_wrapper() {
        let p = compile(
            "int initf(Index ix) { return ix[0]; }\n\
             int conv(int x, Index ix) { return x; }\n\
             void main() {\n\
               array<int> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);\n\
               int m = array_fold(conv, min, a);\n\
               print(m);\n\
             }",
        );
        assert!(p.is_first_order());
        assert!(p.funcs.iter().any(|f| f.name.starts_with("min_w")));
    }

    #[test]
    fn fn_param_passed_through_hofs() {
        // apply passes its functional parameter onward — the paper's
        // d&c recursion pattern in miniature
        let p = compile(
            "int inc(int x) { return x + 1; }\n\
             int apply(int f(int), int x) { return f(x); }\n\
             int twice(int g(int), int x) { return apply(g, apply(g, x)); }\n\
             void main() { int y = twice(inc, 40); print(y); }",
        );
        assert!(p.is_first_order());
        // twice's instance exists and apply's instance is shared
        assert_eq!(p.funcs.iter().filter(|f| f.origin == "apply").count(), 1);
    }

    #[test]
    fn recursive_function_instantiates_once() {
        let p = compile(
            "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }\n\
             void main() { print(fact(5)); }",
        );
        assert_eq!(p.funcs.iter().filter(|f| f.origin == "fact").count(), 1);
    }

    #[test]
    fn partial_application_outside_argument_position_rejected() {
        let prog = parse(
            "int add(int a, int b) { return a + b; }\n\
             void main() { int x = add(1); }",
        )
        .unwrap();
        // the type checker accepts this (x would have a function type is
        // rejected there, actually) — either phase may reject
        let res = check(&prog).and_then(|mut ck| instantiate(&mut ck));
        assert!(res.is_err());
    }

    #[test]
    fn structs_are_monomorphized() {
        let p = compile(
            "struct pair<$a, $b> { $a fst; $b snd; };\n\
             void main() {\n\
               pair<int, float> p = pair{1, 2.5};\n\
               pair<float, float> q = pair{0.5, 2.5};\n\
               print(p.fst);\n\
               print(q.snd);\n\
             }",
        );
        assert!(p.struct_def("pair_int_float").is_some());
        assert!(p.struct_def("pair_float_float").is_some());
    }

    #[test]
    fn skeleton_call_shapes() {
        let p = compile(
            "float initf(Index ix) { return itof(ix[0] + ix[1]); }\n\
             int permf(int r) { return r; }\n\
             float square(float v, Index ix) { return v * v; }\n\
             float addf(float a, float b) { return a + b; }\n\
             float conv(float v, Index ix) { return v; }\n\
             void main() {\n\
               array<float> a = array_create(2, {4,4}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);\n\
               array<float> b = array_create(2, {4,4}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);\n\
               array_map(square, a, b);\n\
               array_copy(a, b);\n\
               array_broadcast_part(b, {0, 0});\n\
               array_permute_rows(a, permf, b);\n\
               float s = array_fold(conv, addf, a);\n\
               print(s);\n\
               array_destroy(a);\n\
               array_destroy(b);\n\
             }",
        );
        assert!(p.is_first_order());
        let main = p.func("main").unwrap();
        let mut ops = Vec::new();
        for s in &main.body {
            match s {
                FoStmt::Expr(FoExpr::Skel { op, .. }) => ops.push(*op),
                FoStmt::Decl { init: Some(FoExpr::Skel { op, .. }), .. } => ops.push(*op),
                _ => {}
            }
        }
        assert_eq!(
            ops,
            vec![
                SkelOp::Create,
                SkelOp::Create,
                SkelOp::Map,
                SkelOp::Copy,
                SkelOp::BroadcastPart,
                SkelOp::PermuteRows,
                SkelOp::Fold,
                SkelOp::Destroy,
                SkelOp::Destroy,
            ]
        );
    }

    #[test]
    fn shared_instances_are_deduplicated() {
        let p = compile(
            "float f(float v, Index ix) { return v + 1.0; }\n\
             float initf(Index ix) { return 0.0; }\n\
             void main() {\n\
               array<float> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);\n\
               array<float> b = array_create(1, {8,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);\n\
               array_map(f, a, b);\n\
               array_map(f, b, a);\n\
             }",
        );
        assert_eq!(p.funcs.iter().filter(|f| f.origin == "f").count(), 1);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::check::check;
    use crate::parser::parse;

    fn compile(src: &str) -> FoProgram {
        let prog = parse(src).unwrap();
        let mut ck = check(&prog).unwrap();
        instantiate(&mut ck).unwrap_or_else(|e| panic!("instantiation failed: {e}\n{src}"))
    }

    #[test]
    fn functional_parameter_partially_applied_onward() {
        // `both` receives a binary functional parameter and passes it
        // onward *partially applied* — the binding's prefix grows
        let p = compile(
            "int add(int a, int b) { return a + b; }\n\
             int apply1(int f(int), int x) { return f(x); }\n\
             int both(int g(int, int), int x) { return apply1(g(10), x); }\n\
             void main() { print(both(add, 32)); }",
        );
        assert!(p.is_first_order());
        // apply1's instance carries the lifted argument as a parameter
        let a1 = p.funcs.iter().find(|f| f.origin == "apply1").unwrap();
        assert_eq!(a1.params.len(), 2, "lifted arg + x: {:?}", a1.params);
    }

    #[test]
    fn deep_currying_in_value_position() {
        let p = compile(
            "int add3(int a, int b, int c) { return a + b + c; }\n\
             void main() { print(add3(1)(2)(3)); }",
        );
        assert!(p.is_first_order());
        // flattened into one full application
        let main = p.func("main").unwrap();
        let has_flat_call = format!("{:?}", main.body).contains("add3_1");
        assert!(has_flat_call, "{:?}", main.body);
    }

    #[test]
    fn same_function_with_and_without_partial_application() {
        let p = compile(
            "int addk(int k, int v, Index ix) { return v + k; }\n\
             int initf(Index ix) { return ix[0]; }\n\
             void main() {\n\
               array<int> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);\n\
               array<int> b = array_create(1, {8,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);\n\
               int k = 5;\n\
               array_map(addk(k), a, b);\n\
               array_map(addk(7 + k), b, a);\n\
             }",
        );
        // both call sites share one monomorphic instance of addk
        assert_eq!(p.funcs.iter().filter(|f| f.origin == "addk").count(), 1);
    }

    #[test]
    fn instances_differ_when_bindings_differ() {
        let p = compile(
            "int inc(int x) { return x + 1; }\n\
             int dec(int x) { return x - 1; }\n\
             int apply(int f(int), int x) { return f(x); }\n\
             void main() { print(apply(inc, 1)); print(apply(dec, 1)); }",
        );
        // one apply instance per functional binding
        assert_eq!(p.funcs.iter().filter(|f| f.origin == "apply").count(), 2);
    }

    #[test]
    fn mutual_recursion_instantiates() {
        let p = compile(
            "int is_even(int n) { if (n == 0) { return 1; } return is_odd(n - 1); }\n\
             int is_odd(int n) { if (n == 0) { return 0; } return is_even(n - 1); }\n\
             void main() { print(is_even(10)); }",
        );
        assert!(p.is_first_order());
        assert_eq!(p.funcs.iter().filter(|f| f.origin == "is_even").count(), 1);
        assert_eq!(p.funcs.iter().filter(|f| f.origin == "is_odd").count(), 1);
    }
}
