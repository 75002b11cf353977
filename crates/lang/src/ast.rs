//! The abstract syntax tree of Skil source programs. Identifiers borrow
//! the source text.

use crate::diag::Pos;

/// A surface type expression.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeExpr<'a> {
    /// A named type, possibly with angle-bracket arguments:
    /// `int`, `float`, `void`, `Index`, `array<float>`, `list<$t>`.
    Named(&'a str, Vec<TypeExpr<'a>>),
    /// A type variable `$t`.
    Var(&'a str),
    /// A function type, written in parameter position as
    /// `ret name(argtypes...)`.
    Fun(Vec<TypeExpr<'a>>, Box<TypeExpr<'a>>),
}

impl<'a> TypeExpr<'a> {
    /// Shorthand for a monomorphic named type.
    pub fn named(n: &'a str) -> TypeExpr<'a> {
        TypeExpr::Named(n, vec![])
    }
}

/// One function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param<'a> {
    /// Parameter name.
    pub name: &'a str,
    /// Declared type (possibly a function type — that is what makes the
    /// enclosing function a higher-order function).
    pub ty: TypeExpr<'a>,
    /// Source position.
    pub pos: Pos,
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item<'a> {
    /// `pardata name <$t1, ..., $tn> ;` — a distributed data structure
    /// whose implementation is hidden. Only the built-in `array` has an
    /// implementation (backed by `skil_array::DistArray`); further
    /// pardata declarations are accepted but may only be used through
    /// skeletons that support them.
    Pardata {
        /// Structure name.
        name: &'a str,
        /// Number of type parameters.
        arity: usize,
        /// Source position.
        pos: Pos,
    },
    /// `struct name <$t...> { type field ; ... } ;`
    Struct {
        /// Struct name.
        name: &'a str,
        /// Type parameters (without `$`).
        params: Vec<&'a str>,
        /// Field names and types, in declaration order.
        fields: Vec<(&'a str, TypeExpr<'a>)>,
        /// Source position.
        pos: Pos,
    },
    /// A function definition.
    Func(Func<'a>),
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Func<'a> {
    /// Function name.
    pub name: &'a str,
    /// Parameters (functional parameters make this a HOF).
    pub params: Vec<Param<'a>>,
    /// Return type.
    pub ret: TypeExpr<'a>,
    /// Body.
    pub body: Block<'a>,
    /// Source position.
    pub pos: Pos,
}

/// A brace-enclosed statement sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block<'a>(pub Vec<Stmt<'a>>);

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt<'a> {
    /// `type name;` or `type name = expr;`
    Decl {
        /// Declared type.
        ty: TypeExpr<'a>,
        /// Variable name.
        name: &'a str,
        /// Optional initializer.
        init: Option<Expr<'a>>,
        /// Source position.
        pos: Pos,
    },
    /// `name = expr;`
    Assign {
        /// Assigned variable.
        name: &'a str,
        /// New value.
        value: Expr<'a>,
        /// Source position.
        pos: Pos,
    },
    /// `if (cond) block [else block]`
    If {
        /// Condition (an int; nonzero is true).
        cond: Expr<'a>,
        /// Then branch.
        then: Block<'a>,
        /// Optional else branch.
        els: Option<Block<'a>>,
    },
    /// `while (cond) block`
    While {
        /// Loop condition.
        cond: Expr<'a>,
        /// Loop body.
        body: Block<'a>,
    },
    /// `for (init; cond; step) block`
    For {
        /// Initializer (a declaration or assignment).
        init: Option<Box<Stmt<'a>>>,
        /// Condition.
        cond: Option<Expr<'a>>,
        /// Step (an assignment).
        step: Option<Box<Stmt<'a>>>,
        /// Loop body.
        body: Block<'a>,
    },
    /// `return;` or `return expr;`
    Return {
        /// Returned value.
        value: Option<Expr<'a>>,
        /// Source position.
        pos: Pos,
    },
    /// An expression evaluated for effect (usually a skeleton call).
    Expr(Expr<'a>),
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr<'a> {
    /// Integer literal.
    Int(i64, Pos),
    /// Float literal.
    Float(f64, Pos),
    /// Variable (or function) reference.
    Var(&'a str, Pos),
    /// Application. Currying: `f(a)(b)` parses as
    /// `Call(Call(f, [a]), [b])`; partial application is an application
    /// whose argument count is below the callee's arity.
    Call {
        /// The applied expression.
        callee: Box<Expr<'a>>,
        /// Arguments.
        args: Vec<Expr<'a>>,
        /// Source position.
        pos: Pos,
    },
    /// An operator converted to a function by enclosing it in brackets:
    /// `(+)`, `(*)`; can be partially applied: `(*)(2)`.
    OpSection(&'static str, Pos),
    /// A binary operation.
    Binary {
        /// Operator lexeme.
        op: &'static str,
        /// Left operand.
        lhs: Box<Expr<'a>>,
        /// Right operand.
        rhs: Box<Expr<'a>>,
        /// Source position.
        pos: Pos,
    },
    /// Unary `-` or `!`.
    Unary {
        /// Operator lexeme.
        op: &'static str,
        /// Operand.
        expr: Box<Expr<'a>>,
        /// Source position.
        pos: Pos,
    },
    /// Struct field access `e.f`.
    Field {
        /// The struct expression.
        expr: Box<Expr<'a>>,
        /// Field name.
        field: &'a str,
        /// Source position.
        pos: Pos,
    },
    /// Index component access `ix[0]` (also used on the `Index` fields
    /// of `Bounds`).
    IndexAt {
        /// The indexed expression (of type `Index`).
        expr: Box<Expr<'a>>,
        /// The component expression.
        index: Box<Expr<'a>>,
        /// Source position.
        pos: Pos,
    },
    /// `{a, b}` — the paper's pseudo-code notation for `Index`/`Size`
    /// values.
    BraceList {
        /// Components.
        elems: Vec<Expr<'a>>,
        /// Source position.
        pos: Pos,
    },
    /// `name{e1, ..., en}` — struct construction with fields in
    /// declaration order.
    StructLit {
        /// Struct name.
        name: &'a str,
        /// Field values in declaration order.
        fields: Vec<Expr<'a>>,
        /// Source position.
        pos: Pos,
    },
}

impl Expr<'_> {
    /// Source position of an expression.
    pub fn pos(&self) -> Pos {
        match self {
            Expr::Int(_, p)
            | Expr::Float(_, p)
            | Expr::Var(_, p)
            | Expr::OpSection(_, p)
            | Expr::Call { pos: p, .. }
            | Expr::Binary { pos: p, .. }
            | Expr::Unary { pos: p, .. }
            | Expr::Field { pos: p, .. }
            | Expr::IndexAt { pos: p, .. }
            | Expr::BraceList { pos: p, .. }
            | Expr::StructLit { pos: p, .. } => *p,
        }
    }
}

/// A parsed program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program<'a> {
    /// Top-level items in source order.
    pub items: Vec<Item<'a>>,
}
