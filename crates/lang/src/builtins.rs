//! Built-in functions, skeletons and constants of the Skil language.

use crate::types::{BScheme, BTy, Ty};
use BTy::{Bounds, Float, Index, Int, List, Void, V};

const fn scheme(nvars: u8, ty: BTy) -> BScheme {
    BScheme { nvars, ty }
}

/// The names of the data-parallel skeletons (calls to these become
/// `FoExpr::Skel` after instantiation).
pub const SKELETONS: [&str; 11] = [
    "array_create",
    "array_destroy",
    "array_map",
    "array_fold",
    "array_copy",
    "array_broadcast_part",
    "array_permute_rows",
    "array_gen_mult",
    "array_scan",
    "dc",
    "farm",
];

/// Scalar intrinsics (first-order, interpreted directly).
pub const INTRINSICS: [&str; 21] = [
    "array_get_elem",
    "array_put_elem",
    "array_part_bounds",
    "nil",
    "cons",
    "head",
    "tail",
    "len",
    "append",
    "abs",
    "fabs",
    "min",
    "max",
    "fmin",
    "fmax",
    "sqrt",
    "itof",
    "ftoi",
    "log2i",
    "print",
    "error",
];

/// Type schemes of every builtin function, as static data: nothing is
/// built per compile, and each use instantiates the scheme straight into
/// the unifier's store.
pub static BUILTIN_SCHEMES: [(&str, BScheme); 32] = [
    // --- skeletons (paper §3) ---
    (
        "array_create",
        scheme(
            1,
            BTy::Fun(
                &[
                    Int,                       // dim
                    Index,                     // size
                    Index,                     // blocksize
                    Index,                     // lowerbd
                    BTy::Fun(&[Index], &V(0)), // init_elem
                    Int,                       // distr
                ],
                &BTy::Arr(&V(0)),
            ),
        ),
    ),
    ("array_destroy", scheme(1, BTy::Fun(&[BTy::Arr(&V(0))], &Void))),
    (
        "array_map",
        scheme(
            2,
            BTy::Fun(&[BTy::Fun(&[V(0), Index], &V(1)), BTy::Arr(&V(0)), BTy::Arr(&V(1))], &Void),
        ),
    ),
    (
        "array_fold",
        scheme(
            2,
            BTy::Fun(
                &[BTy::Fun(&[V(0), Index], &V(1)), BTy::Fun(&[V(1), V(1)], &V(1)), BTy::Arr(&V(0))],
                &V(1),
            ),
        ),
    ),
    ("array_copy", scheme(1, BTy::Fun(&[BTy::Arr(&V(0)), BTy::Arr(&V(0))], &Void))),
    ("array_broadcast_part", scheme(1, BTy::Fun(&[BTy::Arr(&V(0)), Index], &Void))),
    (
        "array_permute_rows",
        scheme(1, BTy::Fun(&[BTy::Arr(&V(0)), BTy::Fun(&[Int], &Int), BTy::Arr(&V(0))], &Void)),
    ),
    (
        "array_gen_mult",
        scheme(
            1,
            BTy::Fun(
                &[
                    BTy::Arr(&V(0)),
                    BTy::Arr(&V(0)),
                    BTy::Fun(&[V(0), V(0)], &V(0)),
                    BTy::Fun(&[V(0), V(0)], &V(0)),
                    BTy::Arr(&V(0)),
                ],
                &Void,
            ),
        ),
    ),
    (
        "array_scan",
        scheme(
            1,
            BTy::Fun(&[BTy::Fun(&[V(0), V(0)], &V(0)), BTy::Arr(&V(0)), BTy::Arr(&V(0))], &Void),
        ),
    ),
    // --- task-parallel skeletons (the paper's introduction) ---
    // $b d&c(int is_trivial($a), $b solve($a), list<$a> split($a),
    //        $b join(list<$b>), $a problem)
    (
        "dc",
        scheme(
            2,
            BTy::Fun(
                &[
                    BTy::Fun(&[V(0)], &Int),
                    BTy::Fun(&[V(0)], &V(1)),
                    BTy::Fun(&[V(0)], &List(&V(0))),
                    BTy::Fun(&[List(&V(1))], &V(1)),
                    V(0),
                ],
                &V(1),
            ),
        ),
    ),
    ("farm", scheme(2, BTy::Fun(&[BTy::Fun(&[V(0)], &V(1)), List(&V(0))], &List(&V(1))))),
    // --- lists ---
    ("nil", scheme(1, BTy::Fun(&[], &List(&V(0))))),
    ("cons", scheme(1, BTy::Fun(&[V(0), List(&V(0))], &List(&V(0))))),
    ("head", scheme(1, BTy::Fun(&[List(&V(0))], &V(0)))),
    ("tail", scheme(1, BTy::Fun(&[List(&V(0))], &List(&V(0))))),
    ("len", scheme(1, BTy::Fun(&[List(&V(0))], &Int))),
    ("append", scheme(1, BTy::Fun(&[List(&V(0)), List(&V(0))], &List(&V(0))))),
    // --- local element access (the paper's macros) ---
    ("array_get_elem", scheme(1, BTy::Fun(&[BTy::Arr(&V(0)), Index], &V(0)))),
    ("array_put_elem", scheme(1, BTy::Fun(&[BTy::Arr(&V(0)), Index, V(0)], &Void))),
    ("array_part_bounds", scheme(1, BTy::Fun(&[BTy::Arr(&V(0))], &Bounds))),
    // --- scalar intrinsics ---
    ("abs", scheme(0, BTy::Fun(&[Int], &Int))),
    ("fabs", scheme(0, BTy::Fun(&[Float], &Float))),
    ("min", scheme(0, BTy::Fun(&[Int, Int], &Int))),
    ("max", scheme(0, BTy::Fun(&[Int, Int], &Int))),
    ("fmin", scheme(0, BTy::Fun(&[Float, Float], &Float))),
    ("fmax", scheme(0, BTy::Fun(&[Float, Float], &Float))),
    ("sqrt", scheme(0, BTy::Fun(&[Float], &Float))),
    ("itof", scheme(0, BTy::Fun(&[Int], &Float))),
    ("ftoi", scheme(0, BTy::Fun(&[Float], &Int))),
    ("log2i", scheme(0, BTy::Fun(&[Int], &Int))),
    ("print", scheme(1, BTy::Fun(&[V(0)], &Void))),
    ("error", scheme(0, BTy::Fun(&[Int], &Void))),
];

/// The type scheme of builtin function `name`.
pub fn builtin_scheme(name: &str) -> Option<&'static BScheme> {
    BUILTIN_SCHEMES.iter().find(|(n, _)| *n == name).map(|(_, s)| s)
}

/// The type of builtin constant `name`.
pub fn builtin_const(name: &str) -> Option<Ty> {
    match name {
        "procId" | "nProcs" | "int_max" | "DISTR_DEFAULT" | "DISTR_RING" | "DISTR_TORUS2D" => {
            Some(Ty::INT)
        }
        "flt_max" => Some(Ty::FLOAT),
        _ => None,
    }
}

/// Values of the distribution constants (shared with the interpreter).
pub const DISTR_DEFAULT: i64 = 0;
/// Ring virtual topology.
pub const DISTR_RING: i64 = 1;
/// 2-D torus virtual topology.
pub const DISTR_TORUS2D: i64 = 2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_skeletons_have_schemes() {
        for s in SKELETONS {
            assert!(builtin_scheme(s).is_some(), "{s}");
        }
        for s in INTRINSICS {
            assert!(builtin_scheme(s).is_some(), "{s}");
        }
        assert_eq!(BUILTIN_SCHEMES.len(), SKELETONS.len() + INTRINSICS.len());
    }

    #[test]
    fn gen_mult_scheme_shape() {
        let s = builtin_scheme("array_gen_mult").unwrap();
        assert_eq!(s.nvars, 1);
        let BTy::Fun(params, ret) = &s.ty else { panic!() };
        assert_eq!(params.len(), 5);
        assert!(matches!(ret, BTy::Void));
    }

    #[test]
    fn consts_present() {
        assert_eq!(builtin_const("procId"), Some(Ty::INT));
        assert_eq!(builtin_const("DISTR_TORUS2D"), Some(Ty::INT));
        assert_eq!(builtin_const("flt_max"), Some(Ty::FLOAT));
        assert_eq!(builtin_const("print"), None);
    }
}
