//! Lowering: from the name-based [`Expr`] AST to a flat, slot-indexed IR.
//!
//! The surface AST refers to variables and functions by string name; the
//! seed evaluator resolved both with reverse linear scans on every access
//! (`Env` lookup per `Var`, `Program::lookup` plus a **deep clone of the
//! callee's body** per `Call`). This module removes all of that from the hot
//! path with a single compile pass at program-build time:
//!
//! * every variable becomes [`LExpr::Local`]: an index into the current
//!   frame of the evaluator's value stack, computed lexically — `let`,
//!   lambda parameters and definition parameters each occupy one slot, in
//!   binding order, exactly mirroring the evaluator's push/pop discipline;
//! * every call becomes [`LExpr::Call`] with the callee's *definition index*;
//!   the evaluator borrows the compiled body — nothing is cloned;
//! * every name is interned into a [`SymbolTable`]
//!   so diagnostics and the `srl-syntax` printers can recover spellings;
//! * the lowered tree lives in a single **arena** (`Vec<LExpr>`, children
//!   addressed by [`LId`]), not in per-node boxes: one allocation per
//!   program instead of one per node, and the interpreter walks contiguous
//!   memory.
//!
//! Lowering is **infallible** and preserves the seed evaluator's dynamic
//! error behaviour exactly: an unbound variable or unknown function lowers to
//! a poison node ([`LExpr::UnboundVar`] / [`LExpr::CallUnknown`]) that raises
//! the same `EvalError` **only if it is actually evaluated** — a dangling
//! name in a dead `if` branch goes unnoticed, just as it did when resolution
//! happened at run time. Static rejection of such programs remains the job of
//! [`Program::validate`](crate::program::Program::validate) and the type
//! checker.
//!
//! The lowered tree mirrors the surface AST node-for-node, so the evaluator
//! charges the same steps, depths and allocation counters in the same order:
//! all `EvalStats` are byte-identical to the pre-lowering evaluator.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

use crate::ast::{Expr, Lambda};
use crate::bignat::BigNat;
use crate::bytecode::{codegen_expr, codegen_program, Chunk};
use crate::dialect::Dialect;
use crate::intern::{Symbol, SymbolTable};
use crate::program::Program;
use crate::value::Value;

/// The id of a lowered node: an index into its arena (the
/// [`CompiledProgram`]'s node table, or a [`LoweredExpr`]'s).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LId(pub u32);

impl LId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A lowered two-parameter lambda: the parameter names are gone (they became
/// the top two slots of the frame at application time).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LLambda {
    /// Lowered body node.
    pub body: LId,
}

/// A lowered expression. Mirrors [`Expr`] node-for-node; children are arena
/// ids. See the module docs.
#[derive(Clone, Debug, PartialEq)]
pub enum LExpr {
    /// `true` / `false`.
    Bool(bool),
    /// A constant value (cloning it is O(1) thanks to `Arc` payloads).
    Const(Value),
    /// A variable resolved to a frame slot: `locals[frame_base + n]`.
    Local(u32),
    /// A variable that was not in scope at lowering time; raises
    /// `EvalError::UnboundVariable` with the original spelling if evaluated.
    UnboundVar(String),
    /// `if b then e1 else e2`.
    If(LId, LId, LId),
    /// Tuple construction.
    Tuple(Vec<LId>),
    /// Component selection, 1-based.
    Sel(usize, LId),
    /// Equality.
    Eq(LId, LId),
    /// Domain order.
    Leq(LId, LId),
    /// `emptyset`.
    EmptySet,
    /// `insert(e, s)`.
    Insert(LId, LId),
    /// `set-reduce(s, app, acc, base, extra)`.
    SetReduce {
        /// The set to traverse.
        set: LId,
        /// Applied to `(element, extra)` for each element.
        app: LLambda,
        /// Combines `(app result, recursive result)`.
        acc: LLambda,
        /// Value for the empty set.
        base: LId,
        /// Extra value threaded to every `app` application.
        extra: LId,
    },
    /// `choose(s)`.
    Choose(LId),
    /// `rest(s)`.
    Rest(LId),
    /// A call resolved to a definition index of the compiled program.
    Call {
        /// Index into [`CompiledProgram::defs`].
        def: u32,
        /// Argument expressions, in order.
        args: Vec<LId>,
    },
    /// A call to a name with no definition; raises
    /// `EvalError::UnknownFunction` if evaluated (before touching the
    /// arguments, as the seed evaluator did).
    CallUnknown(String),
    /// `let … = value in body`; the binding's slot is implicit (top of
    /// frame while `body` runs).
    Let {
        /// Bound value.
        value: LId,
        /// Body with the binding pushed.
        body: LId,
    },
    /// `new(s)`.
    New(LId),
    /// A natural-number constant.
    NatConst(BigNat),
    /// `succ(e)`.
    Succ(LId),
    /// `e1 + e2` on naturals.
    NatAdd(LId, LId),
    /// `e1 * e2` on naturals.
    NatMul(LId, LId),
    /// The empty list.
    EmptyList,
    /// `cons(e, l)`.
    Cons(LId, LId),
    /// `head(l)`.
    Head(LId),
    /// `tail(l)`.
    Tail(LId),
    /// `list-reduce(l, app, acc, base, extra)`.
    ListReduce {
        /// The list to traverse.
        list: LId,
        /// Applied to `(element, extra)` for each element.
        app: LLambda,
        /// Combines `(app result, recursive result)`.
        acc: LLambda,
        /// Value for the empty list.
        base: LId,
        /// Extra value threaded to every `app` application.
        extra: LId,
    },
}

/// A compiled definition: interned name, parameter symbols, lowered body.
#[derive(Clone, Debug)]
pub struct CompiledDef {
    /// Interned definition name.
    pub name: Symbol,
    /// Interned parameter names, in slot order.
    pub params: Vec<Symbol>,
    /// Root of the lowered body in the program's node arena; its frame is
    /// exactly the parameter slots.
    pub body: LId,
}

/// A stand-alone expression lowered against a program: its own node arena
/// plus the root id (see [`CompiledProgram::lower_expr`]).
///
/// The expression also records the **scope** (the frame names, outermost
/// first) it was lowered against: slot indices are positional, so an
/// environment used with
/// [`Evaluator::eval_lowered`](crate::eval::Evaluator::eval_lowered) must
/// bind exactly these names in this order. The bytecode form (for the VM
/// backend) is generated lazily on first use and cached here.
#[derive(Clone, Debug)]
pub struct LoweredExpr {
    nodes: Vec<LExpr>,
    root: LId,
    scope: Vec<String>,
    code: OnceLock<Chunk>,
}

impl LoweredExpr {
    /// The node arena.
    pub fn nodes(&self) -> &[LExpr] {
        &self.nodes
    }

    /// The root node id.
    pub fn root(&self) -> LId {
        self.root
    }

    /// The root node.
    pub fn root_node(&self) -> &LExpr {
        &self.nodes[self.root.index()]
    }

    /// Resolves a node id.
    pub fn node(&self, id: LId) -> &LExpr {
        &self.nodes[id.index()]
    }

    /// The frame names this expression was lowered against, outermost
    /// binding first — the environment contract of `eval_lowered`.
    pub fn scope_names(&self) -> &[String] {
        &self.scope
    }

    /// The bytecode chunk for the VM backend, generated on first use.
    /// `program` must be the program this expression was lowered against
    /// (its calls are resolved through the program's chunk).
    pub fn code(&self, program: &CompiledProgram) -> &Chunk {
        self.code.get_or_init(|| codegen_expr(program, self))
    }
}

/// A [`Program`] lowered once at build time: slot-indexed bodies in one flat
/// arena, an indexed call graph, and the symbol table naming everything.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// The dialect the program claims to live in.
    pub dialect: Dialect,
    nodes: Vec<LExpr>,
    defs: Vec<CompiledDef>,
    symbols: SymbolTable,
    def_index: HashMap<String, u32>,
    fingerprint: u64,
    code: OnceLock<Chunk>,
}

/// A structural fingerprint of a [`Program`]: dialect, definition names,
/// parameter names and bodies, hashed with a fixed (process-independent)
/// FNV-1a hasher, computed once per compile. Two programs that fingerprint
/// differently are structurally different; the serving layer keys its
/// compiled-program cache on it.
fn program_fingerprint(program: &Program) -> u64 {
    // Destructured without `..` on purpose: a new `Dialect` field must show
    // up here (compile error) rather than be silently excluded from the
    // fingerprint.
    let Dialect {
        name,
        allow_new,
        allow_lists,
        allow_nat,
        allow_nat_add,
        allow_nat_mul,
        max_set_height,
        bounded_accumulator,
    } = program.dialect;
    let mut hasher = Fnv1a::new();
    name.hash(&mut hasher);
    (
        allow_new,
        allow_lists,
        allow_nat,
        allow_nat_add,
        allow_nat_mul,
        max_set_height,
        bounded_accumulator,
    )
        .hash(&mut hasher);
    program.defs.len().hash(&mut hasher);
    for def in &program.defs {
        def.name.hash(&mut hasher);
        def.params.len().hash(&mut hasher);
        for p in &def.params {
            p.name.hash(&mut hasher);
        }
        def.body.hash(&mut hasher);
    }
    hasher.finish()
}

/// 64-bit FNV-1a. The standard library's `DefaultHasher` is explicitly not
/// guaranteed stable across Rust versions; fingerprints are only ever
/// compared in-process, but a fixed algorithm keeps them printable and
/// reproducible in diagnostics and golden tests.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl CompiledProgram {
    /// Compiles every definition of `program`. Infallible: dangling names
    /// lower to poison nodes that only fail if reached (see module docs).
    pub fn compile(program: &Program) -> Self {
        let mut symbols = SymbolTable::new();
        let mut def_index: HashMap<String, u32> = HashMap::new();
        // Index every definition name first so that bodies can resolve calls
        // in any order — the seed evaluator resolved calls at run time, when
        // the whole program was visible. (Duplicate names keep the first
        // definition, matching `Program::lookup`.)
        for (i, def) in program.defs.iter().enumerate() {
            symbols.intern(&def.name);
            def_index.entry(def.name.clone()).or_insert(i as u32);
        }
        let mut nodes = Vec::new();
        let defs = program
            .defs
            .iter()
            .map(|def| {
                let name = symbols.intern(&def.name);
                let params: Vec<Symbol> =
                    def.params.iter().map(|p| symbols.intern(&p.name)).collect();
                let mut scope: Vec<&str> = def.params.iter().map(|p| p.name.as_str()).collect();
                let body = lower(&def.body, &mut scope, &def_index, &mut nodes);
                CompiledDef { name, params, body }
            })
            .collect();
        CompiledProgram {
            dialect: program.dialect,
            nodes,
            defs,
            symbols,
            def_index,
            fingerprint: program_fingerprint(program),
            code: OnceLock::new(),
        }
    }

    /// The program's bytecode chunk (one block per definition body) for the
    /// VM backend, generated on first use and shared by every evaluator
    /// holding this compiled program.
    pub fn code(&self) -> &Chunk {
        self.code.get_or_init(|| codegen_program(self))
    }

    /// The structural fingerprint of the [`Program`] this was compiled from:
    /// dialect, definition names, parameter names and bodies, hashed with a
    /// fixed (process-independent) FNV-1a hasher.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The shared node arena of every compiled definition body.
    pub fn nodes(&self) -> &[LExpr] {
        &self.nodes
    }

    /// Resolves a node id of the program arena.
    pub fn node(&self, id: LId) -> &LExpr {
        &self.nodes[id.index()]
    }

    /// The compiled definitions, in program order.
    pub fn defs(&self) -> &[CompiledDef] {
        &self.defs
    }

    /// The symbol table naming definitions and parameters.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// The definition index for `name`, if defined (first definition wins,
    /// like `Program::lookup`).
    pub fn def_id(&self, name: &str) -> Option<u32> {
        self.def_index.get(name).copied()
    }

    /// The spelling of a definition's name.
    pub fn def_name(&self, def: &CompiledDef) -> &str {
        self.symbols.resolve(def.name)
    }

    /// Lowers a stand-alone expression against this program into its own
    /// arena. `scope` is the ambient frame, outermost binding first — for a
    /// top-level query these are the environment's input names; resolution
    /// scans from the end, so later bindings shadow earlier ones exactly
    /// like `Env::get`.
    ///
    /// Lowering depends on the scope's **names only**, never on values:
    /// every free name resolves here (to a slot, or to a poison node that
    /// errors only if evaluated), and the scope is recorded on the result so
    /// evaluation can assert the environment matches positionally.
    pub fn lower_expr(&self, expr: &Expr, scope: &[&str]) -> LoweredExpr {
        let recorded: Vec<String> = scope.iter().map(|s| s.to_string()).collect();
        let mut scope: Vec<&str> = scope.to_vec();
        let mut nodes = Vec::new();
        let root = lower(expr, &mut scope, &self.def_index, &mut nodes);
        LoweredExpr {
            nodes,
            root,
            scope: recorded,
            code: OnceLock::new(),
        }
    }
}

/// Lowers `expr` with `scope` as the current frame layout (innermost binding
/// last, borrowed from the AST — lowering allocates nothing per binder),
/// appending nodes to `nodes` post-order and returning the root id.
/// `def_index` resolves call targets.
fn lower<'a>(
    expr: &'a Expr,
    scope: &mut Vec<&'a str>,
    def_index: &HashMap<String, u32>,
    nodes: &mut Vec<LExpr>,
) -> LId {
    let lowered = match expr {
        Expr::Bool(b) => LExpr::Bool(*b),
        Expr::Const(v) => LExpr::Const(v.clone()),
        Expr::Var(name) => match scope.iter().rposition(|n| *n == name) {
            Some(slot) => LExpr::Local(slot as u32),
            None => LExpr::UnboundVar(name.clone()),
        },
        Expr::If(c, t, e) => {
            let c = lower(c, scope, def_index, nodes);
            let t = lower(t, scope, def_index, nodes);
            let e = lower(e, scope, def_index, nodes);
            LExpr::If(c, t, e)
        }
        Expr::Tuple(items) => LExpr::Tuple(
            items
                .iter()
                .map(|i| lower(i, scope, def_index, nodes))
                .collect(),
        ),
        Expr::Sel(i, e) => LExpr::Sel(*i, lower(e, scope, def_index, nodes)),
        Expr::Eq(a, b) => {
            let a = lower(a, scope, def_index, nodes);
            let b = lower(b, scope, def_index, nodes);
            LExpr::Eq(a, b)
        }
        Expr::Leq(a, b) => {
            let a = lower(a, scope, def_index, nodes);
            let b = lower(b, scope, def_index, nodes);
            LExpr::Leq(a, b)
        }
        Expr::EmptySet => LExpr::EmptySet,
        Expr::Insert(e, s) => {
            let e = lower(e, scope, def_index, nodes);
            let s = lower(s, scope, def_index, nodes);
            LExpr::Insert(e, s)
        }
        Expr::SetReduce {
            set,
            app,
            acc,
            base,
            extra,
        } => {
            let set = lower(set, scope, def_index, nodes);
            let app = lower_lambda(app, scope, def_index, nodes);
            let acc = lower_lambda(acc, scope, def_index, nodes);
            let base = lower(base, scope, def_index, nodes);
            let extra = lower(extra, scope, def_index, nodes);
            LExpr::SetReduce {
                set,
                app,
                acc,
                base,
                extra,
            }
        }
        Expr::Choose(s) => LExpr::Choose(lower(s, scope, def_index, nodes)),
        Expr::Rest(s) => LExpr::Rest(lower(s, scope, def_index, nodes)),
        Expr::Call(name, args) => match def_index.get(name).copied() {
            Some(def) => LExpr::Call {
                def,
                args: args
                    .iter()
                    .map(|a| lower(a, scope, def_index, nodes))
                    .collect(),
            },
            None => LExpr::CallUnknown(name.clone()),
        },
        Expr::Let { name, value, body } => {
            let value = lower(value, scope, def_index, nodes);
            scope.push(name.as_str());
            let body = lower(body, scope, def_index, nodes);
            scope.pop();
            LExpr::Let { value, body }
        }
        Expr::New(s) => LExpr::New(lower(s, scope, def_index, nodes)),
        Expr::NatConst(n) => LExpr::NatConst(n.clone()),
        Expr::Succ(e) => LExpr::Succ(lower(e, scope, def_index, nodes)),
        Expr::NatAdd(a, b) => {
            let a = lower(a, scope, def_index, nodes);
            let b = lower(b, scope, def_index, nodes);
            LExpr::NatAdd(a, b)
        }
        Expr::NatMul(a, b) => {
            let a = lower(a, scope, def_index, nodes);
            let b = lower(b, scope, def_index, nodes);
            LExpr::NatMul(a, b)
        }
        Expr::EmptyList => LExpr::EmptyList,
        Expr::Cons(e, l) => {
            let e = lower(e, scope, def_index, nodes);
            let l = lower(l, scope, def_index, nodes);
            LExpr::Cons(e, l)
        }
        Expr::Head(l) => LExpr::Head(lower(l, scope, def_index, nodes)),
        Expr::Tail(l) => LExpr::Tail(lower(l, scope, def_index, nodes)),
        Expr::ListReduce {
            list,
            app,
            acc,
            base,
            extra,
        } => {
            let list = lower(list, scope, def_index, nodes);
            let app = lower_lambda(app, scope, def_index, nodes);
            let acc = lower_lambda(acc, scope, def_index, nodes);
            let base = lower(base, scope, def_index, nodes);
            let extra = lower(extra, scope, def_index, nodes);
            LExpr::ListReduce {
                list,
                app,
                acc,
                base,
                extra,
            }
        }
    };
    nodes.push(lowered);
    LId((nodes.len() - 1) as u32)
}

fn lower_lambda<'a>(
    lambda: &'a Lambda,
    scope: &mut Vec<&'a str>,
    def_index: &HashMap<String, u32>,
    nodes: &mut Vec<LExpr>,
) -> LLambda {
    // Application pushes x then y onto the frame; mirror that layout.
    scope.push(&lambda.x);
    scope.push(&lambda.y);
    let body = lower(&lambda.body, scope, def_index, nodes);
    scope.pop();
    scope.pop();
    LLambda { body }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;

    fn compile(p: &Program) -> CompiledProgram {
        CompiledProgram::compile(p)
    }

    #[test]
    fn vars_resolve_to_slots_with_shadowing() {
        let p = Program::srl();
        let c = compile(&p);
        // let a = …; let a = …; a  — the inner binding (slot 1) wins.
        let e = let_in("a", atom(1), let_in("a", atom(2), var("a")));
        let l = c.lower_expr(&e, &[]);
        match l.root_node() {
            LExpr::Let { body, .. } => match l.node(*body) {
                LExpr::Let { body, .. } => assert_eq!(l.node(*body), &LExpr::Local(1)),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ambient_scope_names_are_slots_zero_up() {
        let p = Program::srl();
        let c = compile(&p);
        let scope = ["S", "T"];
        assert_eq!(
            c.lower_expr(&var("S"), &scope).root_node(),
            &LExpr::Local(0)
        );
        assert_eq!(
            c.lower_expr(&var("T"), &scope).root_node(),
            &LExpr::Local(1)
        );
        assert_eq!(
            c.lower_expr(&var("U"), &scope).root_node(),
            &LExpr::UnboundVar("U".to_string())
        );
    }

    #[test]
    fn lambda_parameters_occupy_the_top_two_slots() {
        let p = Program::srl();
        let c = compile(&p);
        let e = set_reduce(
            var("S"),
            lam("x", "e", var("x")),
            lam("v", "acc", insert(var("v"), var("acc"))),
            empty_set(),
            empty_set(),
        );
        let scope = ["S"];
        let l = c.lower_expr(&e, &scope);
        match l.root_node() {
            LExpr::SetReduce { set, app, acc, .. } => {
                assert_eq!(l.node(*set), &LExpr::Local(0));
                // Frame: [S, x, e] — x is slot 1.
                assert_eq!(l.node(app.body), &LExpr::Local(1));
                // Frame: [S, v, acc] — insert(v@1, acc@2).
                match l.node(acc.body) {
                    LExpr::Insert(v, a) => {
                        assert_eq!(l.node(*v), &LExpr::Local(1));
                        assert_eq!(l.node(*a), &LExpr::Local(2));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn calls_resolve_to_first_definition_in_any_order() {
        // Forward references compile (the seed evaluator resolved them at
        // run time); `Program::validate` is what rejects them statically.
        let p = Program::srl()
            .define("f", ["x"], call("g", [var("x")]))
            .define("g", ["x"], var("x"));
        let c = compile(&p);
        match c.node(c.defs()[0].body) {
            LExpr::Call { def, args } => {
                assert_eq!(*def, 1);
                assert_eq!(args.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.def_id("f"), Some(0));
        assert_eq!(c.def_id("g"), Some(1));
        assert_eq!(c.def_id("h"), None);
        assert_eq!(c.def_name(&c.defs()[0]), "f");
    }

    #[test]
    fn unknown_calls_lower_to_poison_not_errors() {
        let p = Program::srl();
        let c = compile(&p);
        assert_eq!(
            c.lower_expr(&call("nope", [atom(1)]), &[]).root_node(),
            &LExpr::CallUnknown("nope".to_string())
        );
    }

    #[test]
    fn def_params_are_the_base_frame() {
        let p = Program::srl().define("pair", ["a", "b"], tuple([var("b"), var("a")]));
        let c = compile(&p);
        match c.node(c.defs()[0].body) {
            LExpr::Tuple(items) => {
                assert_eq!(c.node(items[0]), &LExpr::Local(1));
                assert_eq!(c.node(items[1]), &LExpr::Local(0));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.defs()[0].params.len(), 2);
        assert_eq!(c.symbols().resolve(c.defs()[0].params[0]), "a");
    }

    #[test]
    fn whole_program_lives_in_one_arena() {
        let p = Program::srl().define("id", ["x"], var("x")).define(
            "twice",
            ["x"],
            tuple([call("id", [var("x")]), var("x")]),
        );
        let c = compile(&p);
        // 1 node for `id`, 4 for `twice` (var, call, var, tuple).
        assert_eq!(c.nodes().len(), 5);
    }
}
