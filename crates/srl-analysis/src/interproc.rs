//! # Interprocedural fold-classification report
//!
//! The compiled-artifact counterpart of [`crate::order`]: where that module
//! proves order-independence on the *surface syntax*, this one reads the
//! verdicts the compiler already committed to — every lowered reduce
//! instruction carries its [`FoldClass`] (what gates sharding), its
//! [`FoldOrigin`] (where the verdict came from: a fused shape, a local
//! insert spine or the interprocedural spine summary of
//! [`srl_core::analysis`], a named obstacle, or list semantics), and its
//! static unit cost. This module
//! walks a chunk, attributes each reduce to its enclosing definition, and
//! renders the origin as a human-readable reason with definition names
//! resolved — the data behind `srl analyze` and the REPL's `:classify`.
//!
//! Two entry points mirror the two chunk forms:
//!
//! * [`analyze_compiled`] — a whole program: per-definition spine-summary
//!   rows plus one [`FoldRow`] per reduce instruction, in block order.
//! * [`analyze_expression`] — a stand-alone query lowered against a
//!   program (expression chunks have no definitions; rows carry no
//!   definition name).
//!
//! The report is *descriptive*, not a re-analysis: it prints exactly the
//! classification the VM and the worker pool will act on, so what
//! `srl analyze` says is by construction what `srl run --threads N` does.

use srl_core::bytecode::{Chunk, Insn, ReduceInsn};
use srl_core::lower::LoweredExpr;
use srl_core::{CompiledProgram, DefSummaries, FoldClass, FoldOrigin, SpineBlock};

/// One reduce instruction's verdict: the fold strategy, the class that
/// gates sharding, the provenance of that class, and a rendered reason.
#[derive(Clone, Debug)]
pub struct FoldRow {
    /// Enclosing definition name; `None` inside an expression chunk.
    pub def: Option<String>,
    /// Block id holding the reduce instruction.
    pub block: u32,
    /// `true` for a `list-reduce`.
    pub is_list: bool,
    /// Fold strategy label (see `ReduceKind::label`): `generic`, `member`,
    /// `union`, `product`, `insert-app`, `filter`, `bool-acc`, `scan`.
    pub kind: &'static str,
    /// The compile-time algebraic class — [`FoldClass::ProperHom`] folds
    /// may be sharded across the worker pool.
    pub class: FoldClass,
    /// Where the class came from (kept for programmatic consumers; the
    /// rendered form is [`FoldRow::reason`]).
    pub origin: FoldOrigin,
    /// Static per-element cost estimate (the parallel executor multiplies
    /// it by input cardinality to decide whether sharding pays).
    pub unit_cost: u32,
    /// Storage-tier label of the traversed set (`"atom"` when shape
    /// inference proved `set(atom)`, `"tuple(k)"` when it proved an
    /// arity-k atom-tuple set — the columnar tier pre-engages either way;
    /// `"generic"` otherwise — see `srl_core::bytecode::SetTier`).
    pub tier: String,
    /// Storage-tier label of the fold's accumulator, same vocabulary as
    /// [`FoldRow::tier`]; `"generic"` for list folds.
    pub acc_tier: String,
    /// Human-readable reason for the verdict, definition names resolved.
    pub reason: String,
}

impl FoldRow {
    /// Whether the combiner was proved order-independent — exactly the
    /// sharding eligibility the executor uses.
    pub fn order_independent(&self) -> bool {
        self.class == FoldClass::ProperHom
    }
}

/// One definition's interprocedural spine summary: the parameter (if any)
/// through which every call threads into a pure insert spine.
#[derive(Clone, Debug)]
pub struct SpineRow {
    /// Definition name.
    pub def: String,
    /// Name of the spine parameter, or `None` when the definition has no
    /// provable spine (it inspects every set parameter, or is recursive).
    pub spine_param: Option<String>,
}

/// A whole program's interprocedural report: per-definition spine
/// summaries plus every reduce instruction's verdict row.
#[derive(Clone, Debug)]
pub struct InterprocReport {
    /// One row per definition, in definition order.
    pub spines: Vec<SpineRow>,
    /// One row per reduce instruction, in block order.
    pub folds: Vec<FoldRow>,
}

/// Analyzes a compiled program: recomputes the definition summaries (cheap,
/// and identical to what codegen used) and collects every reduce
/// instruction's committed verdict. Forces bytecode generation if it has
/// not happened yet.
pub fn analyze_compiled(program: &CompiledProgram) -> InterprocReport {
    let summaries = DefSummaries::compute(program);
    let spines = program
        .defs()
        .iter()
        .enumerate()
        .map(|(i, def)| SpineRow {
            def: program.def_name(def).to_string(),
            spine_param: summaries.spine_param(i as u32).map(|p| {
                program
                    .symbols()
                    .resolve(def.params[usize::from(p)])
                    .to_string()
            }),
        })
        .collect();
    InterprocReport {
        spines,
        folds: fold_rows(program, program.code()),
    }
}

/// Analyzes a stand-alone lowered expression against its program. The
/// expression chunk has no definitions of its own, so rows carry no
/// definition name; call-threaded verdicts still name the *program's*
/// definitions (the summaries cross the chunk boundary).
pub fn analyze_expression(program: &CompiledProgram, lowered: &LoweredExpr) -> Vec<FoldRow> {
    fold_rows(program, lowered.code(program))
}

fn fold_rows(program: &CompiledProgram, chunk: &Chunk) -> Vec<FoldRow> {
    let mut rows = Vec::new();
    for (id, block) in chunk.blocks().iter().enumerate() {
        let block = block.code();
        for insn in block {
            let Insn::Reduce(r) = insn else { continue };
            rows.push(FoldRow {
                def: def_of_block(program, chunk, id as u32),
                block: id as u32,
                is_list: r.is_list,
                kind: r.kind.label(),
                class: r.class,
                origin: r.origin,
                unit_cost: r.unit_cost,
                tier: r.tier.label(),
                acc_tier: r.acc_tier.label(),
                reason: render_reason(program, r),
            });
        }
    }
    rows
}

/// Maps a block id back to the definition that owns it. `gen_frame` pushes
/// a definition's nested lambda blocks first and its root block last, so
/// definition `i` owns the contiguous block range ending at
/// `defs[i].block`: the owner is the first definition whose root block id
/// is `>= id`. Expression chunks have no definitions; every block maps to
/// `None`.
fn def_of_block(program: &CompiledProgram, chunk: &Chunk, id: u32) -> Option<String> {
    let owner = chunk.defs().iter().position(|d| id <= d.block)?;
    Some(program.def_name(&program.defs()[owner]).to_string())
}

fn def_name(program: &CompiledProgram, def: u32) -> &str {
    program.def_name(&program.defs()[def as usize])
}

/// Renders a reduce's provenance as one sentence, resolving definition
/// indices to names. Fused shapes describe the algebra the kind named;
/// obstacles say what blocked the spine proof.
fn render_reason(program: &CompiledProgram, r: &ReduceInsn) -> String {
    match &r.origin {
        FoldOrigin::List => {
            "list semantics: duplicates and stored order are observable".to_string()
        }
        FoldOrigin::Spine { via: None } => "local accumulator insert spine (y ∪ g(x))".to_string(),
        FoldOrigin::Spine { via: Some(via) } => format!(
            "call-threaded accumulator spine through `{}` (interprocedural summary)",
            def_name(program, *via)
        ),
        FoldOrigin::Unproven(SpineBlock::NotThreaded) => {
            "combiner result does not thread the accumulator".to_string()
        }
        FoldOrigin::Unproven(SpineBlock::Inspected) => {
            "combiner reads the accumulator outside the insert spine".to_string()
        }
        FoldOrigin::Unproven(SpineBlock::CalleeNoSpine(def)) => format!(
            "calls `{}`, which has no spine-parameter summary",
            def_name(program, *def)
        ),
        FoldOrigin::Shape => match r.kind.label() {
            "member" => "fused shape: membership scan (or-fold of equality)".to_string(),
            "union" => "fused shape: union by insertion (bulk sorted merge)".to_string(),
            "product" => "fused shape: cartesian product (union of map slices)".to_string(),
            "insert-app" => "fused shape: map-style insert fold".to_string(),
            "filter" => "fused shape: conditional-insert filter".to_string(),
            "bool-acc" => "fused shape: boolean quantifier fold".to_string(),
            "scan" => "fused shape: keep-last-match scan observes traversal order".to_string(),
            other => format!("fused shape: {other}"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srl_core::ast::Lambda;
    use srl_core::dsl::*;
    use srl_core::program::Program;

    /// Example 3.12's powerset: finsert has a spine parameter, sift's inner
    /// fold is proved through it, and the outer fold is blocked by sift.
    fn powerset_program() -> Program {
        Program::srl()
            .define(
                "finsert",
                ["p", "T"],
                insert(
                    sel(var("p"), 1),
                    insert(insert(sel(var("p"), 2), sel(var("p"), 1)), var("T")),
                ),
            )
            .define(
                "sift",
                ["x", "T"],
                set_reduce(
                    var("T"),
                    lam("y", "e", tuple([var("y"), var("e")])),
                    lam("pair", "acc", call("finsert", [var("pair"), var("acc")])),
                    empty_set(),
                    var("x"),
                ),
            )
            .define(
                "powerset",
                ["S"],
                set_reduce(
                    var("S"),
                    lam("x", "y", var("x")),
                    lam("x", "T", call("sift", [var("x"), var("T")])),
                    insert(empty_set(), empty_set()),
                    empty_set(),
                ),
            )
    }

    #[test]
    fn powerset_report_names_the_spine_and_the_obstacle() {
        let c = powerset_program().compile();
        let report = analyze_compiled(&c);

        let spine: Vec<(&str, Option<&str>)> = report
            .spines
            .iter()
            .map(|s| (s.def.as_str(), s.spine_param.as_deref()))
            .collect();
        assert_eq!(
            spine,
            vec![("finsert", Some("T")), ("sift", None), ("powerset", None),]
        );

        let sift = report
            .folds
            .iter()
            .find(|f| f.def.as_deref() == Some("sift"))
            .unwrap();
        assert_eq!(sift.kind, "generic");
        assert!(sift.order_independent());
        assert!(sift.reason.contains("`finsert`"), "{}", sift.reason);

        let outer = report
            .folds
            .iter()
            .find(|f| f.def.as_deref() == Some("powerset"))
            .unwrap();
        assert_eq!(outer.class, FoldClass::Ordered);
        assert!(!outer.order_independent());
        assert!(outer.reason.contains("`sift`"), "{}", outer.reason);
    }

    #[test]
    fn expression_rows_have_no_definition_and_fused_reasons() {
        let c = Program::srl().compile();
        // member(a, S) fuses to the binary-search scan.
        let member = set_reduce(
            var("S"),
            lam("x", "y", eq(var("x"), var("y"))),
            lam("a", "b", or(var("a"), var("b"))),
            atom(0),
            var("a"),
        );
        let lowered = c.lower_expr(&member, &["a", "S"]);
        let rows = analyze_expression(&c, &lowered);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].def, None);
        assert_eq!(rows[0].kind, "member");
        assert!(rows[0].order_independent());
        assert!(rows[0].reason.contains("membership"), "{}", rows[0].reason);
    }

    #[test]
    fn ordered_folds_report_their_obstacle() {
        let c = Program::srl().compile();
        // Keep-left: the combiner result never threads the accumulator.
        let keep_left = set_reduce(
            var("S"),
            Lambda::identity(),
            lam("x", "y", var("x")),
            empty_set(),
            empty_set(),
        );
        let lowered = c.lower_expr(&keep_left, &["S"]);
        let rows = analyze_expression(&c, &lowered);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].class, FoldClass::Ordered);
        assert!(
            rows[0].reason.contains("does not thread"),
            "{}",
            rows[0].reason
        );
    }
}
