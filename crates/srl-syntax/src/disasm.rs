//! Disassembler for the bytecode VM's chunks (`srl_core::bytecode`).
//!
//! The second member of the printer family: [`crate::printer`] shows the
//! paper's surface notation, and this module shows what the **VM backend**
//! actually executes — register instructions with their static depth
//! offsets, the fused superinstructions a fold compiled to, and the block
//! structure of the reduce lambdas. Read it when auditing which folds fused (a `reduce`
//! line names its kind: `member`, `quantifier`, `union/merge`, `product`,
//! `insert-app`, `filter`, `join-filter`, `bool-acc`, `scan`, or
//! `generic`; a product a join filter reads ends in `=> [A, B] for the
//! join-filter`) or when debugging codegen.
//!
//! Registers print as `r<n>`; frame slots and temporaries share one
//! register space (slots below each frame's lexical height, temporaries
//! above). Jump targets are instruction indices within the block. Every
//! reduce line also names its [`FoldClass`](srl_core::bytecode::FoldClass)
//! (`class=proper-hom` — shard-splittable across the worker pool — or
//! `class=ordered`), where that class came from (`origin=`), and its static
//! per-element cost estimate, so the compile-time decisions of the parallel
//! executor are auditable here. Storage tiers are not a compile-time
//! decision: `srl_core::setrepr` picks them from a set's contents at run
//! time, so no reduce line names one.

use srl_core::bytecode::{Block, Chunk, FoldOrigin, Insn, Operand, QuantTest, ReduceKind};
use srl_core::lower::{CompiledProgram, LoweredExpr};
use srl_core::SpineBlock;

/// Disassembles a whole program's chunk: every definition with its entry
/// block, frame size, and all blocks it references. Forces bytecode
/// generation if it has not happened yet.
pub fn disasm_program(program: &CompiledProgram) -> String {
    let chunk = program.code();
    let mut out = String::new();
    for (i, (def, code)) in program.defs().iter().zip(chunk.defs()).enumerate() {
        out.push_str(&format!(
            "def {}#{i}/{} = block {} (frame {})\n",
            program.def_name(def),
            def.params.len(),
            code.block,
            code.frame_size,
        ));
    }
    out.push_str(&disasm_blocks(chunk));
    out
}

/// Disassembles the chunk of a stand-alone lowered expression (generating
/// it if needed): the main block, its frame size, and every lambda block.
pub fn disasm_lowered(program: &CompiledProgram, lowered: &LoweredExpr) -> String {
    let chunk = lowered.code(program);
    let mut out = format!(
        "main = block {} (frame {}, scope [{}])\n",
        chunk.main(),
        chunk.main_frame(),
        lowered.scope_names().join(", "),
    );
    out.push_str(&disasm_blocks(chunk));
    out
}

fn disasm_blocks(chunk: &Chunk) -> String {
    let mut out = String::new();
    for (id, block) in chunk.blocks().iter().enumerate() {
        out.push_str(&format!("block {id} (result r{}):\n", block.result()));
        out.push_str(&disasm_block(chunk, block));
    }
    out
}

fn disasm_block(chunk: &Chunk, block: &Block) -> String {
    let mut out = String::new();
    for (pc, insn) in block.code().iter().enumerate() {
        out.push_str(&format!("  {pc:>3}  {}\n", render_insn(chunk, insn)));
    }
    out
}

fn operand(chunk: &Chunk, op: &Operand) -> String {
    match op {
        Operand::Temp(r) => format!("r{r}"),
        Operand::Slot(r) => format!("slot r{r}"),
        Operand::SlotSel(r, i) => format!("slot r{r}.{i}"),
        Operand::Const(i) => format!("const {}", chunk.consts()[*i as usize]),
    }
}

fn render_insn(chunk: &Chunk, insn: &Insn) -> String {
    match insn {
        Insn::LoadBool { dst, value, depth } => format!("r{dst} <- {value}  @{depth}"),
        Insn::LoadConst { dst, index, depth } => {
            format!(
                "r{dst} <- const {}  @{depth}",
                chunk.consts()[*index as usize]
            )
        }
        Insn::LoadEmptySet { dst, depth } => format!("r{dst} <- emptyset  @{depth}"),
        Insn::LoadEmptyList { dst, depth } => format!("r{dst} <- emptylist  @{depth}"),
        Insn::LoadNat { dst, index, depth } => {
            format!("r{dst} <- nat {}  @{depth}", chunk.nats()[*index as usize])
        }
        Insn::Copy { dst, src, depth } => format!("r{dst} <- copy r{src}  @{depth}"),
        Insn::Take { dst, src, depth } => format!("r{dst} <- take r{src}  @{depth}"),
        Insn::FailUnbound { name, depth } => {
            format!("fail unbound ?{}  @{depth}", chunk.names()[*name as usize])
        }
        Insn::FailUnknownCall { name, depth } => {
            format!(
                "fail unknown-call ?{}  @{depth}",
                chunk.names()[*name as usize]
            )
        }
        Insn::FailArity { def, nargs, depth } => {
            format!("fail arity def#{def} with {nargs} arg(s)  @{depth}")
        }
        Insn::Bump { depth } => format!("bump  @{depth}"),
        Insn::Guard { name, depth, .. } => format!("guard dialect[{name}]  @{depth}"),
        Insn::Branch {
            cond,
            else_to,
            depth,
        } => format!("branch r{cond} else -> {else_to}  @{depth}"),
        Insn::Jump { to } => format!("jump -> {to}"),
        Insn::MakeTuple {
            dst,
            start,
            len,
            depth,
        } => format!("r{dst} <- tuple r{start}..r{}  @{depth}", start + len - 1),
        Insn::Sel {
            dst,
            index,
            op,
            depth,
        } => format!("r{dst} <- sel.{index} {}  @{depth}", operand(chunk, op)),
        Insn::Cmp {
            dst,
            a,
            b,
            leq,
            depth,
        } => format!(
            "r{dst} <- {} {} {}  @{depth}",
            operand(chunk, a),
            if *leq { "<=" } else { "=" },
            operand(chunk, b),
        ),
        Insn::Insert {
            dst,
            elem,
            set,
            depth,
        } => format!("r{dst} <- insert r{elem} into r{set}  @{depth}"),
        Insn::Choose { dst, op, depth } => {
            format!("r{dst} <- choose {}  @{depth}", operand(chunk, op))
        }
        Insn::Rest { dst, src, depth } => format!("r{dst} <- rest r{src}  @{depth}"),
        Insn::Cons { dst, elem, list } => format!("r{dst} <- cons r{elem} onto r{list}"),
        Insn::Head { dst, src } => format!("r{dst} <- head r{src}"),
        Insn::Tail { dst, src } => format!("r{dst} <- tail r{src}"),
        Insn::New { dst, src } => format!("r{dst} <- new r{src}"),
        Insn::Succ { dst, src } => format!("r{dst} <- succ r{src}"),
        Insn::CheckNat { src, op } => format!("check-nat r{src} for {op}"),
        Insn::NatAdd { dst, a, b } => format!("r{dst} <- r{a} + r{b}"),
        Insn::NatMul { dst, a, b } => format!("r{dst} <- r{a} * r{b}"),
        Insn::Call {
            dst,
            def,
            args,
            nargs,
            depth,
        } => {
            if *nargs == 0 {
                format!("r{dst} <- call def#{def}()  @{depth}")
            } else {
                format!(
                    "r{dst} <- call def#{def}(r{args}..r{})  @{depth}",
                    args + nargs - 1
                )
            }
        }
        Insn::Reduce(r) => {
            let kind = match &r.kind {
                ReduceKind::Generic { app, acc } => format!("generic app=b{app} acc=b{acc}"),
                ReduceKind::Quantifier {
                    is_or: true,
                    test: QuantTest::Eq,
                } => "member [fused: binary search]".to_string(),
                ReduceKind::Quantifier { is_or, test } => format!(
                    "quantifier {} {} [fused: set ends]",
                    if *is_or { "or" } else { "and" },
                    test.label()
                ),
                ReduceKind::Union => "union [fused: SetMerge]".to_string(),
                ReduceKind::Product { .. } => "product [fused: one pass over A x B]".to_string(),
                ReduceKind::InsertApp { app } => format!("insert-app app=b{app}"),
                ReduceKind::Filter {
                    app,
                    keep_on_true,
                    cond_index,
                    value_index,
                    pair,
                    join,
                } => {
                    // An elided `select` pair: the app block computes the
                    // flag alone; the element read and the tuple it skips
                    // are charged at these depths.
                    let elided = match pair {
                        None => String::new(),
                        Some(p) => format!(
                            " elided={} read@{} tuple@{}",
                            if p.elem_first {
                                "[x, flag]"
                            } else {
                                "[flag, x]"
                            },
                            p.read_depth,
                            p.tuple_depth,
                        ),
                    };
                    // A join: the app block is the predicate's body; the
                    // kernel writes the pair's components into the two
                    // `let` slots and replays the skipped `let`s' steps.
                    let (label, lets) = match join {
                        None => ("filter", String::new()),
                        Some(j) => (
                            "join-filter",
                            format!(
                                " lets=r{},r{} prologue={}@{}",
                                r.x_slot + 2,
                                r.x_slot + 3,
                                j.steps,
                                j.depth
                            ),
                        ),
                    };
                    format!(
                        "{label} app=b{app} keep-on-{keep_on_true} flag=.{cond_index} value=.{value_index}{elided}{lets}"
                    )
                }
                ReduceKind::BoolAcc { app, is_or } => {
                    format!("bool-acc app=b{app} {}", if *is_or { "or" } else { "and" })
                }
                ReduceKind::Scan {
                    app,
                    cond_index,
                    value_index,
                } => format!("scan app=b{app} flag=.{cond_index} value=.{value_index}"),
            };
            // The origin says where `class` came from; fused shapes carry
            // no annotation (the kind already names the algebra). Def
            // indices stay numeric here — the chunk alone cannot resolve
            // names; `srl analyze` renders the same provenance with names.
            let origin = match &r.origin {
                FoldOrigin::Shape => String::new(),
                FoldOrigin::Spine { via: None } => " origin=spine(local)".to_string(),
                FoldOrigin::Spine { via: Some(via) } => format!(" origin=spine(def#{via})"),
                FoldOrigin::Unproven(SpineBlock::NotThreaded) => {
                    " origin=blocked(not-threaded)".to_string()
                }
                FoldOrigin::Unproven(SpineBlock::Inspected) => {
                    " origin=blocked(acc-inspected)".to_string()
                }
                FoldOrigin::Unproven(SpineBlock::CalleeNoSpine(d)) => {
                    format!(" origin=blocked(no-spine def#{d})")
                }
                FoldOrigin::List => " origin=list".to_string(),
            };
            // A product read by a join filter leaves A and B in its
            // destination for that filter instead of building A × B.
            let handoff = match r.kind {
                ReduceKind::Product { join: true } => " => [A, B] for the join-filter",
                _ => "",
            };
            format!(
                "r{} <- {}reduce[{kind}] class={}{origin} cost={} set=r{} base=r{} extra=r{} x=r{}{handoff}  @{}",
                r.dst,
                if r.is_list { "list-" } else { "" },
                r.class.label(),
                r.unit_cost,
                r.set,
                r.base,
                r.extra,
                r.x_slot,
                r.depth,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srl_core::ast::{Expr, Lambda};
    use srl_core::dsl::*;
    use srl_core::program::Program;

    #[test]
    fn union_fold_disassembles_to_the_fused_merge() {
        let p = Program::srl();
        let c = p.compile();
        let e = set_reduce(
            var("A"),
            Lambda::identity(),
            lam("x", "acc", insert(var("x"), var("acc"))),
            var("B"),
            empty_set(),
        );
        let lowered = c.lower_expr(&e, &["A", "B"]);
        let text = disasm_lowered(&c, &lowered);
        assert!(text.contains("union [fused: SetMerge]"), "{text}");
        assert!(text.contains("scope [A, B]"), "{text}");
    }

    #[test]
    fn comparison_quantifiers_disassemble_with_their_form() {
        // BASRL's is_min and is_max, and the membership scan.
        let quantifier = |app: Expr, acc: Expr| {
            let e = set_reduce(
                var("D"),
                lam("d", "a", app),
                lam("ok", "acc", acc),
                bool_(true),
                var("a"),
            );
            let c = Program::srl().compile();
            disasm_lowered(&c, &c.lower_expr(&e, &["D", "a"]))
        };
        let and_acc = || and(var("ok"), var("acc"));
        let text = quantifier(leq(var("a"), var("d")), and_acc());
        assert!(
            text.contains(
                "reduce[quantifier and y <= x [fused: set ends]] class=proper-hom cost=0"
            ),
            "{text}"
        );
        let text = quantifier(leq(var("d"), var("a")), and_acc());
        assert!(
            text.contains("reduce[quantifier and x <= y [fused: set ends]]"),
            "{text}"
        );
        let text = quantifier(eq(var("d"), var("a")), or(var("ok"), var("acc")));
        assert!(
            text.contains("reduce[member [fused: binary search]]"),
            "{text}"
        );
    }

    #[test]
    fn program_disassembly_names_defs_and_blocks() {
        let p = Program::srl()
            .define("fst", ["t"], sel(var("t"), 1))
            .define("use", ["t"], call("fst", [var("t")]));
        let c = p.compile();
        let text = disasm_program(&c);
        assert!(text.contains("def fst#0/1 = block 0"), "{text}");
        assert!(text.contains("sel.1 slot r0"), "{text}");
        assert!(text.contains("call def#0"), "{text}");
    }

    #[test]
    fn reduce_lines_carry_their_origin() {
        let p = Program::srl();
        let c = p.compile();
        // Keep-left never threads the accumulator: ordered, with the
        // obstacle on the reduce line.
        let keep_left = set_reduce(
            var("S"),
            Lambda::identity(),
            lam("x", "y", var("x")),
            empty_set(),
            empty_set(),
        );
        let lowered = c.lower_expr(&keep_left, &["S"]);
        let text = disasm_lowered(&c, &lowered);
        assert!(
            text.contains("class=ordered origin=blocked(not-threaded)"),
            "{text}"
        );
    }

    #[test]
    fn call_threaded_spines_disassemble_with_their_summary() {
        let p = Program::srl()
            .define("grow", ["x", "T"], insert(var("x"), var("T")))
            .define(
                "collect",
                ["S"],
                set_reduce(
                    var("S"),
                    Lambda::identity(),
                    lam("x", "acc", call("grow", [var("x"), var("acc")])),
                    empty_set(),
                    empty_set(),
                ),
            );
        let c = p.compile();
        let text = disasm_program(&c);
        assert!(
            text.contains("class=proper-hom origin=spine(def#0)"),
            "{text}"
        );
    }

    #[test]
    fn local_spines_disassemble_as_generic_proper_homs() {
        // write_cell's shape: both branches insert into the accumulator.
        let p = Program::srl().define(
            "write",
            ["T", "p", "s"],
            set_reduce(
                var("T"),
                Lambda::identity(),
                lam(
                    "c",
                    "acc",
                    if_(
                        eq(sel(var("c"), 1), var("p")),
                        insert(tuple([var("p"), var("s")]), var("acc")),
                        insert(var("c"), var("acc")),
                    ),
                ),
                empty_set(),
                empty_set(),
            ),
        );
        let text = disasm_program(&p.compile());
        assert!(
            text.contains("reduce[generic app=b0 acc=b1] class=proper-hom origin=spine(local)"),
            "{text}"
        );
        assert!(text.contains("insert r"), "{text}");
        assert!(!text.contains("[spine]"), "{text}");
    }

    #[test]
    fn relation_folds_disassemble_generic() {
        use srl_core::types::Type;
        // Declared parameter types do not reach codegen: a fold over a
        // declared arity-2 relation compiles exactly like the untyped one.
        let copy = || {
            set_reduce(
                var("E"),
                Lambda::identity(),
                lam("x", "acc", insert(var("x"), var("acc"))),
                empty_set(),
                empty_set(),
            )
        };
        let typed = Program::srl().define_typed("copy", [("E", Type::relation(2))], copy());
        let untyped = Program::srl().define("copy", ["E"], copy());
        let text = disasm_program(&typed.compile());
        assert_eq!(text, disasm_program(&untyped.compile()));
        assert!(text.contains("reduce[union"), "{text}");
    }

    /// `derived::cartesian(A, B)` spelled out with its parts exposed, so
    /// each near-miss below changes exactly one of them.
    fn cartesian_like(
        pair: Expr,
        slices_of: &str,
        slice_base: Expr,
        merge: Expr,
        base: Expr,
    ) -> Expr {
        set_reduce(
            var("A"),
            lam(
                "a",
                "bs",
                set_reduce(
                    var(slices_of),
                    lam("b", "aa", pair),
                    lam("o", "s", insert(var("o"), var("s"))),
                    slice_base,
                    var("a"),
                ),
            ),
            lam("slice", "acc", merge),
            base,
            var("B"),
        )
    }

    fn a_b() -> Expr {
        tuple([var("aa"), var("b")])
    }

    fn slice_into_acc() -> Expr {
        srl_stdlib::derived::union(var("slice"), var("acc"))
    }

    fn disasm_expr(e: &Expr, scope: &[&str]) -> String {
        let c = Program::srl().compile();
        disasm_lowered(&c, &c.lower_expr(e, scope))
    }

    #[test]
    fn cartesian_join_and_tc_compile_to_the_product_fold() {
        use srl_stdlib::derived::{cartesian, join};
        let product = "reduce[product [fused: one pass over A x B]] class=proper-hom";
        // (label, query, reduce instructions in its disassembly)
        let cases = [
            ("cartesian", cartesian(var("A"), var("B")), 1),
            (
                "join",
                join(
                    var("A"),
                    var("B"),
                    lam("x", "y", eq(sel(var("x"), 2), sel(var("y"), 1))),
                    lam("x", "y", tuple([sel(var("x"), 1), sel(var("y"), 2)])),
                ),
                3,
            ),
            (
                "tc",
                srl_stdlib::tc::transitive_closure(var("A"), var("B")),
                7,
            ),
            (
                "spelled out",
                cartesian_like(a_b(), "bs", empty_set(), slice_into_acc(), empty_set()),
                1,
            ),
        ];
        for (label, e, reduces) in cases {
            let text = disasm_expr(&e, &["A", "B"]);
            assert!(text.contains(product), "{label}:\n{text}");
            // A join's product hands A and B to the join filter after it.
            let joins = matches!(label, "join" | "tc");
            assert_eq!(
                text.contains("reduce[join-filter"),
                joins,
                "{label}:\n{text}"
            );
            assert_eq!(
                text.contains("for the join-filter"),
                joins,
                "{label}:\n{text}"
            );
            // One instruction stands for all three folds of the cartesian.
            assert_eq!(text.matches("reduce[").count(), reduces, "{label}:\n{text}");
        }
    }

    #[test]
    fn near_misses_of_the_cartesian_stay_generic() {
        let cases = [
            (
                "pair built as [b, a]",
                cartesian_like(
                    tuple([var("b"), var("aa")]),
                    "bs",
                    empty_set(),
                    slice_into_acc(),
                    empty_set(),
                ),
            ),
            (
                "slice base is not emptyset",
                cartesian_like(a_b(), "bs", var("B"), slice_into_acc(), empty_set()),
            ),
            (
                "outer base is not emptyset",
                cartesian_like(a_b(), "bs", empty_set(), slice_into_acc(), var("B")),
            ),
            (
                "accumulator unioned into the slice",
                cartesian_like(
                    a_b(),
                    "bs",
                    empty_set(),
                    srl_stdlib::derived::union(var("acc"), var("slice")),
                    empty_set(),
                ),
            ),
            (
                "slices built over a set other than the extra",
                cartesian_like(a_b(), "A", empty_set(), slice_into_acc(), empty_set()),
            ),
        ];
        for (label, e) in cases {
            let text = disasm_expr(&e, &["A", "B"]);
            assert!(!text.contains("reduce[product"), "{label}:\n{text}");
            assert!(text.contains("reduce[generic"), "{label}:\n{text}");
        }
    }

    #[test]
    fn cartesian_union_base_is_moved_into_the_merge() {
        // A union-of-slices fold that is not the fused product (its base is
        // not emptyset) still unions each slice into the accumulator, which
        // must arrive at the fused union uniquely owned (a `take`, not a
        // `copy`) for the merge to run in place.
        let e = cartesian_like(a_b(), "bs", empty_set(), slice_into_acc(), var("B"));
        let text = disasm_expr(&e, &["A", "B"]);
        let lines: Vec<&str> = text.lines().collect();
        let at = lines
            .iter()
            .position(|l| l.contains("reduce[union"))
            .unwrap_or_else(|| panic!("no fused union:\n{text}"));
        let base = lines[at]
            .split_whitespace()
            .find_map(|w| w.strip_prefix("base="))
            .expect("reduce lines name their base register");
        let load = lines[..at]
            .iter()
            .rev()
            .find(|l| l.trim_start().contains(&format!("{base} <- ")))
            .unwrap_or_else(|| panic!("no load of {base}:\n{text}"));
        assert!(load.contains("take r"), "{load}\n{text}");
    }

    #[test]
    fn branches_show_targets_and_takes_show_moves() {
        let p = Program::srl();
        let c = p.compile();
        let e = if_(var("b"), rest(var("S")), var("S"));
        let lowered = c.lower_expr(&e, &["b", "S"]);
        let text = disasm_lowered(&c, &lowered);
        assert!(text.contains("branch r"), "{text}");
        assert!(text.contains("take r1"), "{text}");
        assert!(text.contains("jump ->"), "{text}");
    }

    // -----------------------------------------------------------------
    // The parking invariant: the fused kinds with an app block write
    // `extra` into slot `x + 1` once per fold and once per shard, so no
    // instruction their app runs may move out of or write that slot (nor,
    // for an elided `select` pair, slot `x`, which still holds the element
    // the kernel inserts after the block, nor, for a join, the two `let`
    // slots holding the pair's components).
    // -----------------------------------------------------------------

    use srl_core::bytecode::{BlockId, Reg};

    /// Every register an instruction writes or moves out of.
    fn clobbers(insn: &Insn) -> Vec<Reg> {
        match insn {
            Insn::LoadBool { dst, .. }
            | Insn::LoadConst { dst, .. }
            | Insn::LoadEmptySet { dst, .. }
            | Insn::LoadEmptyList { dst, .. }
            | Insn::LoadNat { dst, .. }
            | Insn::Copy { dst, .. }
            | Insn::Sel { dst, .. }
            | Insn::Cmp { dst, .. }
            | Insn::Choose { dst, .. } => vec![*dst],
            Insn::Take { dst, src, .. }
            | Insn::Rest { dst, src, .. }
            | Insn::Head { dst, src }
            | Insn::Tail { dst, src }
            | Insn::New { dst, src }
            | Insn::Succ { dst, src } => vec![*dst, *src],
            Insn::Insert { dst, elem, set, .. } => vec![*dst, *elem, *set],
            Insn::Cons { dst, elem, list } => vec![*dst, *elem, *list],
            Insn::NatAdd { dst, a, b } | Insn::NatMul { dst, a, b } => vec![*dst, *a, *b],
            Insn::MakeTuple {
                dst, start, len, ..
            } => std::iter::once(*dst).chain(*start..*start + *len).collect(),
            Insn::Call {
                dst, args, nargs, ..
            } => std::iter::once(*dst).chain(*args..*args + *nargs).collect(),
            Insn::Reduce(r) => vec![r.dst, r.set, r.base, r.extra, r.x_slot, r.x_slot + 1],
            Insn::FailUnbound { .. }
            | Insn::FailUnknownCall { .. }
            | Insn::FailArity { .. }
            | Insn::Bump { .. }
            | Insn::Guard { .. }
            | Insn::Branch { .. }
            | Insn::Jump { .. }
            | Insn::CheckNat { .. } => Vec::new(),
        }
    }

    /// The lambda blocks a reduce runs per element.
    fn lambda_blocks(kind: &ReduceKind) -> Vec<BlockId> {
        match kind {
            ReduceKind::Generic { app, acc } => vec![*app, *acc],
            ReduceKind::InsertApp { app }
            | ReduceKind::Filter { app, .. }
            | ReduceKind::BoolAcc { app, .. }
            | ReduceKind::Scan { app, .. } => vec![*app],
            ReduceKind::Quantifier { .. } | ReduceKind::Union | ReduceKind::Product { .. } => {
                Vec::new()
            }
        }
    }

    /// Checks every parking fold of `chunk`: the app block, and every
    /// lambda block of the folds nested in it (they run in the same
    /// frame), leaves the parked slots alone. Returns how many parking
    /// folds it checked.
    fn check_parking(label: &str, chunk: &Chunk) -> usize {
        let mut checked = 0;
        for block in chunk.blocks() {
            for insn in block.code() {
                let Insn::Reduce(r) = insn else { continue };
                let (app, protected) = match &r.kind {
                    // A join's kernel also writes the pair's components
                    // into the two slots after `extra`; slot `x` is unused.
                    ReduceKind::Filter {
                        app, join: Some(_), ..
                    } => (*app, vec![r.x_slot + 1, r.x_slot + 2, r.x_slot + 3]),
                    ReduceKind::Filter {
                        app, pair: Some(_), ..
                    } => (*app, vec![r.x_slot, r.x_slot + 1]),
                    ReduceKind::InsertApp { app }
                    | ReduceKind::Filter { app, .. }
                    | ReduceKind::BoolAcc { app, .. }
                    | ReduceKind::Scan { app, .. } => (*app, vec![r.x_slot + 1]),
                    _ => continue,
                };
                checked += 1;
                let mut pending = vec![app];
                while let Some(id) = pending.pop() {
                    for inner in chunk.block(id).code() {
                        let hit = clobbers(inner).into_iter().find(|c| protected.contains(c));
                        assert!(
                            hit.is_none(),
                            "{label}: block {id}, run by the {} fold at x=r{}, clobbers \
                             parked r{}: {}",
                            r.kind.label(),
                            r.x_slot,
                            hit.unwrap_or_default(),
                            render_insn(chunk, inner),
                        );
                        if let Insn::Reduce(nested) = inner {
                            pending.extend(lambda_blocks(&nested.kind));
                        }
                    }
                }
            }
        }
        checked
    }

    #[test]
    fn parked_extra_slots_are_never_moved_or_written() {
        use srl_bench::queries;
        use srl_stdlib::derived::*;

        let mut checked = 0;
        // Every committed example program.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/srl");
        let mut examples = 0;
        for entry in std::fs::read_dir(&dir).expect("examples/srl exists") {
            let path = entry.expect("readable entry").path();
            if path.extension().is_some_and(|e| e == "srl") {
                let text = std::fs::read_to_string(&path).expect("readable example");
                let program = crate::parse_program(&text).expect("examples parse");
                let c = program.compile();
                checked += check_parking(&path.display().to_string(), c.code());
                examples += 1;
            }
        }
        assert!(
            examples >= 6,
            "found {examples} examples in {}",
            dir.display()
        );
        // The E1–E4, E6 and E7 programs.
        let programs = [
            ("E1", srl_stdlib::agap::apath_program()),
            ("E2", srl_stdlib::blowup::powerset_program()),
            ("E3", srl_stdlib::arith::arithmetic_program()),
            ("E4", srl_stdlib::perm::perm_program()),
            ("E6 lrl", srl_stdlib::blowup::lrl_doubling_program()),
            (
                "E6 add",
                srl_stdlib::primrec_compile::compile(&machines::primrec::library::add())
                    .expect("add compiles")
                    .program,
            ),
            (
                "E7",
                srl_stdlib::tm_sim::compile(&machines::tm::library::even_parity()),
            ),
        ];
        for (label, program) in &programs {
            checked += check_parking(label, program.compile().code());
        }
        // The stdlib shapes and the E5, E8 and E9 queries, over free inputs.
        let pick = || lam("x", "e", leq(var("x"), var("e")));
        let queries = [
            ("E5 tc", queries::tc_query()),
            ("E5 dtc", queries::dtc_query()),
            ("E5 reach", queries::reach_query()),
            ("E5 pair reach", queries::pair_reach_query()),
            ("E8 even", srl_stdlib::hom::even(var("A"))),
            (
                "E8 purple",
                srl_stdlib::hom::purple_first(var("A"), var("B")),
            ),
            ("E9 join", queries::company_join()),
            ("E9 select", queries::employees_in_department(3)),
            ("E9 ids", queries::id_intersection()),
            ("product", queries::product_relation()),
            ("member", member(var("x"), var("A"))),
            ("union", union(var("A"), var("B"))),
            ("intersection", intersection(var("A"), var("B"))),
            ("difference", difference(var("A"), var("B"))),
            ("forsome", forsome(var("A"), pick(), var("x"))),
            ("forall", forall(var("A"), pick(), var("x"))),
            ("subset", subset(var("A"), var("B"))),
            ("set_eq", set_eq(var("A"), var("B"))),
            ("select", select(var("A"), pick(), var("x"))),
            ("map_set", map_set(var("A"), pick(), var("x"))),
            ("project", project(var("A"), 2)),
            ("cartesian", cartesian(var("A"), var("B"))),
            (
                "join",
                join(
                    var("A"),
                    var("B"),
                    pick(),
                    lam("a", "b", tuple([var("a"), var("b")])),
                ),
            ),
            // A join whose predicate hands back `b` in tail position.
            (
                "join on b",
                join(
                    var("A"),
                    var("B"),
                    lam("a", "b", var("b")),
                    lam("a", "b", tuple([var("a"), var("b")])),
                ),
            ),
            ("big_union", big_union(var("A"))),
            ("is_empty", is_empty(var("A"))),
            ("singleton", singleton(var("x"))),
            // Apps that return their `extra`, in tail position.
            (
                "map to extra",
                map_set(var("A"), lam("x", "e", var("e")), var("B")),
            ),
            (
                "forall extra",
                forall(var("A"), lam("x", "e", var("e")), var("x")),
            ),
            (
                "branch to extra",
                map_set(
                    var("A"),
                    lam(
                        "x",
                        "e",
                        if_(member(var("x"), var("e")), var("e"), empty_set()),
                    ),
                    var("B"),
                ),
            ),
        ];
        let scope = [
            "A", "B", "x", "D", "E", "K", "EMP", "DEPT", "IDS", "UNIV", "S", "P",
        ];
        let c = Program::new(srl_core::Dialect::full()).compile();
        for (label, expr) in &queries {
            let lowered = c.lower_expr(expr, &scope);
            checked += check_parking(label, lowered.code(&c));
        }
        // The select-shaped filters, the quantifiers and the maps above
        // all park: the walk really looked at app blocks.
        assert!(checked >= 30, "only {checked} parking folds checked");
    }

    #[test]
    fn select_shaped_filters_disassemble_without_their_pair() {
        use srl_stdlib::derived::select;
        let e = select(var("S"), lam("x", "e", leq(var("x"), var("e"))), var("k"));
        let text = disasm_expr(&e, &["S", "k"]);
        assert!(
            text.contains("keep-on-true flag=.2 value=.1 elided=[x, flag] read@1 tuple@0"),
            "{text}"
        );
        // The app block is the comparison alone, at the depth it had
        // inside the pair: no element copy, no tuple.
        let app = text
            .split("block 0 (result r8):\n")
            .nth(1)
            .and_then(|rest| rest.split("block 1").next())
            .unwrap_or_else(|| panic!("no app block 0:\n{text}"));
        assert_eq!(app, "    0  r8 <- slot r2 <= slot r3  @1\n", "{text}");
    }
}
