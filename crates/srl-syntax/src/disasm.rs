//! Disassembler for the bytecode VM's chunks (`srl_core::bytecode`).
//!
//! The second member of the printer family: [`crate::printer`] shows the
//! paper's surface notation, and this module shows what the **VM backend**
//! actually executes — register instructions with their static depth
//! offsets, the fused superinstructions a fold compiled to, and the block
//! structure of the reduce lambdas. Read it when auditing which folds fused (a `reduce`
//! line names its kind: `member`, `union/merge`, `product`, `insert-app`,
//! `filter`, `bool-acc`, `scan`, or `generic`) or when debugging codegen.
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

use srl_core::bytecode::{Block, Chunk, FoldOrigin, Insn, Operand, ReduceKind};
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
                ReduceKind::Member => "member [fused: binary search]".to_string(),
                ReduceKind::Union => "union [fused: SetMerge]".to_string(),
                ReduceKind::Product => "product [fused: one pass over A x B]".to_string(),
                ReduceKind::InsertApp { app } => format!("insert-app app=b{app}"),
                ReduceKind::Filter {
                    app,
                    keep_on_true,
                    cond_index,
                    value_index,
                } => format!(
                    "filter app=b{app} keep-on-{keep_on_true} flag=.{cond_index} value=.{value_index}"
                ),
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
            format!(
                "r{} <- {}reduce[{kind}] class={}{origin} cost={} set=r{} base=r{} extra=r{} x=r{}  @{}",
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
}
