//! Seeded inputs and their expected answers.
//!
//! Every generated value of a run derives from the workload seed: atom
//! names, graph labellings, the company database, argument choices and the
//! order of the request mix. The *shape* of each input (graph structure,
//! set sizes) is fixed per query family, so a different seed changes the
//! data but not the amount of work, and runs with different seeds stay
//! comparable. Expected answers come from the native baselines in the
//! `workloads` and `machines` crates, never from the engine under test.

use std::collections::BTreeSet;

use machines::tm::library::{even_parity, SYM_A, SYM_B};
use srl_core::api::{self, Json};
use srl_core::dsl::{eq, lam, sel, tuple, var};
use srl_core::Value;
use srl_stdlib::derived::join;
use srl_stdlib::tc::{deterministic_transitive_closure, transitive_closure};
use srl_stdlib::tm_sim;
use srl_syntax::{print_expr, print_program};
use workloads::altgraph::AlternatingGraph;
use workloads::digraph::Digraph;
use workloads::tables::CompanyDatabase;

pub const POWERSET_SRL: &str = include_str!("../../examples/srl/powerset.srl");
pub const ARITH_SRL: &str = include_str!("../../examples/srl/arith.srl");
pub const MEMBERSHIP_SRL: &str = include_str!("../../examples/srl/membership.srl");
pub const APATH_SRL: &str = include_str!("../../examples/srl/apath.srl");
pub const POWERSET_ANALYSIS: &str =
    include_str!("../../examples/srl/analysis/powerset.analyze.json");
pub const APATH_ANALYSIS: &str = include_str!("../../examples/srl/analysis/apath.analyze.json");
pub const ARITH_ANALYSIS: &str = include_str!("../../examples/srl/analysis/arith.analyze.json");

/// SplitMix64: a small fixed generator, so inputs depend on the seed alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }

    /// `count` distinct atom indices below `bound`.
    pub fn distinct(&mut self, count: usize, bound: u64) -> Vec<u64> {
        let mut all: Vec<u64> = (0..bound).collect();
        self.shuffle(&mut all);
        all.truncate(count);
        all
    }
}

/// The E-experiment families the per-family metrics are named after.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Family {
    E1,
    E2,
    E3,
    E5,
    E7,
    E9,
}

impl Family {
    pub const ALL: [Family; 6] = [
        Family::E1,
        Family::E2,
        Family::E3,
        Family::E5,
        Family::E7,
        Family::E9,
    ];

    /// The end-to-end metric holding this family's median time per query.
    pub fn metric(self) -> &'static str {
        match self {
            Family::E1 => "e1_apath_ms",
            Family::E2 => "e2_powerset_ms",
            Family::E3 => "e3_arith_ms",
            Family::E5 => "e5_tc_dtc_ms",
            Family::E7 => "e7_tm_ms",
            Family::E9 => "e9_join_ms",
        }
    }
}

/// What a correct result looks like.
#[derive(Clone, Debug)]
pub enum Expect {
    /// Exactly this value.
    Value(Value),
    /// The powerset of this atom set: 2^n distinct subsets of it.
    Powerset(BTreeSet<u64>),
    /// A pair relation over atoms, as a set of index pairs.
    Pairs(BTreeSet<(u64, u64)>),
    /// A set of atoms.
    Atoms(BTreeSet<u64>),
    /// A tuple whose components meet these expectations.
    Tuple(Vec<Expect>),
}

impl Expect {
    pub fn holds(&self, value: &Value) -> bool {
        match self {
            Expect::Value(expected) => value == expected,
            Expect::Powerset(base) => powerset_of(value, base),
            Expect::Pairs(expected) => pairs(value).as_ref() == Some(expected),
            Expect::Atoms(expected) => atoms(value).as_ref() == Some(expected),
            Expect::Tuple(parts) => value.as_tuple().is_some_and(|items| {
                items.len() == parts.len() && items.iter().zip(parts).all(|(v, e)| e.holds(v))
            }),
        }
    }
}

fn atoms(value: &Value) -> Option<BTreeSet<u64>> {
    value
        .as_set()?
        .iter()
        .map(|a| a.as_atom().map(|a| a.index))
        .collect()
}

fn pairs(value: &Value) -> Option<BTreeSet<(u64, u64)>> {
    value
        .as_set()?
        .iter()
        .map(|t| match t.as_tuple()? {
            [a, b] => Some((a.as_atom()?.index, b.as_atom()?.index)),
            _ => None,
        })
        .collect()
}

fn powerset_of(value: &Value, base: &BTreeSet<u64>) -> bool {
    let Some(subsets) = value.as_set() else {
        return false;
    };
    // Elements of a set value are distinct, so 2^n subsets of the base are
    // exactly its powerset.
    subsets.len() == 1 << base.len()
        && subsets
            .iter()
            .all(|s| atoms(&s).is_some_and(|s| s.is_subset(base)))
}

fn pair_set(rel: &[Vec<bool>]) -> BTreeSet<(u64, u64)> {
    let mut out = BTreeSet::new();
    for (u, row) in rel.iter().enumerate() {
        for (v, &holds) in row.iter().enumerate() {
            if holds {
                out.insert((u as u64, v as u64));
            }
        }
    }
    out
}

fn atom_set(indices: impl IntoIterator<Item = u64>) -> Value {
    Value::set(indices.into_iter().map(Value::atom))
}

/// One evaluation: a program text, the definition to call, its arguments
/// and the expected answer.
#[derive(Clone, Debug)]
pub struct Query {
    pub family: Family,
    pub label: &'static str,
    pub program: String,
    pub call: &'static str,
    pub args: Vec<Value>,
    pub expect: Expect,
}

/// An expression evaluated against bound inputs, with the expected answer.
#[derive(Clone, Debug)]
pub struct ExprQuery {
    pub family: Family,
    pub label: &'static str,
    pub expr: String,
    pub expect: Expect,
}

/// Inputs a bare expression reads, bound by name.
pub type Bindings = Vec<(&'static str, Value)>;

fn tc_text() -> String {
    print_expr(&transitive_closure(var("D"), var("E")))
}

fn dtc_text() -> String {
    print_expr(&deterministic_transitive_closure(var("D"), var("E")))
}

/// `tc(D, E)`, `dtc(D, E)` and `tc_dtc(D, E) = [tc, dtc]` as program text,
/// printed from the stdlib constructions.
pub fn tc_program() -> String {
    format!(
        "tc(D, E) =\n  {}\n\ndtc(D, E) =\n  {}\n\ntc_dtc(D, E) =\n  [tc(D, E), dtc(D, E)]\n",
        tc_text(),
        dtc_text()
    )
}

/// The compiled even-parity Turing machine of E7 as program text.
pub fn tm_program() -> String {
    print_program(&tm_sim::compile(&even_parity()))
}

/// Seeded atom names for the vertices `0..n` that keep their order: `n`
/// sorted distinct indices below `2n`. The graph queries scan sets in atom
/// order, so a renaming that keeps the order changes the data a seed
/// produces but not the work the engine does on it.
fn vertex_names(n: usize, rng: &mut Rng) -> Vec<u64> {
    let mut names = rng.distinct(n, 2 * n as u64);
    names.sort_unstable();
    names
}

fn edge_set(edges: &[(usize, usize)], names: &[u64]) -> Value {
    Value::set(
        edges
            .iter()
            .map(|&(u, v)| Value::tuple([Value::atom(names[u]), Value::atom(names[v])])),
    )
}

/// A relation over vertex numbers, renamed to atom pairs.
fn renamed_pairs(rel: &[Vec<bool>], names: &[u64]) -> BTreeSet<(u64, u64)> {
    pair_set(rel)
        .into_iter()
        .map(|(u, v)| (names[u as usize], names[v as usize]))
        .collect()
}

/// A digraph of fixed shape (the generator at a fixed seed) with seeded
/// vertex names: its vertex set, edge set, closure and deterministic
/// closure.
fn digraph(n: usize, rng: &mut Rng) -> (Value, Value, Expect, Expect) {
    let g = Digraph::random(n, 2.0 / n as f64, 23 + n as u64);
    let names = vertex_names(n, rng);
    (
        atom_set(names.iter().copied()),
        edge_set(&g.edges, &names),
        Expect::Pairs(renamed_pairs(&g.transitive_closure(), &names)),
        Expect::Pairs(renamed_pairs(&g.deterministic_transitive_closure(), &names)),
    )
}

/// E1: all alternating paths of a random alternating graph of fixed shape
/// with seeded vertex names.
pub fn apath(n: usize, rng: &mut Rng) -> Query {
    let g = AlternatingGraph::random(n, 0.25, 7 + n as u64);
    let names = vertex_names(n, rng);
    let ands = (0..n).filter(|&v| g.universal[v]).map(|v| names[v]);
    Query {
        family: Family::E1,
        label: "e1_apath",
        program: APATH_SRL.to_string(),
        call: "apath",
        args: vec![
            atom_set(names.iter().copied()),
            edge_set(&g.edges, &names),
            atom_set(ands),
        ],
        expect: Expect::Pairs(renamed_pairs(&g.apath_all(), &names)),
    }
}

/// E1 (served form): membership of an atom in a set.
pub fn membership(n: usize, rng: &mut Rng) -> Query {
    let s = rng.distinct(n + 1, 8 * n as u64);
    let t = if rng.below(2) == 0 { s[0] } else { s[n] };
    Query {
        family: Family::E1,
        label: "e1_member",
        program: MEMBERSHIP_SRL.to_string(),
        call: "member",
        args: vec![atom_set(s[..n].iter().copied()), Value::atom(t)],
        expect: Expect::Value(Value::bool(t != s[n])),
    }
}

/// E2: the powerset of `n` atoms.
pub fn powerset(n: usize, rng: &mut Rng) -> Query {
    let base: BTreeSet<u64> = rng.distinct(n, 8 * n as u64).into_iter().collect();
    Query {
        family: Family::E2,
        label: "e2_powerset",
        program: POWERSET_SRL.to_string(),
        call: "powerset",
        args: vec![atom_set(base.iter().copied())],
        expect: Expect::Powerset(base),
    }
}

/// E3: BASRL addition over the ordered domain `0..n`.
pub fn add(n: u64, rng: &mut Rng) -> Query {
    let b = n / 4;
    let a = 1 + rng.below(n / 2);
    Query {
        family: Family::E3,
        label: "e3_add",
        program: ARITH_SRL.to_string(),
        call: "add",
        args: vec![atom_set(0..n), Value::atom(a), Value::atom(b)],
        expect: Expect::Value(Value::atom(a + b)),
    }
}

/// E5 (served form): TC and DTC of a digraph as one call.
pub fn closure(n: usize, rng: &mut Rng) -> Query {
    let (nodes, edges, tc, dtc) = digraph(n, rng);
    Query {
        family: Family::E5,
        label: "e5_tc_dtc",
        program: tc_program(),
        call: "tc_dtc",
        args: vec![nodes, edges],
        expect: Expect::Tuple(vec![tc, dtc]),
    }
}

/// E5: TC and DTC of a digraph bound as `D` and `E`.
pub fn closure_exprs(n: usize, rng: &mut Rng) -> (Bindings, [ExprQuery; 2]) {
    let (nodes, edges, tc, dtc) = digraph(n, rng);
    let queries = [
        ExprQuery {
            family: Family::E5,
            label: "e5_tc",
            expr: tc_text(),
            expect: tc,
        },
        ExprQuery {
            family: Family::E5,
            label: "e5_dtc",
            expr: dtc_text(),
            expect: dtc,
        },
    ];
    (vec![("D", nodes), ("E", edges)], queries)
}

/// E7: the compiled even-parity machine on a seeded input word.
pub fn tm(len: usize, rng: &mut Rng) -> Query {
    let input: Vec<u8> = (0..len)
        .map(|_| if rng.below(2) == 0 { SYM_A } else { SYM_B })
        .collect();
    let accepts = even_parity().accepts(&input, 100_000);
    Query {
        family: Family::E7,
        label: "e7_tm",
        program: tm_program(),
        call: "accepts",
        args: vec![tm_sim::position_domain(len), tm_sim::encode_input(&input)],
        expect: Expect::Value(Value::bool(accepts)),
    }
}

/// E9: the employee/manager join over a seeded company database bound as
/// `EMP` and `DEPT`.
pub fn company_join(employees: usize, seed: u64) -> (Bindings, ExprQuery) {
    let db = CompanyDatabase::generate(employees, (employees / 4).max(1), 4, seed);
    let expr = print_expr(&join(
        var("EMP"),
        var("DEPT"),
        lam("e", "d", eq(sel(var("e"), 2), sel(var("d"), 1))),
        lam("e", "d", tuple([sel(var("e"), 1), sel(var("d"), 2)])),
    ));
    let query = ExprQuery {
        family: Family::E9,
        label: "e9_join",
        expr,
        expect: Expect::Pairs(db.employee_manager_join().into_iter().collect()),
    };
    (
        vec![
            ("EMP", db.employees_value()),
            ("DEPT", db.departments_value()),
        ],
        query,
    )
}

/// E9 (served form): the relation `S` the projection reads, pairing
/// `d0..d{n-1}` with a seeded permutation of `d{n}..d{2n-1}`, and the
/// expected projection onto the second component.
pub fn projection_relation(n: usize, rng: &mut Rng) -> (Value, Expect) {
    let p = rng.permutation(n);
    let rel = Value::set(
        (0..n).map(|i| Value::tuple([Value::atom(i as u64), Value::atom((n + p[i]) as u64)])),
    );
    let expect = Expect::Atoms((n as u64..2 * n as u64).collect());
    (rel, expect)
}

fn literals(values: &[Value]) -> String {
    values
        .iter()
        .map(|v| format!("\"{}\"", api::escape(&v.to_string())))
        .collect::<Vec<_>>()
        .join(", ")
}

/// A `run` request line calling `call` of `program` on `args`.
pub fn run_line(tenant: &str, program: &str, call: &str, args: &[Value]) -> String {
    format!(
        "{{\"v\": 1, \"kind\": \"run\", \"tenant\": \"{tenant}\", \"program\": \"{}\", \"call\": \"{call}\", \"args\": [{}]}}",
        api::escape(program),
        literals(args)
    )
}

/// A `run` request line evaluating a bare expression over the tenant's
/// bindings.
pub fn expr_line(tenant: &str, expr: &str) -> String {
    format!(
        "{{\"v\": 1, \"kind\": \"run\", \"tenant\": \"{tenant}\", \"expr\": \"{}\"}}",
        api::escape(expr)
    )
}

/// An `analyze` or `check` request line.
pub fn program_line(kind: &str, tenant: &str, program: &str) -> String {
    format!(
        "{{\"v\": 1, \"kind\": \"{kind}\", \"tenant\": \"{tenant}\", \"program\": \"{}\"}}",
        api::escape(program)
    )
}

/// A `bind` request line binding `name` to the value literal `value`.
pub fn bind_line(tenant: &str, name: &str, value: &str) -> String {
    format!(
        "{{\"v\": 1, \"kind\": \"bind\", \"tenant\": \"{tenant}\", \"name\": \"{name}\", \"value\": \"{}\"}}",
        api::escape(value)
    )
}

/// Definition names appended to make a program text unique.
pub fn is_tag(def: &str) -> bool {
    def.starts_with("cold_") || def.starts_with("warm_")
}

/// The `definitions` rows of an analyze report, less unique-making ones.
fn original_defs(defs: &Json) -> Vec<Json> {
    defs.as_array()
        .unwrap_or_default()
        .iter()
        .filter(|row| !row.get("def").and_then(Json::as_str).is_some_and(is_tag))
        .cloned()
        .collect()
}

/// Whether the fields of an analyze response report the same fragment,
/// definitions and per-fold verdicts as a committed golden report.
pub fn analysis_matches(fields: &[(String, Json)], golden: &str) -> bool {
    let golden = Json::parse(golden).expect("golden analysis is JSON");
    let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    get("fragment") == golden.get("fragment")
        && get("folds") == golden.get("folds")
        && get("definitions").map(original_defs) == golden.get("definitions").map(original_defs)
}

/// Whether the fields of a `check` response name the definitions and the
/// fragment of a committed golden analysis report.
pub fn check_matches(fields: &[(String, Json)], golden: &str) -> bool {
    let golden = Json::parse(golden).expect("golden analysis is JSON");
    let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let names: Option<Vec<&str>> = get("definitions").and_then(Json::as_array).map(|defs| {
        defs.iter()
            .filter_map(Json::as_str)
            .filter(|d| !is_tag(d))
            .collect()
    });
    let golden_names: Option<Vec<&str>> =
        golden
            .get("definitions")
            .and_then(Json::as_array)
            .map(|rows| {
                rows.iter()
                    .filter_map(|row| row.get("def").and_then(Json::as_str))
                    .collect()
            });
    get("ok").and_then(Json::as_bool) == Some(true)
        && get("fragment") == golden.get("fragment")
        && names.is_some()
        && names == golden_names
}
