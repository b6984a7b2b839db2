//! # srl-syntax — a concrete syntax for SRL
//!
//! The textual front end of the reproduction: a pretty-printer that renders
//! [`srl_core::Expr`] / [`srl_core::Program`] values in the paper's notation,
//! and a span-carrying lexer + recursive-descent parser ([`parser`]) that
//! reads the same notation back, so `parse_program(print_program(p))` is
//! structurally equal to `p` for every program in the repository.
//!
//! Also here: a [`disasm`] printer for the bytecode chunks the VM backend
//! runs (what `srl disasm` prints), and the [`frontend`] glue that feeds
//! parsed text into the staged [`srl_core::pipeline::Pipeline`] (the path
//! the `srl` CLI drives).
//!
//! ## Grammar
//!
//! The surface syntax, in EBNF (terminals quoted; `//` starts a line
//! comment, whitespace is free-form):
//!
//! ```text
//! program   ::= def*
//! def       ::= name "(" [ name { "," name } ] ")" "=" expr
//!
//! expr      ::= primary { "." natural }          (* 1-based selectors *)
//! primary   ::= "true" | "false"
//!             | "emptyset" | "emptylist"
//!             | natural                          (* ℕ constant *)
//!             | atom                             (* d7 or alice#5 *)
//!             | name [ "(" [ expr { "," expr } ] ")" ]   (* var / call *)
//!             | "if" expr "then" expr "else" expr
//!             | "let" name "=" expr "in" expr
//!             | "[" [ expr { "," expr } ] "]"    (* tuple *)
//!             | "{" [ value { "," value } ] "}"  (* set constant *)
//!             | "<" [ value { "," value } ] ">"  (* list constant *)
//!             | "(" expr [ binop expr ] ")"      (* binary op / grouping *)
//!             | head1 "(" expr ")"
//!             | head2 "(" expr "," expr ")"
//!             | reduce "(" expr "," lambda "," lambda "," expr "," expr ")"
//! lambda    ::= "lambda" "(" name "," name ")" expr
//!
//! binop     ::= "=" | "<=" | "+" | "*"
//! head1     ::= "choose" | "rest" | "new" | "succ" | "head" | "tail"
//! head2     ::= "insert" | "cons"
//! reduce    ::= "set-reduce" | "list-reduce"
//!
//! value     ::= "true" | "false" | natural | atom
//!             | "[" [ value { "," value } ] "]"  (* tuple *)
//!             | "{" [ value { "," value } ] "}"  (* set *)
//!             | "<" [ value { "," value } ] ">"  (* list *)
//!
//! name      ::= letter-or-"_" { letter | digit | "_" | "-" }   (* not a keyword *)
//! atom      ::= "d" digits | name "#" digits
//! natural   ::= digits
//! ```
//!
//! Binary operators appear only parenthesised (exactly as the printer emits
//! them), so the grammar needs no precedence levels; `if`/`let` extend as
//! far right as possible, terminated by keywords or the enclosing
//! delimiter. Every token and AST-producing construct carries a byte
//! [`span::Span`]; parse failures are structured [`parser::ParseError`]
//! values whose [`parser::Diagnostic`] rendering shows a caret-underlined
//! excerpt.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disasm;
pub mod frontend;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod span;
pub mod token;

pub use disasm::{disasm_lowered, disasm_program};
pub use frontend::{FrontendError, TextFrontend};
pub use parser::{
    parse_expr, parse_lambda, parse_program, parse_program_in, parse_value, Diagnostic, ParseError,
    ParseErrorKind,
};
pub use printer::{print_expr, print_lambda, print_program};
pub use span::Span;
pub use token::{Token, TokenKind};
