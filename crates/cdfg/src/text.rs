//! A plain-text CDFG interchange format with parser and serializer.
//!
//! The format is line-oriented; `#` starts a comment. Example:
//!
//! ```text
//! cdfg iir1
//! input x
//! state yprev
//! const k = 13
//! op scaled = mul yprev k
//! op y = add x scaled
//! feedback yprev <- y
//! output y
//! ```
//!
//! Memory arrays are declared with `array <name> <len>` (optionally
//! `array <name> <len> = w0 w1 ...` for initial contents) and accessed
//! with `op <out> = load <array> <addr>` and
//! `op <token> = store <array> <addr> <data>`.
//!
//! Names are the labels shown in reports; operations may reference any
//! name declared earlier (the format is topologically ordered, like the
//! builder API it maps onto).

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

use crate::{ArrayId, Cdfg, CdfgBuilder, OpKind, ValueId, ValueSource};

/// The category of a parse failure — structured enough for a serving
/// front end to map hostile input onto a machine-readable error payload
/// without scraping the message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Malformed line shape (wrong token count, bad literal, misplaced or
    /// missing `cdfg` header).
    Syntax,
    /// The line starts with a directive the format does not define.
    UnknownDirective,
    /// An `op` line names an operation kind outside
    /// `add|sub|mul|lt|load|store`.
    UnknownOpKind,
    /// A reference to an array name that was never declared.
    UnknownArray,
    /// A reference to a value name that was never declared (dangling
    /// operand, feedback or output reference).
    UnknownValue,
    /// A name declared twice.
    DuplicateDefinition,
    /// The lines parsed individually but the assembled graph is invalid
    /// (cycles, dead values, unclosed feedback).
    InvalidGraph,
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ParseErrorKind::Syntax => "syntax",
            ParseErrorKind::UnknownDirective => "unknown-directive",
            ParseErrorKind::UnknownOpKind => "unknown-op-kind",
            ParseErrorKind::UnknownValue => "unknown-value",
            ParseErrorKind::UnknownArray => "unknown-array",
            ParseErrorKind::DuplicateDefinition => "duplicate-definition",
            ParseErrorKind::InvalidGraph => "invalid-graph",
        })
    }
}

/// A parse failure, with 1-based line/column context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending text (0 for whole-input problems:
    /// empty input, graph-level validation).
    pub line: usize,
    /// 1-based byte column of the offending token within its line (0 when
    /// no single token is at fault).
    pub column: usize,
    /// The failure category.
    pub kind: ParseErrorKind,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.line, self.column) {
            (0, _) => write!(f, "{}", self.message),
            (line, 0) => write!(f, "line {line}: {}", self.message),
            (line, column) => write!(f, "line {line}, column {column}: {}", self.message),
        }
    }
}

impl Error for ParseError {}

fn err(
    line: usize,
    column: usize,
    kind: ParseErrorKind,
    message: impl Into<String>,
) -> ParseError {
    ParseError { line, column, kind, message: message.into() }
}

/// Splits a comment-stripped line into `(1-based byte column, token)`
/// pairs, so errors can point at the offending token.
fn tokenize(line: &str) -> Vec<(usize, &str)> {
    let mut tokens = Vec::new();
    let mut start = None;
    for (i, c) in line.char_indices() {
        if c.is_whitespace() {
            if let Some(s) = start.take() {
                tokens.push((s + 1, &line[s..i]));
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        tokens.push((s + 1, &line[s..]));
    }
    tokens
}

/// Parses the text format into a validated graph.
///
/// ```
/// let graph = salsa_cdfg::parse_cdfg("\
/// cdfg scale
/// input x
/// const k = 3
/// op y = mul x k
/// output y
/// ")?;
/// assert_eq!(graph.num_ops(), 1);
/// # Ok::<(), salsa_cdfg::ParseError>(())
/// ```
///
/// # Errors
///
/// Returns a [`ParseError`] carrying the offending line, the byte column
/// of the faulty token and a [`ParseErrorKind`] on any syntax or semantic
/// problem (unknown names, duplicate definitions, invalid graphs) — the
/// parser never panics or aborts on malformed input, however hostile.
pub fn parse_cdfg(source: &str) -> Result<Cdfg, ParseError> {
    use ParseErrorKind as K;

    /// A deferred `feedback` line: the line number plus the
    /// (column, name) of the state and source tokens, resolved after
    /// every op has been seen.
    type PendingFeedback = (usize, (usize, String), (usize, String));

    let mut builder: Option<CdfgBuilder> = None;
    let mut names: HashMap<String, ValueId> = HashMap::new();
    let mut arrays: HashMap<String, ArrayId> = HashMap::new();
    let mut states: HashMap<String, ValueId> = HashMap::new();
    let mut outputs: Vec<(usize, usize, String, String)> = Vec::new();
    let mut feedbacks: Vec<PendingFeedback> = Vec::new();

    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("");
        let tokens = tokenize(line);
        let Some(&(col0, tok0)) = tokens.first() else { continue };
        let b = match tok0 {
            "cdfg" => {
                if builder.is_some() {
                    return Err(err(line_no, col0, K::Syntax, "duplicate 'cdfg' header"));
                }
                let (_, name) = *tokens
                    .get(1)
                    .ok_or_else(|| err(line_no, col0, K::Syntax, "cdfg needs a name"))?;
                builder = Some(CdfgBuilder::new(name));
                continue;
            }
            _ => builder.as_mut().ok_or_else(|| {
                err(line_no, col0, K::Syntax, "file must start with 'cdfg <name>'")
            })?,
        };
        let define = |(col, name): (usize, &str),
                      id: ValueId,
                      names: &mut HashMap<String, ValueId>|
         -> Result<(), ParseError> {
            if names.insert(name.to_string(), id).is_some() {
                return Err(err(
                    line_no,
                    col,
                    K::DuplicateDefinition,
                    format!("'{name}' defined twice"),
                ));
            }
            Ok(())
        };
        match tok0 {
            "input" => {
                let (col, name) = *tokens
                    .get(1)
                    .ok_or_else(|| err(line_no, col0, K::Syntax, "input needs a name"))?;
                let id = b.input(name);
                define((col, name), id, &mut names)?;
            }
            "state" => {
                let (col, name) = *tokens
                    .get(1)
                    .ok_or_else(|| err(line_no, col0, K::Syntax, "state needs a name"))?;
                let id = b.state(name);
                define((col, name), id, &mut names)?;
                states.insert(name.to_string(), id);
            }
            "const" => {
                // const <name> = <value>
                if tokens.len() != 4 || tokens[2].1 != "=" {
                    return Err(err(
                        line_no,
                        col0,
                        K::Syntax,
                        "expected 'const <name> = <integer>'",
                    ));
                }
                let value: i64 = tokens[3].1.parse().map_err(|_| {
                    err(
                        line_no,
                        tokens[3].0,
                        K::Syntax,
                        format!("'{}' is not an integer", tokens[3].1),
                    )
                })?;
                let id = b.constant(value);
                b.relabel(id, tokens[1].1);
                define(tokens[1], id, &mut names)?;
            }
            "array" => {
                // array <name> <len> [= w0 w1 ...]
                if tokens.len() < 3 || (tokens.len() > 3 && tokens[3].1 != "=") {
                    return Err(err(
                        line_no,
                        col0,
                        K::Syntax,
                        "expected 'array <name> <len> [= <w0> <w1> ...]'",
                    ));
                }
                let len: usize = tokens[2].1.parse().map_err(|_| {
                    err(
                        line_no,
                        tokens[2].0,
                        K::Syntax,
                        format!("'{}' is not a length", tokens[2].1),
                    )
                })?;
                let mut init = Vec::new();
                for &(col, word) in tokens.iter().skip(4) {
                    init.push(word.parse::<i64>().map_err(|_| {
                        err(line_no, col, K::Syntax, format!("'{word}' is not an integer"))
                    })?);
                }
                let id = b.array_init(tokens[1].1, len, init);
                if arrays.insert(tokens[1].1.to_string(), id).is_some() {
                    return Err(err(
                        line_no,
                        tokens[1].0,
                        K::DuplicateDefinition,
                        format!("array '{}' defined twice", tokens[1].1),
                    ));
                }
            }
            "op" => {
                // op <name> = <kind> <left> <right>
                // op <name> = load <array> <addr>
                // op <name> = store <array> <addr> <data>
                if tokens.len() < 4 || tokens[2].1 != "=" {
                    return Err(err(
                        line_no,
                        col0,
                        K::Syntax,
                        "expected 'op <name> = <kind> <operands...>'",
                    ));
                }
                let resolve = |(col, t): (usize, &str)| {
                    names.get(t).copied().ok_or_else(|| {
                        err(line_no, col, K::UnknownValue, format!("unknown value '{t}'"))
                    })
                };
                let resolve_array = |(col, t): (usize, &str)| {
                    arrays.get(t).copied().ok_or_else(|| {
                        err(line_no, col, K::UnknownArray, format!("unknown array '{t}'"))
                    })
                };
                let id = match tokens[3].1 {
                    "load" => {
                        if tokens.len() != 6 {
                            return Err(err(
                                line_no,
                                col0,
                                K::Syntax,
                                "expected 'op <name> = load <array> <addr>'",
                            ));
                        }
                        let array = resolve_array(tokens[4])?;
                        let addr = resolve(tokens[5])?;
                        b.load_labeled(array, addr, tokens[1].1)
                    }
                    "store" => {
                        if tokens.len() != 7 {
                            return Err(err(
                                line_no,
                                col0,
                                K::Syntax,
                                "expected 'op <name> = store <array> <addr> <data>'",
                            ));
                        }
                        let array = resolve_array(tokens[4])?;
                        let (addr, data) = (resolve(tokens[5])?, resolve(tokens[6])?);
                        b.store_labeled(array, addr, data, tokens[1].1)
                    }
                    kind_tok => {
                        let kind = match kind_tok {
                            "add" => OpKind::Add,
                            "sub" => OpKind::Sub,
                            "mul" => OpKind::Mul,
                            "lt" => OpKind::Lt,
                            other => {
                                return Err(err(
                                    line_no,
                                    tokens[3].0,
                                    K::UnknownOpKind,
                                    format!("unknown operation kind '{other}'"),
                                ))
                            }
                        };
                        if tokens.len() != 6 {
                            return Err(err(
                                line_no,
                                col0,
                                K::Syntax,
                                "expected 'op <name> = <kind> <left> <right>'",
                            ));
                        }
                        let (left, right) = (resolve(tokens[4])?, resolve(tokens[5])?);
                        b.op_labeled(kind, left, right, tokens[1].1)
                    }
                };
                define(tokens[1], id, &mut names)?;
            }
            "feedback" => {
                // feedback <state> <- <value>
                if tokens.len() != 4 || tokens[2].1 != "<-" {
                    return Err(err(
                        line_no,
                        col0,
                        K::Syntax,
                        "expected 'feedback <state> <- <value>'",
                    ));
                }
                feedbacks.push((
                    line_no,
                    (tokens[1].0, tokens[1].1.to_string()),
                    (tokens[3].0, tokens[3].1.to_string()),
                ));
            }
            "output" => {
                // output <value> [as <name>]
                let (col, value) = *tokens
                    .get(1)
                    .ok_or_else(|| err(line_no, col0, K::Syntax, "output needs a value"))?;
                let label = match (tokens.get(2), tokens.get(3)) {
                    (Some(&(_, "as")), Some(&(_, alias))) => alias.to_string(),
                    (None, None) => value.to_string(),
                    _ => {
                        return Err(err(
                            line_no,
                            col0,
                            K::Syntax,
                            "expected 'output <value> [as <name>]'",
                        ))
                    }
                };
                outputs.push((line_no, col, value.to_string(), label));
            }
            other => {
                return Err(err(
                    line_no,
                    col0,
                    K::UnknownDirective,
                    format!("unknown directive '{other}'"),
                ))
            }
        }
    }

    let mut b = builder
        .ok_or_else(|| err(0, 0, K::Syntax, "empty input: missing 'cdfg <name>'"))?;
    let mut fed: HashSet<ValueId> = HashSet::new();
    for (line_no, (state_col, state), (from_col, from)) in feedbacks {
        let &sid = states.get(&state).ok_or_else(|| {
            err(line_no, state_col, K::UnknownValue, format!("'{state}' is not a state"))
        })?;
        if !fed.insert(sid) {
            return Err(err(
                line_no,
                state_col,
                K::DuplicateDefinition,
                format!("state '{state}' already has a feedback source"),
            ));
        }
        let &vid = names.get(&from).ok_or_else(|| {
            err(line_no, from_col, K::UnknownValue, format!("unknown value '{from}'"))
        })?;
        b.feedback(sid, vid);
    }
    for (line_no, col, value, label) in outputs {
        let &vid = names.get(&value).ok_or_else(|| {
            err(line_no, col, K::UnknownValue, format!("unknown value '{value}'"))
        })?;
        b.mark_output(vid, label);
    }
    b.finish().map_err(|e| err(0, 0, K::InvalidGraph, e.to_string()))
}

/// Serializes a graph back to the text format (labels become names; a
/// parse of the output reproduces an isomorphic graph).
pub fn cdfg_to_text(graph: &Cdfg) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    // Canonical names: sanitized labels, disambiguated with the value id
    // only on collision — so serialize(parse(serialize(g))) is a fixpoint.
    let mut taken: HashSet<String> = HashSet::new();
    let mut names: HashMap<ValueId, String> = HashMap::new();
    for value in graph.values() {
        let mut n: String = value
            .label()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' })
            .collect();
        if n.is_empty() || n.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            n = format!("v{}", value.id().index());
        }
        if !taken.insert(n.clone()) {
            n = format!("{n}_{}", value.id().index());
            taken.insert(n.clone());
        }
        names.insert(value.id(), n);
    }
    let name_of = |v: ValueId| -> String { names[&v].clone() };
    // Array names live in their own namespace (references are positional).
    let mut array_taken: HashSet<String> = HashSet::new();
    let mut array_names: HashMap<ArrayId, String> = HashMap::new();
    for array in graph.arrays() {
        let mut n: String = array
            .label()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' })
            .collect();
        if n.is_empty() || n.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            n = format!("a{}", array.id().index());
        }
        if !array_taken.insert(n.clone()) {
            n = format!("{n}_{}", array.id().index());
            array_taken.insert(n.clone());
        }
        array_names.insert(array.id(), n);
    }
    // A load's unused right port is tied to a placeholder constant the
    // parser regenerates; such constants are omitted from the listing.
    let hidden: HashSet<ValueId> = graph
        .values()
        .filter(|v| {
            v.is_const()
                && !v.uses().is_empty()
                && v.uses().iter().all(|u| {
                    u.port == 1 && graph.op(u.op).kind() == OpKind::Load
                })
        })
        .map(|v| v.id())
        .collect();
    let _ = writeln!(out, "cdfg {}", graph.name());
    for value in graph.values() {
        match value.source() {
            ValueSource::Input if value.is_state() => {
                let _ = writeln!(out, "state {}", name_of(value.id()));
            }
            ValueSource::Input => {
                let _ = writeln!(out, "input {}", name_of(value.id()));
            }
            ValueSource::Const(c) => {
                if !hidden.contains(&value.id()) {
                    let _ = writeln!(out, "const {} = {}", name_of(value.id()), c);
                }
            }
            ValueSource::Op(_) => {}
        }
    }
    for array in graph.arrays() {
        let _ = write!(out, "array {} {}", array_names[&array.id()], array.len());
        if !array.init().is_empty() {
            let _ = write!(out, " =");
            for w in array.init() {
                let _ = write!(out, " {w}");
            }
        }
        let _ = writeln!(out);
    }
    for op in graph.ops() {
        match op.kind() {
            OpKind::Load => {
                let _ = writeln!(
                    out,
                    "op {} = load {} {}",
                    name_of(op.output()),
                    array_names[&op.array().expect("loads carry an array")],
                    name_of(op.input(0))
                );
                continue;
            }
            OpKind::Store => {
                let _ = writeln!(
                    out,
                    "op {} = store {} {} {}",
                    name_of(op.output()),
                    array_names[&op.array().expect("stores carry an array")],
                    name_of(op.input(0)),
                    name_of(op.input(1))
                );
                continue;
            }
            _ => {}
        }
        let kind = match op.kind() {
            OpKind::Add => "add",
            OpKind::Sub => "sub",
            OpKind::Mul => "mul",
            OpKind::Lt => "lt",
            OpKind::Load | OpKind::Store => unreachable!("handled above"),
        };
        let _ = writeln!(
            out,
            "op {} = {kind} {} {}",
            name_of(op.output()),
            name_of(op.input(0)),
            name_of(op.input(1))
        );
    }
    for (src, state) in graph.feedback_sources() {
        let _ = writeln!(out, "feedback {} <- {}", name_of(state), name_of(src));
    }
    for value in graph.values().filter(|v| v.is_output()) {
        let _ = writeln!(out, "output {}", name_of(value.id()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const IIR: &str = "\
# first-order IIR
cdfg iir1
input x
state yprev
const k = 13
op scaled = mul yprev k
op y = add x scaled
feedback yprev <- y
output y
";

    #[test]
    fn parses_the_example() {
        let g = parse_cdfg(IIR).unwrap();
        assert_eq!(g.name(), "iir1");
        assert_eq!(g.num_ops(), 2);
        assert_eq!(g.state_values().count(), 1);
        assert_eq!(g.output_values().count(), 1);
    }

    #[test]
    fn roundtrips_every_benchmark() {
        for g in crate::benchmarks::all() {
            let text = cdfg_to_text(&g);
            let parsed = parse_cdfg(&text)
                .unwrap_or_else(|e| panic!("{} roundtrip: {e}\n{text}", g.name()));
            assert_eq!(parsed.num_ops(), g.num_ops(), "{}", g.name());
            assert_eq!(parsed.num_values(), g.num_values(), "{}", g.name());
            assert_eq!(parsed.stats().ops_by_kind, g.stats().ops_by_kind, "{}", g.name());
            assert_eq!(
                parsed.feedback_sources().count(),
                g.feedback_sources().count(),
                "{}",
                g.name()
            );
        }
    }

    #[test]
    fn reports_unknown_value_with_line() {
        let bad = "cdfg t\ninput x\nop y = add x z\noutput y\n";
        let e = parse_cdfg(bad).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("'z'"));
    }

    #[test]
    fn reports_duplicate_definition() {
        let bad = "cdfg t\ninput x\ninput x\n";
        let e = parse_cdfg(bad).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("defined twice"));
    }

    #[test]
    fn reports_missing_header() {
        let e = parse_cdfg("input x\n").unwrap_err();
        assert!(e.message.contains("cdfg <name>"));
        let e = parse_cdfg("# nothing\n").unwrap_err();
        assert_eq!(e.line, 0);
    }

    #[test]
    fn reports_bad_operation_kind() {
        let bad = "cdfg t\ninput x\nop y = xor x x\noutput y\n";
        let e = parse_cdfg(bad).unwrap_err();
        assert!(e.message.contains("xor"));
        assert_eq!(e.kind, ParseErrorKind::UnknownOpKind);
        // 'xor' starts at byte 8 of "op y = xor x x" (1-based).
        assert_eq!((e.line, e.column), (3, 8));
    }

    #[test]
    fn columns_point_at_the_offending_token() {
        let bad = "cdfg t\ninput x\nop y = add x nosuch\noutput y\n";
        let e = parse_cdfg(bad).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::UnknownValue);
        assert_eq!((e.line, e.column), (3, 14));
        assert_eq!(e.to_string(), "line 3, column 14: unknown value 'nosuch'");

        // Columns survive leading whitespace and trailing comments.
        let bad = "cdfg t\ninput x\n   op y = add x nosuch # comment\noutput y\n";
        let e = parse_cdfg(bad).unwrap_err();
        assert_eq!((e.line, e.column), (3, 17));

        let bad = "cdfg t\ninput x\nfrobnicate y\n";
        let e = parse_cdfg(bad).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::UnknownDirective);
        assert_eq!((e.line, e.column), (3, 1));

        let bad = "cdfg t\ninput x\ninput x\n";
        let e = parse_cdfg(bad).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::DuplicateDefinition);
        assert_eq!((e.line, e.column), (3, 7));
    }

    #[test]
    fn hostile_inputs_error_instead_of_panicking() {
        for bad in [
            "",
            "op",
            "cdfg",
            "cdfg t\nop\n",
            "cdfg t\nconst k =\n",
            "cdfg t\nconst k = banana\n",
            "cdfg t\nfeedback a b c d e\n",
            "cdfg t\noutput\n",
            "cdfg t\ncdfg u\n",
            "cdfg t\ninput x\nop y = add x\n",
            "cdfg t\ninput x\x00junk\n",
        ] {
            assert!(parse_cdfg(bad).is_err(), "expected an error for {bad:?}");
        }

        // A second feedback source for one state is a parse error at the
        // second line, never the builder's assertion.
        let bad = "cdfg t\ninput x\nstate s\nop y = add x s\nfeedback s <- y\nfeedback s <- y\noutput y\n";
        let e = parse_cdfg(bad).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::DuplicateDefinition);
        assert_eq!((e.line, e.column), (6, 10));
    }

    #[test]
    fn output_aliases_work() {
        let src = "cdfg t\ninput a\nop s = add a a\noutput s as total\n";
        let g = parse_cdfg(src).unwrap();
        let out = g.output_values().next().unwrap();
        assert_eq!(g.value(out).label(), "total");
    }

    #[test]
    fn dangling_feedback_is_reported() {
        let bad = "cdfg t\ninput x\nstate s\nop y = add x s\noutput y\n";
        let e = parse_cdfg(bad).unwrap_err();
        assert!(e.message.contains("feedback"), "{e}");
    }
}
