//! The XPath abstract syntax tree.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// A location path: a sequence of steps. An empty step list denotes the
/// context node itself (the path `.`).
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    pub steps: Vec<Step>,
}

/// One location step.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    pub axis: Axis,
    pub test: NodeTest,
    pub predicates: Vec<Predicate>,
}

/// The supported axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    Child,
    Descendant,
    DescendantOrSelf,
    Attribute,
    SelfAxis,
    Parent,
    FollowingSibling,
}

/// Node tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeTest {
    /// Match by tag/attribute name.
    Name(String),
    /// `*`: any element (or any attribute on the attribute axis).
    Wildcard,
    /// `text()`.
    Text,
}

/// A predicate inside `[...]`.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `[p]` — the relative path has a non-empty result.
    Exists(Path),
    /// `[p op literal]`.
    Compare(Path, CmpOp, Literal),
    /// `[n]` / `[last()]` — positional test within the context's node list.
    Position(PositionTest),
    /// `[a and b]`.
    And(Box<Predicate>, Box<Predicate>),
    /// `[a or b]`.
    Or(Box<Predicate>, Box<Predicate>),
    /// `[not(a)]`.
    Not(Box<Predicate>),
    /// `[contains(p, 'lit')]` — some bound value contains the substring.
    Contains(Path, String),
    /// `[starts-with(p, 'lit')]`.
    StartsWith(Path, String),
}

/// A positional predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PositionTest {
    /// 1-based index.
    Index(usize),
    /// `last()`.
    Last,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Applies the operator to an `Ordering`-style comparison result.
    pub fn holds(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A comparison literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    Number(f64),
    Str(String),
}

impl Literal {
    /// Compares a node's string value against the literal: numerically when
    /// both sides parse as numbers, lexicographically otherwise.
    pub fn compare_with(&self, value: &str) -> std::cmp::Ordering {
        match self {
            Literal::Number(n) => match value.trim().parse::<f64>() {
                Ok(v) => v.partial_cmp(n).unwrap_or(std::cmp::Ordering::Less),
                Err(_) => value.cmp(&n.to_string()),
            },
            Literal::Str(s) => {
                if let (Ok(a), Ok(b)) = (value.trim().parse::<f64>(), s.trim().parse::<f64>()) {
                    return a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Less);
                }
                value.cmp(s)
            }
        }
    }

    /// The literal rendered as a plain string (no quotes).
    pub fn as_text(&self) -> String {
        match self {
            Literal::Number(n) => format_number(*n),
            Literal::Str(s) => s.clone(),
        }
    }
}

/// `[path op literal]`'s test, prepared once per predicate: the literal as
/// a number, and the text a value compares against as a string (a number
/// literal's `to_string()`), are worked out here rather than per value. It
/// orders as [`Literal::compare_with`] does: numerically when both sides
/// parse as numbers, a NaN on either side ordering `Less`, and as strings
/// otherwise.
#[derive(Debug, Clone)]
pub struct Comparison<'l> {
    op: CmpOp,
    /// The literal, trimmed, as an `f64`, when it parses as one.
    number: Option<f64>,
    text: Cow<'l, str>,
}

impl<'l> Comparison<'l> {
    pub fn new(op: CmpOp, lit: &'l Literal) -> Self {
        let (number, text) = match lit {
            Literal::Number(n) => (Some(*n), Cow::Owned(n.to_string())),
            Literal::Str(s) => (s.trim().parse().ok(), Cow::Borrowed(s.as_str())),
        };
        Comparison { op, number, text }
    }

    /// Whether a node whose string value is `value` passes.
    pub fn holds(&self, value: &str) -> bool {
        let numbers = self
            .number
            .and_then(|n| Some((n, value.trim().parse::<f64>().ok()?)));
        let ord = match numbers {
            Some((n, v)) => v.partial_cmp(&n).unwrap_or(Ordering::Less),
            None => value.cmp(&self.text),
        };
        self.op.holds(ord)
    }

    /// The same test for a node whose string value, trimmed, parses as `v`:
    /// `None` when `v` is NaN or the literal is no number, where only the
    /// value's text can tell.
    pub fn holds_number(&self, v: f64) -> Option<bool> {
        let n = self.number.filter(|_| !v.is_nan())?;
        Some(self.op.holds(v.partial_cmp(&n).unwrap_or(Ordering::Less)))
    }
}

fn format_number(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

impl Path {
    /// Parses a union expression `p1 | p2 | …` into its branches (a single
    /// path parses to one branch). Unions are evaluated branch-by-branch
    /// and merged, both in the reference evaluator and through the secure
    /// pipeline.
    ///
    /// ```
    /// use exq_xpath::Path;
    /// let branches = Path::parse_union("//a | //b[c = '1|2']").unwrap();
    /// assert_eq!(branches.len(), 2); // the quoted `|` is not a separator
    /// ```
    pub fn parse_union(input: &str) -> Result<Vec<Path>, crate::parse::XPathError> {
        split_top_level(input, '|')
            .into_iter()
            .map(|part| Path::parse(part.trim()))
            .collect()
    }

    /// True when the path is just `.`.
    pub fn is_self(&self) -> bool {
        self.steps.is_empty()
    }

    /// Concatenates two paths (`self/other`).
    pub fn join(&self, other: &Path) -> Path {
        let mut steps = self.steps.clone();
        steps.extend(other.steps.iter().cloned());
        Path { steps }
    }
}

/// Splits on a separator that appears outside brackets and quotes.
fn split_top_level(s: &str, sep: char) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut quote: Option<char> = None;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        match quote {
            Some(q) => {
                if c == q {
                    quote = None;
                }
            }
            None => match c {
                '\'' | '"' => quote = Some(c),
                '[' | '(' => depth += 1,
                ']' | ')' => depth -= 1,
                _ if c == sep && depth == 0 => {
                    out.push(&s[start..i]);
                    start = i + c.len_utf8();
                }
                _ => {}
            },
        }
    }
    out.push(&s[start..]);
    out
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.steps.is_empty() {
            return write!(f, ".");
        }
        for step in &self.steps {
            write!(f, "{step}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.axis {
            Axis::Child => write!(f, "/")?,
            Axis::Descendant => write!(f, "//")?,
            Axis::DescendantOrSelf => write!(f, "/descendant-or-self::")?,
            Axis::Attribute => write!(f, "/@")?,
            Axis::SelfAxis => write!(f, "/.")?,
            Axis::Parent => write!(f, "/..")?,
            Axis::FollowingSibling => write!(f, "/following-sibling::")?,
        }
        match &self.test {
            NodeTest::Name(n) => {
                if matches!(self.axis, Axis::SelfAxis | Axis::Parent) {
                    // Self/parent render their sugar above; a name test on
                    // these axes uses explicit syntax.
                    write!(f, "self::{n}")?;
                } else {
                    write!(f, "{n}")?;
                }
            }
            NodeTest::Wildcard => {
                if !matches!(self.axis, Axis::SelfAxis | Axis::Parent) {
                    write!(f, "*")?;
                }
            }
            NodeTest::Text => write!(f, "text()")?,
        }
        for p in &self.predicates {
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", render_pred(self))
    }
}

fn render_pred(p: &Predicate) -> String {
    match p {
        Predicate::Exists(path) => display_relative(path),
        Predicate::Compare(path, op, lit) => {
            format!("{} {} {}", display_relative(path), op.as_str(), lit)
        }
        Predicate::Position(PositionTest::Index(i)) => i.to_string(),
        Predicate::Position(PositionTest::Last) => "last()".to_owned(),
        Predicate::And(a, b) => format!("{} and {}", render_pred(a), render_pred(b)),
        Predicate::Or(a, b) => format!("({} or {})", render_pred(a), render_pred(b)),
        Predicate::Not(a) => format!("not({})", render_pred(a)),
        Predicate::Contains(p, lit) => format!("contains({}, '{lit}')", display_relative(p)),
        Predicate::StartsWith(p, lit) => {
            format!("starts-with({}, '{lit}')", display_relative(p))
        }
    }
}

/// Renders a predicate path without the leading `/` that `Display` on
/// [`Path`] would emit for the first child step.
fn display_relative(p: &Path) -> String {
    let s = p.to_string();
    match s.strip_prefix("//") {
        Some(_) => format!(".{s}"),
        None => s.strip_prefix('/').map(str::to_owned).unwrap_or(s),
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Number(n) => write!(f, "{}", format_number(*n)),
            Literal::Str(s) => write!(f, "'{s}'"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_semantics() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Eq.holds(Equal));
        assert!(!CmpOp::Eq.holds(Less));
        assert!(CmpOp::Le.holds(Equal));
        assert!(CmpOp::Le.holds(Less));
        assert!(!CmpOp::Le.holds(Greater));
        assert!(CmpOp::Ne.holds(Greater));
    }

    #[test]
    fn literal_numeric_comparison() {
        let lit = Literal::Number(40.0);
        assert_eq!(lit.compare_with("40"), std::cmp::Ordering::Equal);
        assert_eq!(lit.compare_with("35"), std::cmp::Ordering::Less);
        assert_eq!(lit.compare_with("100"), std::cmp::Ordering::Greater);
    }

    #[test]
    fn literal_string_comparison() {
        let lit = Literal::Str("Betty".into());
        assert_eq!(lit.compare_with("Betty"), std::cmp::Ordering::Equal);
        assert_eq!(lit.compare_with("Matt"), std::cmp::Ordering::Greater);
    }

    #[test]
    fn string_literal_numeric_when_both_numbers() {
        let lit = Literal::Str("100".into());
        assert_eq!(lit.compare_with("20"), std::cmp::Ordering::Less);
    }

    /// `compare_with`'s order, pinned, and a prepared comparison's with
    /// it: every form `f64` parses, NaN and the infinities included (a NaN
    /// on either side orders `Less`); whitespace trimmed for the number
    /// test only; a numeric string literal compared as a number; a number
    /// literal against a word compared as text with the number's
    /// `to_string()`.
    #[test]
    fn compare_with_orders_as_pinned() {
        use std::cmp::Ordering::{Equal, Greater, Less};
        let num = Literal::Number;
        let s = |x: &str| Literal::Str(x.into());
        let table = [
            (num(40.0), "NaN", Less),
            (num(40.0), "nan", Less),
            (num(f64::NAN), "40", Less),
            (num(f64::NAN), "forty", Greater),
            (s("NaN"), "5", Less),
            (s("NaN"), "NaN", Less),
            (num(40.0), "inf", Greater),
            (num(40.0), "Infinity", Greater),
            (num(40.0), "-inf", Less),
            (num(f64::INFINITY), "inf", Equal),
            (num(f64::NEG_INFINITY), "-inf", Equal),
            (s("-inf"), "-1e308", Greater),
            (num(1000.0), "1e3", Equal),
            (num(1000.0), "1E3", Equal),
            (num(5.0), "+5", Equal),
            (num(0.5), ".5", Equal),
            (num(5.0), "5.", Equal),
            (num(-0.0), "0", Equal),
            (num(-0.0), "-0x", Greater),
            (num(40.0), " 40 ", Equal),
            (num(40.0), "\t41\n", Greater),
            (s(" 40\n"), "39", Less),
            (s("Betty"), " Betty", Less),
            (s("Betty"), "Betty ", Greater),
            (s("40"), "40.0", Equal),
            (s(" 1e3 "), "999", Less),
            (s("100"), "20", Less),
            (s("+5"), ".5e1", Equal),
            (s("5"), "abc", Greater),
            (s("abc"), "5", Less),
            (num(40.0), "forty", Greater),
            (num(100.0), "2x", Greater),
            (num(3.0), "3x", Greater),
            (num(3.0), "3", Equal),
            (num(2.5), "2.5 ", Equal),
            (num(2.5), "2.5x", Greater),
            (num(40.0), "", Less),
            (num(40.0), "4 0", Less),
            (num(1e21), "1000000000000000000000", Equal),
        ];
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        for (lit, value, want) in table {
            assert_eq!(lit.compare_with(value), want, "{lit:?} against {value:?}");
            for op in ops {
                let cmp = Comparison::new(op, &lit);
                assert_eq!(cmp.holds(value), op.holds(want), "{lit:?} {op:?} {value:?}");
            }
        }
    }

    #[test]
    fn join_paths() {
        let a = Path::parse("//patient").unwrap();
        let b = Path::parse("/pname").unwrap();
        assert_eq!(a.join(&b).to_string(), "//patient/pname");
    }
}
