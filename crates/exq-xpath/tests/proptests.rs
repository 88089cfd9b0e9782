//! Property tests for the XPath engine.

use exq_xml::Document;
use exq_xpath::{eval_document, CmpOp, Comparison, Literal, Path};
use proptest::prelude::*;

/// Random documents over a small tag alphabet.
fn tag() -> impl Strategy<Value = String> {
    prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")].prop_map(str::to_owned)
}

#[derive(Debug, Clone)]
enum Tree {
    Text(u8),
    El(String, Vec<Tree>),
}

fn tree() -> impl Strategy<Value = Tree> {
    let leaf = any::<u8>().prop_map(Tree::Text);
    leaf.prop_recursive(4, 32, 4, |inner| {
        (tag(), proptest::collection::vec(inner, 0..4)).prop_map(|(t, c)| Tree::El(t, c))
    })
}

fn build(doc: &mut Document, parent: Option<exq_xml::NodeId>, t: &Tree) {
    match t {
        Tree::Text(v) => {
            if let Some(p) = parent {
                doc.add_text(p, &v.to_string());
            }
        }
        Tree::El(tag, children) => {
            let el = doc.add_element(parent, tag);
            for c in children {
                build(doc, Some(el), c);
            }
        }
    }
}

fn doc_strategy() -> impl Strategy<Value = Document> {
    (tag(), proptest::collection::vec(tree(), 0..4)).prop_map(|(t, children)| {
        let mut d = Document::new();
        let root = d.add_element(None, &t);
        for c in &children {
            build(&mut d, Some(root), c);
        }
        d
    })
}

/// Values and literals in the forms a comparison meets: numbers written
/// each way `f64` parses them, padded or not, the specials, and words.
fn value_text() -> impl Strategy<Value = String> {
    let forms = [
        "NaN", "nan", "inf", "-inf", "Infinity", "1e3", "+5", ".5", "5.", "-0", "", " ", "abc",
        "4 0", "2.5x",
    ];
    prop_oneof![
        (-1000i32..1000).prop_map(|n| n.to_string()),
        any::<f64>().prop_map(|x| x.to_string()),
        (-100i32..100, "[ \t\n]{0,2}", "[ \t\n]{0,2}").prop_map(|(n, l, r)| format!("{l}{n}{r}")),
        (0..forms.len()).prop_map(move |i| forms[i].to_owned()),
        "[0-9a-z .+-]{0,6}",
    ]
}

fn literal() -> impl Strategy<Value = Literal> {
    let number = prop_oneof![
        any::<f64>(),
        (-1000i32..1000).prop_map(f64::from),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(-0.0),
    ];
    prop_oneof![
        number.prop_map(Literal::Number),
        value_text().prop_map(Literal::Str),
    ]
}

proptest! {
    /// `//t` returns exactly the elements with tag t, in document order.
    #[test]
    fn descendant_matches_elements_by_tag(d in doc_strategy(), t in tag()) {
        let q = Path::parse(&format!("//{t}")).unwrap();
        let got = eval_document(&d, &q);
        prop_assert_eq!(got, d.elements_by_tag(&t));
    }

    /// `//a//b` ⊆ `//b`, and every result has an `a` ancestor.
    #[test]
    fn nested_descendants_are_consistent(d in doc_strategy()) {
        let all_b = eval_document(&d, &Path::parse("//b").unwrap());
        let nested = eval_document(&d, &Path::parse("//a//b").unwrap());
        for n in &nested {
            prop_assert!(all_b.contains(n));
            let has_a_anc = d
                .ancestors(*n)
                .iter()
                .any(|&x| d.element_name(x) == Some("a"));
            prop_assert!(has_a_anc);
        }
    }

    /// Child-step results are exactly the parent-filtered descendant results.
    #[test]
    fn child_is_refinement_of_descendant(d in doc_strategy()) {
        let child = eval_document(&d, &Path::parse("//a/b").unwrap());
        let desc = eval_document(&d, &Path::parse("//a//b").unwrap());
        for n in &child {
            prop_assert!(desc.contains(n));
            prop_assert_eq!(d.element_name(d.node(*n).parent().unwrap()), Some("a"));
        }
        for n in &desc {
            if d.element_name(d.node(*n).parent().unwrap()) == Some("a") {
                prop_assert!(child.contains(n));
            }
        }
    }

    /// The wildcard counts every element except the root.
    #[test]
    fn wildcard_descendant_counts_elements(d in doc_strategy()) {
        let q = Path::parse("//*").unwrap();
        let got = eval_document(&d, &q).len();
        let expected = d
            .iter()
            .filter(|&n| d.node(n).is_element())
            .count();
        prop_assert_eq!(got, expected);
    }

    /// A prepared comparison holds exactly where `compare_with` says, for
    /// all six operators: on the value's text always, and on its number
    /// whenever the value and the literal are both numbers other than NaN.
    #[test]
    fn a_prepared_comparison_orders_as_compare_with(
        v in value_text(),
        lit in literal(),
        op in (0usize..6).prop_map(|i| {
            [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][i]
        }),
    ) {
        let want = op.holds(lit.compare_with(&v));
        let cmp = Comparison::new(op, &lit);
        prop_assert_eq!(cmp.holds(&v), want);
        let number = |s: &str| s.trim().parse::<f64>().unwrap_or(f64::NAN);
        let (value, literal) = match &lit {
            Literal::Number(n) => (number(&v), *n),
            Literal::Str(s) => (number(&v), number(s)),
        };
        match cmp.holds_number(value) {
            Some(holds) => prop_assert_eq!(holds, want),
            None => prop_assert!(value.is_nan() || literal.is_nan()),
        }
    }

    /// Display → parse is the identity on generated query shapes.
    #[test]
    fn display_parse_roundtrip(
        t1 in tag(),
        t2 in tag(),
        v in 0u8..200,
        op in prop_oneof![Just("="), Just("<"), Just(">="), Just("!=")],
    ) {
        let q = format!("//{t1}[{t2} {op} {v}]/{t2}");
        let p1 = Path::parse(&q).unwrap();
        let p2 = Path::parse(&p1.to_string()).unwrap();
        prop_assert_eq!(p1, p2);
    }

    /// Predicates never enlarge the result set.
    #[test]
    fn predicates_filter(d in doc_strategy(), v in 0u8..255) {
        let all = eval_document(&d, &Path::parse("//a").unwrap());
        let some = eval_document(&d, &Path::parse(&format!("//a[b = {v}]")).unwrap());
        for n in &some {
            prop_assert!(all.contains(n));
        }
    }

    /// The parser never panics on arbitrary UTF-8 input — garbage must come
    /// back as `Err(XPathError)`, not a crash.
    #[test]
    fn parse_never_panics_on_arbitrary_strings(s in "\\PC{0,128}") {
        let _ = Path::parse(&s);
    }

    /// Same, over byte soup forced through lossy UTF-8 conversion (covers
    /// multi-byte boundary slicing in names and literals).
    #[test]
    fn parse_never_panics_on_byte_soup(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        let s = String::from_utf8_lossy(&bytes);
        let _ = Path::parse(&s);
    }

    /// Query-shaped fragments stitched together at random: anything accepted
    /// must survive a display → re-parse roundtrip without panicking.
    #[test]
    fn parse_never_panics_on_query_soup(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("//"), Just("/"), Just("a"), Just("bé"), Just("@id"), Just("*"),
                Just("["), Just("]"), Just("("), Just(")"), Just("="), Just("<="),
                Just("'x"), Just("'x'"), Just("42"), Just("-"), Just("+"), Just("."),
                Just(".."), Just("not("), Just("contains("), Just("last()"),
                Just(" and "), Just(" or "), Just(","), Just("text()"),
            ],
            0..24,
        )
    ) {
        let q: String = parts.concat();
        if let Ok(p) = Path::parse(&q) {
            let _ = Path::parse(&p.to_string());
        }
    }
}

/// Pathological nesting must be rejected with a parse error, never a stack
/// overflow: the parser caps recursion depth.
#[test]
fn deep_nesting_is_an_error_not_a_crash() {
    let deep = format!("//a[{}b{}]", "not(".repeat(4000), ")".repeat(4000));
    assert!(Path::parse(&deep).is_err());
    let parens = format!("//a[{}b = 1{}]", "(".repeat(4000), ")".repeat(4000));
    assert!(Path::parse(&parens).is_err());
    // Modest nesting still parses fine.
    let ok = format!("//a[{}b{}]", "not(".repeat(8), ")".repeat(8));
    assert!(Path::parse(&ok).is_ok());
}

/// Malformed number literals are parse errors (regression for a former
/// `unwrap` in the number-literal scanner).
#[test]
fn bad_number_literals_are_errors() {
    for q in ["//a[b = +]", "//a[b = -]", "//a[b = 1.2.3]", "//a[b = ++1]"] {
        assert!(Path::parse(q).is_err(), "expected error for {q}");
    }
    assert!(Path::parse("//a[b = -12.5]").is_ok());
}
