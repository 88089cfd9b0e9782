//! The parser's errors, pinned: for each ill-formed input, the exact
//! message and byte offset both document types report. A reply and a block
//! come from the untrusted server, so these are the answers a hostile input
//! gets; a change to the tokenizer that moves one of them changed what the
//! client reports, not only how fast it reads.
//!
//! Beside them, the exact text a span document writes for accepted input
//! that is not written as the writer writes it.

use exq_xml::{Document, ParseError, SpanBuilder, SpanDocument, MAX_DEPTH};

/// `"<a>"` `levels` deep, then as many close tags.
fn nested(levels: usize) -> String {
    "<a>".repeat(levels) + &"</a>".repeat(levels)
}

/// A start tag `<r …>` carrying `n` attributes `a0=""` … .
fn many_attrs(n: usize) -> String {
    (0..n).map(|i| format!(" a{i}=\"\"")).collect()
}

/// What both parsers say about `input`: the same error, or the span parse
/// accepts exactly what the arena parse accepts.
fn both(input: &str) -> Result<(), ParseError> {
    let doc = Document::parse(input).map(drop);
    let spans = SpanDocument::parse(input).map(drop);
    let label: String = input.chars().take(60).collect();
    assert_eq!(doc, spans, "the two parsers disagree on {label:?}");
    doc
}

fn assert_error(input: &str, message: &str, offset: usize) {
    let label: String = input.chars().take(60).collect();
    let e = both(input).expect_err(&label);
    assert_eq!(
        (e.message.as_str(), e.offset),
        (message, offset),
        "{label:?}"
    );
}

#[test]
fn empty_and_text_only_input() {
    for (input, offset) in [("", 0), ("just text", 0), ("   ", 3), ("\u{feff}<a/>", 0)] {
        assert_error(input, "expected `<`", offset);
    }
    assert_error("<!-- c --> \n", "expected `<`", 12);
    assert_error("<?xml version=\"1.0\"?>text", "expected `<`", 21);
}

#[test]
fn unterminated_comment_pi_doctype_and_cdata() {
    let comment = "unterminated construct, expected `-->`";
    let pi = "unterminated construct, expected `?>`";
    for (input, message, offset) in [
        ("<!-- c", comment, 0),
        ("<r/><!-- tail", comment, 4),
        ("<r><!-- x</r>", comment, 3),
        ("<r>a<!--b->", comment, 4),
        ("<?xml version", pi, 0),
        ("<r/> <?pi", pi, 5),
        ("<r><?pi x</r>", pi, 3),
        ("<!DOCTYPE r", "unterminated construct, expected `>`", 0),
        ("<!doctype r", "unterminated construct, expected `>`", 0),
        ("<r><![CDATA[x</r>", "unterminated CDATA section", 12),
        ("<r>a<![CDATA[x]]</r>", "unterminated CDATA section", 13),
    ] {
        assert_error(input, message, offset);
    }
}

#[test]
fn unterminated_and_malformed_start_tags() {
    for (input, message, offset) in [
        ("<r", "unexpected end of input in tag", 2),
        ("<r ", "unexpected end of input in tag", 3),
        ("<r x=\"1\"", "unexpected end of input in tag", 8),
        ("<r><a x=\"1\" ", "unexpected end of input in tag", 12),
        ("<>", "expected a name", 1),
        ("< r/>", "expected a name", 1),
        ("<!x>", "expected a name", 1),
        ("<r><=/></r>", "expected a name", 4),
        ("<r><!x/></r>", "expected a name", 4),
        ("<r =\"1\"/>", "expected a name", 3),
        ("<r x", "expected `=`", 4),
        ("<r x/>", "expected `=`", 4),
        ("<r x y=\"1\"/>", "expected `=`", 5),
        ("<r/", "expected `>`", 3),
        ("<r/ >", "expected `>`", 3),
        ("<r x=\"1\"/x>", "expected `>`", 9),
    ] {
        assert_error(input, message, offset);
    }
}

#[test]
fn unquoted_and_badly_quoted_values() {
    for (input, message, offset) in [
        ("<r x=1/>", "expected quoted attribute value", 5),
        ("<r x=/>", "expected quoted attribute value", 5),
        ("<r x=", "expected quoted attribute value", 5),
        ("<r x = 1/>", "expected quoted attribute value", 7),
        ("<r x=`1`/>", "expected quoted attribute value", 5),
        ("<r x=\"1/>", "expected `\"`", 9),
        ("<r x='1\"/>", "expected `'`", 10),
        ("<r x=\"1'/></r>", "expected `\"`", 14),
    ] {
        assert_error(input, message, offset);
    }
}

#[test]
fn mismatched_and_empty_close_tags() {
    for (input, message, offset) in [
        ("<r></s>", "mismatched close tag: <r> vs </s>", 6),
        ("<r></rr>", "mismatched close tag: <r> vs </rr>", 7),
        ("<rr></r>", "mismatched close tag: <rr> vs </r>", 7),
        ("<r><a></r></a>", "mismatched close tag: <a> vs </r>", 9),
        ("<r></>", "expected a name", 5),
        ("<r></ r>", "expected a name", 5),
        ("<r></r", "expected `>`", 6),
        ("<r></r x>", "expected `>`", 7),
        ("<r></r/>", "expected `>`", 6),
    ] {
        assert_error(input, message, offset);
    }
}

#[test]
fn unclosed_elements_and_trailing_content() {
    for (input, message, offset) in [
        ("<r>", "unclosed element <r>", 3),
        ("<r>text", "unclosed element <r>", 7),
        ("<r><a></a>", "unclosed element <r>", 10),
        ("<r><a>x", "unclosed element <a>", 7),
        ("<r/><s/>", "trailing content after the root element", 4),
        ("<r/>x", "trailing content after the root element", 4),
        (
            "<r></r>\n<!-- ok -->x",
            "trailing content after the root element",
            19,
        ),
        ("<r/>]]>", "trailing content after the root element", 4),
    ] {
        assert_error(input, message, offset);
    }
}

#[test]
fn nesting_deeper_than_the_cap() {
    both(&nested(MAX_DEPTH)).unwrap();
    let message = format!("elements nested deeper than {MAX_DEPTH}");
    assert_error(&nested(MAX_DEPTH + 1), &message, 3 * MAX_DEPTH);
    assert_error(&"<a>".repeat(100_000), &message, 3 * MAX_DEPTH);
    // The cap is checked before the start tag is read, at its `<`.
    let deep = "<a>".repeat(MAX_DEPTH) + "<b x=1";
    assert_error(&deep, &message, 3 * MAX_DEPTH);
}

#[test]
fn repeated_attributes_in_small_and_huge_tags() {
    for (input, message, offset) in [
        ("<r x=\"1\" x=\"2\"/>", "attribute `x` repeated in <r>", 9),
        (
            "<r a='1' b=\"2\" a=\"3\"/>",
            "attribute `a` repeated in <r>",
            15,
        ),
        (
            "<r><c id=\"1\" id=\"1\">t</c></r>",
            "attribute `id` repeated in <c>",
            13,
        ),
        (
            "<r x=\"1\"\n x = \"2\"/>",
            "attribute `x` repeated in <r>",
            10,
        ),
    ] {
        assert_error(input, message, offset);
    }
    let many = many_attrs(100_000);
    both(&format!("<r{many}/>")).unwrap();
    let last = format!("<r{many} a99999=''/>");
    assert_error(&last, "attribute `a99999` repeated in <r>", last.len() - 11);
    let first = format!("<r{many} a0=\"x\">t</r>");
    assert_error(&first, "attribute `a0` repeated in <r>", 2 + many.len() + 1);
    // Sixteen is where the look along the tag becomes one lookup per name.
    for n in [15, 16, 17] {
        let tag = format!("<r{} a{}=\"\"/>", many_attrs(n), n - 1);
        let at = 2 + many_attrs(n).len() + 1;
        assert_error(&tag, &format!("attribute `a{}` repeated in <r>", n - 1), at);
    }
}

#[test]
fn multibyte_characters_next_to_every_cut() {
    for (input, message, offset) in [
        ("<é>ü", "unclosed element <é>", 6),
        ("<é></è>", "mismatched close tag: <é> vs </è>", 8),
        ("<é></é", "expected `>`", 8),
        ("<aé", "unexpected end of input in tag", 4),
        ("<a b=\"é", "expected `\"`", 8),
        ("<a>é<!-- ü", "unterminated construct, expected `-->`", 5),
        ("<a><![CDATA[é", "unterminated CDATA section", 12),
        ("<a é=\"1\" é='2'/>", "attribute `é` repeated in <a>", 10),
        ("<a\u{a0}x=\"1\"/>", "expected a name", 5),
        (
            "<a>\u{a0}</a>\u{a0}",
            "trailing content after the root element",
            9,
        ),
        (
            "<a>日本</a><b/>",
            "trailing content after the root element",
            13,
        ),
        ("<a x=\"日\"y=\"本\"", "unexpected end of input in tag", 17),
    ] {
        assert_error(input, message, offset);
    }
}

/// A span document's text for accepted input the writer would write
/// differently: it is what the writer writes for the tree parsed.
#[test]
fn accepted_non_canonical_input_is_rewritten_as_the_writer_writes() {
    for (input, text) in [
        ("<r x='1'/>", "<r x=\"1\"/>"),
        ("<r  x = \"1\"\n/>", "<r x=\"1\"/>"),
        ("<r>a<!-- c -->b</r>", "<r>ab</r>"),
        ("<r><![CDATA[<&>]]></r>", "<r>&lt;&amp;&gt;</r>"),
        ("<r>a<?pi x?>b<![CDATA[]]>c</r>", "<r>abc</r>"),
        ("<r>&#65;&#x42;&apos;&quot;</r>", "<r>AB'\"</r>"),
        (
            "<r x=\"&apos;&#60;\" y='\"'/>",
            "<r x=\"'&lt;\" y=\"&quot;\"/>",
        ),
        ("<r>a>b</r>", "<r>a&gt;b</r>"),
        (
            "<r x=\"1 > 0\">fish&chips;</r>",
            "<r x=\"1 &gt; 0\">fish&amp;chips;</r>",
        ),
        ("<r></r>", "<r/>"),
        ("<r><a></a ><b/></r>", "<r><a/><b/></r>"),
        ("<r><s>  </s> \n</r>", "<r><s/></r>"),
        (
            "<?xml version=\"1.0\"?>\n<!DOCTYPE r>\n<r>\n  <a>1</a>\n</r>\n<!-- end -->",
            "<r><a>1</a></r>",
        ),
        ("<é a=\"ü\">\u{a0}日</é>", "<é a=\"ü\">\u{a0}日</é>"),
        ("<a x=\"日\"y=\"本\"/>", "<a x=\"日\" y=\"本\"/>"),
    ] {
        let spans = SpanDocument::parse(input).unwrap();
        assert_eq!(spans.text(), text, "{input:?}");
        assert_eq!(Document::parse(input).unwrap().to_xml(), text, "{input:?}");
    }
}

/// A fragment parsed in where a document already has its root is refused
/// at the end of the second root's start tag.
#[test]
fn a_second_root_is_refused_where_its_start_tag_ends() {
    let mut b = SpanBuilder::with_capacity(0);
    let keep = |_: &mut SpanBuilder<'_>, _: &exq_xml::StartTag<'_, '_>| {
        Ok::<_, ParseError>(exq_xml::Verdict::Keep)
    };
    b.parse_fragment("<x/>", keep).unwrap();
    let e = b
        .parse_fragment("<!-- c --><y k=\"v\"/>", keep)
        .unwrap_err();
    assert_eq!(
        (e.message.as_str(), e.offset),
        ("document already has a root element", 20)
    );
}
