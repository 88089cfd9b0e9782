//! XML entity escaping and unescaping.

use std::borrow::Cow;

/// Escapes text content: `& < >`.
pub fn escape_text(s: &str) -> Cow<'_, str> {
    escape(s, false)
}

/// Escapes attribute values: `& < > "`.
pub fn escape_attr(s: &str) -> Cow<'_, str> {
    escape(s, true)
}

fn needs_escape(b: u8, attr: bool) -> bool {
    matches!(b, b'&' | b'<' | b'>') || (attr && b == b'"')
}

fn escape(s: &str, attr: bool) -> Cow<'_, str> {
    if !s.bytes().any(|b| needs_escape(b, attr)) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    push_escaped(&mut out, s, attr);
    Cow::Owned(out)
}

/// Appends `s` to `out` with `& < >` (and `"` when `attr`) escaped, copying
/// clean runs whole — the serializer's path, which never builds a
/// per-value `String`.
pub(crate) fn push_escaped(out: &mut String, s: &str, attr: bool) {
    let mut clean_from = 0;
    for (i, b) in s.bytes().enumerate() {
        if !needs_escape(b, attr) {
            continue;
        }
        out.push_str(&s[clean_from..i]);
        out.push_str(match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            _ => "&quot;",
        });
        clean_from = i + 1;
    }
    out.push_str(&s[clean_from..]);
}

/// Whether `raw`, as it stands in the input, is exactly what the writer
/// writes for the value it unescapes to: no `<` or `>` (nor `"` in an
/// attribute), and every `&` one of the entities the writer uses.
pub(crate) fn is_canonical(raw: &str, attr: bool) -> bool {
    let b = raw.as_bytes();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'<' | b'>' => return false,
            b'"' if attr => return false,
            b'&' => {
                let rest = &b[i + 1..];
                i += if rest.starts_with(b"amp;") {
                    4
                } else if rest.starts_with(b"lt;") || rest.starts_with(b"gt;") {
                    3
                } else if attr && rest.starts_with(b"quot;") {
                    5
                } else {
                    return false;
                };
            }
            _ => {}
        }
        i += 1;
    }
    true
}

/// Expands the five predefined entities plus decimal/hex character
/// references. Unknown entities are left verbatim (lenient mode).
pub fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos..];
        let end = match rest.find(';') {
            Some(e) if e <= 12 => e,
            _ => {
                // Not a well-formed entity; emit '&' verbatim and move on.
                out.push('&');
                rest = &rest[1..];
                continue;
            }
        };
        let ent = &rest[1..end];
        let expanded = match ent {
            "amp" => Some('&'),
            "lt" => Some('<'),
            "gt" => Some('>'),
            "quot" => Some('"'),
            "apos" => Some('\''),
            _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                u32::from_str_radix(&ent[2..], 16)
                    .ok()
                    .and_then(char::from_u32)
            }
            _ if ent.starts_with('#') => ent[1..].parse::<u32>().ok().and_then(char::from_u32),
            _ => None,
        };
        match expanded {
            Some(c) => {
                out.push(c);
                rest = &rest[end + 1..];
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_borrows_when_clean() {
        assert!(matches!(escape_text("hello"), Cow::Borrowed(_)));
        assert!(matches!(escape_attr("hello"), Cow::Borrowed(_)));
    }

    #[test]
    fn escape_text_basic() {
        assert_eq!(escape_text("a < b & c > d"), "a &lt; b &amp; c &gt; d");
    }

    #[test]
    fn escape_attr_quotes() {
        assert_eq!(escape_attr("say \"hi\""), "say &quot;hi&quot;");
        // text mode leaves quotes alone
        assert_eq!(escape_text("say \"hi\""), "say \"hi\"");
    }

    #[test]
    fn unescape_predefined() {
        assert_eq!(
            unescape("&lt;a&gt; &amp; &quot;b&quot; &apos;c&apos;"),
            "<a> & \"b\" 'c'"
        );
    }

    #[test]
    fn unescape_numeric() {
        assert_eq!(unescape("&#65;&#x42;&#x63;"), "ABc");
    }

    #[test]
    fn unescape_lenient_on_garbage() {
        assert_eq!(unescape("a & b"), "a & b");
        assert_eq!(unescape("fish&chips;"), "fish&chips;");
        assert_eq!(unescape("&#xZZ;"), "&#xZZ;");
    }

    #[test]
    fn roundtrip() {
        let samples = ["", "plain", "<tag attr=\"v\">&amp;</tag>", "a&b<c>d\"e'f"];
        for s in samples {
            assert_eq!(unescape(&escape_text(s)), s);
            assert_eq!(unescape(&escape_attr(s)), s);
        }
    }
}
