//! The packed series key: a series name as one byte string.
//!
//! A field — a measurement, a tag key or a tag value — is packed as its
//! bytes with every `0x00` escaped as `00 FF`, then the terminator
//! `00 01`; a tag set packs as its `(key, value)` pairs in order. The
//! encoding is self-delimiting and, byte string against byte string,
//! orders exactly as the fields do ([`TagSet`] order for a tag set):
//!
//! * two fields that first differ at a byte compare by that byte, and an
//!   escaped `0x00` (`00 FF`) still sorts below any byte a string can
//!   hold there instead, since that byte is not `0x00`;
//! * a field that is a proper prefix of another ends with `00 01` where
//!   the other continues with a byte ≥ `0x01` or with `00 FF` — so the
//!   shorter sorts first, as it does as a string;
//! * a tag set that is a prefix of another ends where the other goes on,
//!   and sorts first, as the shorter map does.
//!
//! A `0x00` byte in a packed key always opens an escape or a terminator,
//! so the first `00 01` ends the first field, and a packed prefix of
//! whole fields selects exactly the keys that begin with those fields.

use std::borrow::Cow;

use crate::point::TagSet;

const TERMINATOR: [u8; 2] = [0x00, 0x01];
const ESCAPED_NUL: [u8; 2] = [0x00, 0xFF];

/// Appends one packed field to `out`.
pub(crate) fn push_field(out: &mut Vec<u8>, field: &str) {
    for (i, run) in field.as_bytes().split(|&b| b == 0).enumerate() {
        if i > 0 {
            out.extend_from_slice(&ESCAPED_NUL);
        }
        out.extend_from_slice(run);
    }
    out.extend_from_slice(&TERMINATOR);
}

/// Overwrites `out` with the packed form of `tags`.
pub(crate) fn pack_tags(out: &mut Vec<u8>, tags: &TagSet) {
    out.clear();
    for (key, value) in tags {
        push_field(out, key);
        push_field(out, value);
    }
}

/// The first packed field of `packed` (escaped, terminator stripped) and
/// everything after it; `None` once `packed` is empty.
pub(crate) fn split_field(packed: &[u8]) -> Option<(&[u8], &[u8])> {
    let mut at = 0;
    loop {
        at += packed[at..].iter().position(|&b| b == 0)?;
        if packed[at + 1] == TERMINATOR[1] {
            return Some((&packed[..at], &packed[at + 2..]));
        }
        at += 2;
    }
}

/// The packed fields of `packed`, in order.
fn fields(mut packed: &[u8]) -> impl Iterator<Item = &[u8]> {
    std::iter::from_fn(move || {
        let (field, rest) = split_field(packed)?;
        packed = rest;
        Some(field)
    })
}

/// Appends the string an escaped field packs.
fn unescape_into(field: &[u8], out: &mut String) {
    for (i, run) in field.split(|&b| b == 0).enumerate() {
        // After the first, every run starts with the `FF` of an escape.
        let run = if i > 0 {
            out.push('\0');
            &run[1..]
        } else {
            run
        };
        out.push_str(std::str::from_utf8(run).expect("packed from a str"));
    }
}

/// The string an escaped field packs, borrowed unless it held a `0x00`.
pub(crate) fn unescape(field: &[u8]) -> Cow<'_, str> {
    if field.contains(&0) {
        let mut out = String::new();
        unescape_into(field, &mut out);
        Cow::Owned(out)
    } else {
        Cow::Borrowed(std::str::from_utf8(field).expect("packed from a str"))
    }
}

/// Overwrites `tags` with the tag set `packed` holds. When `tags`
/// already has the same keys — every series of a measurement, as the
/// probes write them — only the values are rewritten, in the strings
/// already there.
pub(crate) fn unpack_tags(packed: &[u8], tags: &mut TagSet) {
    let mut fields = fields(packed);
    let mut held = tags.iter_mut();
    let same_keys = loop {
        match (held.next(), fields.next()) {
            (Some((key, value)), Some(key_field)) if unescape(key_field) == key.as_str() => {
                value.clear();
                unescape_into(
                    fields.next().expect("a key is followed by its value"),
                    value,
                );
            }
            (None, None) => break true,
            _ => break false,
        }
    };
    if !same_keys {
        tags.clear();
        let mut fields = self::fields(packed);
        while let Some(key) = fields.next() {
            let value = fields.next().expect("a key is followed by its value");
            tags.insert(unescape(key).into_owned(), unescape(value).into_owned());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags(pairs: &[(&str, &str)]) -> TagSet {
        pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    fn packed(tags: &TagSet) -> Vec<u8> {
        let mut out = Vec::new();
        pack_tags(&mut out, tags);
        out
    }

    #[test]
    fn byte_order_is_tag_set_order_on_the_edge_cases() {
        let strings = [
            "", "\0", "\0\0", "\u{1}", "\0\u{1}", "a", "a\0", "a\0b", "ab", "a\u{1}", "b", "\u{ff}",
        ];
        let mut sets = vec![TagSet::new()];
        for &k in &strings[..6] {
            for &v in &strings {
                sets.push(tags(&[(k, v)]));
                for &w in &strings[3..] {
                    sets.push(tags(&[(k, v), ("z", w)]));
                }
            }
        }
        for a in &sets {
            for b in &sets {
                assert_eq!(packed(a).cmp(&packed(b)), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn unpacking_inverts_packing_reusing_or_rebuilding_the_scratch() {
        let mut scratch = TagSet::new();
        for set in [
            tags(&[("nodename", "n1"), ("pod_name", "pod-1")]),
            tags(&[("nodename", "node-\0-2"), ("pod_name", "")]),
            tags(&[("pod_name", "p")]),
            TagSet::new(),
            tags(&[("\0", "\0\u{1}"), ("a", "b")]),
        ] {
            unpack_tags(&packed(&set), &mut scratch);
            assert_eq!(scratch, set);
        }
    }

    #[test]
    fn split_field_finds_the_first_terminator_past_escapes() {
        let mut out = Vec::new();
        push_field(&mut out, "m\0\u{1}");
        push_field(&mut out, "rest");
        let (first, rest) = split_field(&out).unwrap();
        assert_eq!(unescape(first), "m\0\u{1}");
        assert_eq!(unescape(split_field(rest).unwrap().0), "rest");
        assert_eq!(split_field(&[]), None);
    }
}
