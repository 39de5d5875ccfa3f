//! The CSV-ish input grammar, and the loaders that read it.
//!
//! A file is one record per line, fields separated by `,`. A field with
//! its surrounding whitespace dropped (Unicode whitespace, so a `\r`
//! before the line end too) is null when it spells `null` in any case, an
//! integer where `str::parse::<i64>` reads one, and text otherwise. A line
//! that is all whitespace holds no record. [`classify`] is that rule for
//! one field, stated once.
//!
//! The loaders walk the text's bytes once, front to back. At each field
//! start an integer recogniser tries the one spelling that makes up almost
//! every byte of a numeric file — an optional `-`, 1 to 18 ASCII digits,
//! then `,`, a line end or the end of the text — and yields the integer
//! without cutting a `&str`; any other field (padded, `+5`, 19 digits or
//! more, `null`, text, empty) is cut at its `,` or line end and handed to
//! [`classify`] whole. The recogniser accepts only spellings `classify`
//! reads as the same integer, so the result is `classify`'s for every
//! field. A blank line needs no second pass either: it is the one field
//! that starts its line, ends it, and classifies as the empty text.

use std::fmt;

use crate::batch::{Batch, Cell, ColumnBuilder};
use crate::value::{Record, Value};

/// The field grammar: surrounding whitespace is dropped, `null` (any
/// case) is null, an integer where `i64` parses one, everything else text.
pub fn classify(field: &str) -> Cell<'_> {
    let field = field.trim();
    if field.eq_ignore_ascii_case("null") {
        Cell::Null
    } else if let Ok(i) = field.parse::<i64>() {
        Cell::Int(i)
    } else {
        Cell::Str(field)
    }
}

/// The longest digit run the recogniser takes: `10^18 - 1` fits an `i64`
/// under either sign, so no accepted spelling overflows.
const MAX_DIGITS: usize = 18;

/// The value of eight decimal digits held one per byte (`0..=9`), the
/// most significant in the lowest byte: adjacent bytes, then 16-bit and
/// 32-bit lanes are merged pairwise, each by one multiply.
fn eight_digits(word: u64) -> u64 {
    let pairs = (word.wrapping_mul(10 * (1 << 8) + 1) >> 8) & 0x00FF_00FF_00FF_00FF;
    let quads = (pairs.wrapping_mul(100 * (1 << 16) + 1) >> 16) & 0x0000_FFFF_0000_FFFF;
    quads.wrapping_mul(10_000 * (1 << 32) + 1) >> 32
}

/// Recognises an integer field starting at `bytes[at]`: an optional `-`,
/// 1 to [`MAX_DIGITS`] ASCII digits, ended exactly by `,`, `\n` or the end
/// of the text. Returns the value and the index of what ended it; `None`
/// for any other spelling, whatever it classifies as.
#[inline(always)]
fn int_field(bytes: &[u8], at: usize) -> Option<(i64, usize)> {
    let signed = |negative: bool, magnitude: u64| {
        let value = i64::try_from(magnitude).ok()?;
        Some(if negative { -value } else { value })
    };
    let (negative, mut magnitude, mut end);
    if let Some(chunk) = bytes.get(at..).and_then(|rest| rest.first_chunk::<8>()) {
        // One load serves the sign, the digits and what ends them. With
        // the sign shifted out (a zero byte comes in at the top) and the
        // ASCII zeros xored out, a digit's byte is 0..=9; adding 0x76 sets
        // the top bit of any byte above 9 (a byte that had it set keeps it
        // through the `|`), and a carry can only leave a byte that is
        // already flagged, so the lowest flag marks the first byte that
        // is not a digit.
        let word = u64::from_le_bytes(*chunk);
        negative = word as u8 == b'-';
        let word = word >> (8 * u32::from(negative));
        let zeroed = word ^ 0x3030_3030_3030_3030;
        let not_digit =
            (zeroed.wrapping_add(0x7676_7676_7676_7676) | zeroed) & 0x8080_8080_8080_8080;
        let digits = not_digit.trailing_zeros() / 8;
        if digits == 0 {
            return None;
        }
        // Shifted up, the bytes past the run fall off and zeros lead it.
        magnitude = eight_digits(zeroed << (64 - 8 * digits));
        end = at + usize::from(negative) + digits as usize;
        if digits < 8 && matches!((word >> (8 * digits)) as u8, b',' | b'\n') {
            return Some((signed(negative, magnitude)?, end));
        }
    } else {
        negative = bytes.get(at) == Some(&b'-');
        (magnitude, end) = (0, at + usize::from(negative));
    }
    // Runs that reach past the word, and the last seven bytes of the text.
    let start = at + usize::from(negative);
    while let Some(digit) = bytes
        .get(end)
        .map(|b| b.wrapping_sub(b'0'))
        .filter(|d| *d < 10)
    {
        if end - start == MAX_DIGITS {
            return None;
        }
        magnitude = magnitude * 10 + u64::from(digit);
        end += 1;
    }
    if end == start || !matches!(bytes.get(end), None | Some(b',' | b'\n')) {
        return None;
    }
    Some((signed(negative, magnitude)?, end))
}

/// A cursor over the fields of a text, in order. Every `,` and `\n` ends
/// a field, so a text that ends in one has an empty last field.
struct Fields<'a> {
    text: &'a str,
    /// Where the next field starts; past the text once it is exhausted.
    at: usize,
}

impl<'a> Fields<'a> {
    fn new(text: &'a str) -> Self {
        Fields { text, at: 0 }
    }

    fn done(&self) -> bool {
        self.at > self.text.len()
    }

    /// Whether the field just taken ended its line: what ended it was not
    /// a `,` (the last field of the text ends its line).
    #[inline(always)]
    fn ended_line(&self) -> bool {
        let ended_at = self.at.wrapping_sub(1);
        self.text.as_bytes().get(ended_at) != Some(&b',')
    }

    /// Takes the next field if the recogniser reads it.
    #[inline(always)]
    fn int(&mut self) -> Option<i64> {
        let (i, end) = int_field(self.text.as_bytes(), self.at)?;
        self.at = end + 1;
        Some(i)
    }

    /// Takes the next field whatever it spells: cut at its `,` or line
    /// end and classified whole. Kept out of line: the scan's loop is the
    /// recogniser.
    #[inline(never)]
    fn classified(&mut self) -> Cell<'a> {
        let bytes = self.text.as_bytes();
        let ended = bytes
            .iter()
            .skip(self.at)
            .position(|b| matches!(b, b',' | b'\n'));
        let end = ended.map_or(bytes.len(), |i| self.at + i);
        // `,` and `\n` are ASCII, so the cut is on character boundaries.
        let cell = classify(&self.text[self.at..end]);
        self.at = end + 1;
        cell
    }
}

/// Each field with whether it ended its line.
impl<'a> Iterator for Fields<'a> {
    type Item = (Cell<'a>, bool);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done() {
            return None;
        }
        let cell = match self.int() {
            Some(i) => Cell::Int(i),
            None => self.classified(),
        };
        Some((cell, self.ended_line()))
    }
}

/// A line that holds no record is all whitespace: the one field that
/// starts its line, ends it and classifies as the empty text.
fn is_blank_line(cell: Cell<'_>, fields_before: usize, ends_line: bool) -> bool {
    fields_before == 0 && ends_line && cell == Cell::Str("")
}

/// Why a text has no columnar form: two of its records disagree on their
/// field count. Lines are counted from 1, blank ones included.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ragged {
    /// The first line whose field count is not the first record's.
    pub line: usize,
    /// That line's field count.
    pub fields: usize,
    /// The line of the first record.
    pub first_line: usize,
    /// The first record's field count.
    pub first_fields: usize,
}

impl fmt::Display for Ragged {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ragged: line {} has {} fields, line {} has {}",
            self.line, self.fields, self.first_line, self.first_fields
        )
    }
}

/// The builder of a record's field `col`. The first record (`growing`)
/// makes a column per field, empty: columns grow as the scan goes, so the
/// text is walked once. After it a field past the last column has none,
/// and is only counted, for the error.
#[inline(always)]
fn column_at(
    columns: &mut Vec<ColumnBuilder>,
    col: usize,
    growing: bool,
) -> Option<&mut ColumnBuilder> {
    if growing && col == columns.len() {
        columns.push(ColumnBuilder::with_capacity(0));
    }
    columns.get_mut(col)
}

/// Parses CSV-ish text column-wise: equal, layouts included, to
/// [`Batch::from_records`] over [`parse_records`].
///
/// # Errors
///
/// [`Ragged`], naming the first odd line, when two records disagree on
/// their field count: no batch holds them.
pub fn scan_columns(text: &str) -> Result<Batch, Ragged> {
    let mut columns: Vec<ColumnBuilder> = Vec::new();
    // The line and field count of the first record, once it has ended.
    let mut first: Option<(usize, usize)> = None;
    let (mut line, mut col, mut len) = (1, 0, 0);
    let mut fields = Fields::new(text);
    while !fields.done() {
        let growing = first.is_none();
        // Two arms on purpose: merged into one `Cell` and one push, the
        // integer's cell goes through memory and the scan takes a quarter
        // longer.
        match fields.int() {
            Some(i) => {
                if let Some(column) = column_at(&mut columns, col, growing) {
                    column.push(Cell::Int(i));
                }
                col += 1;
            }
            None => {
                let cell = fields.classified();
                if !is_blank_line(cell, col, fields.ended_line()) {
                    if let Some(column) = column_at(&mut columns, col, growing) {
                        column.push(cell);
                    }
                    col += 1;
                }
            }
        }
        if !fields.ended_line() {
            continue;
        }
        if col > 0 {
            match first {
                None => {
                    first = Some((line, col));
                    for column in &mut columns {
                        column.reserve_str_bytes(text.len() / col);
                    }
                }
                Some((first_line, first_fields)) if first_fields != col => {
                    return Err(Ragged {
                        line,
                        fields: col,
                        first_line,
                        first_fields,
                    });
                }
                Some(_) => {}
            }
            len += 1;
        }
        (line, col) = (line + 1, 0);
    }
    let columns = columns.into_iter().map(ColumnBuilder::finish).collect();
    Ok(Batch::from_columns(columns, len))
}

/// [`scan_columns`], with `None` for a ragged text.
pub fn parse_columns(text: &str) -> Option<Batch> {
    scan_columns(text).ok()
}

/// Parses CSV-ish text into one record per non-blank line; the lines
/// need not agree on their field count.
pub fn parse_records(text: &str) -> Vec<Record> {
    let mut records = Vec::new();
    let mut fields: Vec<Value> = Vec::new();
    for (cell, ends_line) in Fields::new(text) {
        if !is_blank_line(cell, fields.len(), ends_line) {
            fields.push(cell.into());
        }
        if ends_line && !fields.is_empty() {
            records.push(Record::new(std::mem::take(&mut fields)));
        }
    }
    records
}

/// Parses one CSV-ish line into a record: integers where possible, `null`
/// as null, everything else as text. A blank line is one empty text
/// field; a line end ends the record.
pub fn parse_record(line: &str) -> Record {
    let mut fields = Vec::new();
    for (cell, ends_line) in Fields::new(line) {
        fields.push(Value::from(cell));
        if ends_line {
            break;
        }
    }
    Record::new(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spellings at every edge of the recogniser: digit counts around the
    /// word and the cap, the ends of `i64`, signs, padding in ASCII and
    /// Unicode whitespace, and fields that are not integers at all. None
    /// holds a `,` or a `\n`.
    const SPELLINGS: &[&str] = &[
        "0",
        "7",
        "-0",
        "007",
        "1234567",
        "12345678",
        "123456789",
        "12345678901234567",
        "123456789012345678",
        "999999999999999999",
        "-999999999999999999",
        "1234567890123456789",
        "12345678901234567890",
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775808",
        "-9223372036854775809",
        "00000000000000000001",
        "18446744073709551617",
        "99999999999999999999",
        "-36893488147419103233",
        "-",
        "--1",
        "-12345678",
        "-1234567",
        "+5",
        "+12345678",
        "- 1",
        "5\r",
        "12345678\r",
        "5 ",
        "5\t",
        " 5",
        "\u{a0}5",
        "5\u{a0}",
        "\u{2003}12\u{2003}",
        "\u{3000}-3",
        "4\u{3000}",
        "é7",
        "7é",
        "1234567é",
        "12345678é",
        "null",
        "NULL",
        "Null",
        " nUlL\t",
        "nul",
        "nulls",
        "",
        " ",
        "\r",
        "a",
        " a b ",
        "0x7",
        "1_0",
        "1.5",
        "1e3",
        "1-2",
        "12a",
        "1234567a",
        "12345678a",
        "/",
        ":",
    ];

    /// The reference loader: `str` methods and [`classify`] only.
    fn naive_rows(text: &str) -> Vec<Record> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| l.split(',').map(|f| Value::from(classify(f))).collect())
            .collect()
    }

    fn assert_loads_like_the_reference(text: &str) {
        let rows = naive_rows(text);
        assert_eq!(parse_records(text), rows, "{text:?}");
        let ragged = rows.iter().any(|r| r.arity() != rows[0].arity());
        let parsed = parse_columns(text);
        assert_eq!(parsed.is_none(), ragged, "{text:?}");
        if !ragged {
            assert_eq!(parsed, Batch::from_records(&rows), "{text:?}");
        }
    }

    #[test]
    fn every_spelling_scans_to_what_classify_reads() {
        for spelling in SPELLINGS {
            let expected = classify(spelling);
            // Alone (the last bytes of a text), before each terminator,
            // and with a word or more of text on either side.
            for (before, after) in [
                ("", ""),
                ("", ","),
                ("", "\n"),
                ("", ",123456789012"),
                ("", "\n123456789012"),
                ("123456789012,", ""),
                ("x,", ",y"),
            ] {
                let text = format!("{before}{spelling}{after}");
                let nth = before.matches(',').count();
                let field = Fields::new(&text).nth(nth).map(|(cell, _)| cell);
                assert_eq!(field, Some(expected), "{text:?}");
            }
            assert_eq!(
                parse_record(spelling).fields(),
                &[Value::from(expected)],
                "{spelling:?}"
            );
        }
    }

    #[test]
    fn every_spelling_loads_like_the_reference_in_either_column() {
        for spelling in SPELLINGS {
            for text in [
                format!("{spelling},1\n{spelling},2\n3,{spelling}"),
                format!("1,{spelling}\n\n2,{spelling}\r\n"),
                format!("{spelling}\n{spelling}"),
            ] {
                assert_loads_like_the_reference(&text);
            }
        }
    }

    #[test]
    fn lines_and_short_texts_load_like_the_reference() {
        for text in [
            "",
            "\n",
            "\r",
            "\r\n",
            "1",
            "-1",
            "1,",
            ",1",
            ",",
            ",\n,",
            "1,\n,1\n,",
            "1,2",
            "12,3456",
            "1\n\r\n2",
            "1,2\n\r\n3,4\n\r",
            "\n\n1,2\n3,4",
            " \t\n1\n",
            "\u{3000}\n1,2\n\u{a0}\n",
            "1234567,1234567",
            "12345678,12345678",
            "20200101,-42\n20200102,7",
            "1,2\n3,4\n1234567890,1234567",
            "1,2\n3,4\n5,123456",
            "1,2\n3\n4,5",
            "1\n2,3",
            "1,2\n3,4,5,6\n7",
            "\n1,2\n\n3,4,5",
            "a,b\nc",
            "null,x\nnull,y\n1,z",
        ] {
            assert_loads_like_the_reference(text);
            let first_line = text.split('\n').next().unwrap();
            let fields: Vec<Value> = first_line.split(',').map(|f| classify(f).into()).collect();
            assert_eq!(parse_record(text).fields(), &fields[..], "{text:?}");
        }
    }

    #[test]
    fn a_ragged_text_names_its_first_odd_line() {
        let odd = |text| scan_columns(text).map(|b| b.len());
        assert_eq!(odd("1,2\n3,4\n"), Ok(2));
        assert_eq!(
            odd("1,2\n3\n4,5,6"),
            Err(Ragged {
                line: 2,
                fields: 1,
                first_line: 1,
                first_fields: 2
            })
        );
        let err = odd("\n \n1,2\n\n3,4\n5,6,7,8\n9").unwrap_err();
        assert_eq!(err.to_string(), "ragged: line 6 has 4 fields, line 3 has 2");
    }
}
