//! Tagged-line state serialization for checkpoint/resume.
//!
//! The resume subsystem (crate `hcapp-resume`) snapshots *all* mutable run
//! state at a control-quantum boundary and must restore it bit-for-bit: a
//! resumed run has to produce byte-identical results to one that never
//! stopped. That rules out any text format that round-trips floats through
//! decimal. This module provides the substrate both sides share:
//!
//! * [`StateWriter`] / [`StateReader`] — a line-oriented `tag value` codec.
//!   Every `f64` is stored as the 16-hex-digit IEEE-754 bit pattern (the same
//!   discipline as the `hcapp-cache` outcome codec), so restoration is exact
//!   for every value including negative zero, infinities and NaN payloads.
//! * [`Snapshot`] — the trait each stateful component implements to stream
//!   its mutable fields through a writer and back. Implementations live next
//!   to the private fields they capture; configuration (gains, capacities,
//!   delays) is deliberately *not* written — it is rebuilt from the run
//!   configuration, and a fingerprint check in the checkpoint container
//!   rejects mismatched configs before any `load_state` call runs.
//!
//! Reading is strictly sequential and tag-checked: a reader returns `None`
//! on the first tag mismatch, malformed value, or premature end of input,
//! and `Snapshot::load_state` propagates that with `?`. Corrupt or truncated
//! checkpoints therefore fail loudly at load time instead of resuming from
//! half-restored state.

/// A component whose mutable state can be checkpointed and restored.
///
/// Contract: `save_state` followed by `load_state` on a freshly-constructed
/// value (same configuration) must make the two values behave identically —
/// every subsequent observation bit-equal. `load_state` returns `None` if
/// the reader's next lines are not a well-formed snapshot of this type; the
/// value may be partially overwritten in that case and must be discarded.
pub trait Snapshot {
    /// Append this component's mutable state to `w`.
    fn save_state(&self, w: &mut StateWriter);
    /// Restore mutable state previously written by [`Snapshot::save_state`].
    fn load_state(&mut self, r: &mut StateReader<'_>) -> Option<()>;
}

/// `x` as 16 lowercase ASCII hex digits, most significant first.
///
/// Branch- and table-free (SWAR): the halving steps move nibble `i` into
/// the low half of byte `i` of a `u128`, then every byte maps to ASCII at
/// once — `'0' + v`, plus 39 more for `v >= 10` to land on `'a'..='f'`.
/// No per-byte sum exceeds 102, so no carry crosses a byte. This is the
/// checkpoint writer's inner loop: one call per window-tracker sample.
fn hex16(x: u64) -> [u8; 16] {
    const LO32: u128 = 0x0000_0000_ffff_ffff_0000_0000_ffff_ffff;
    const LO16: u128 = 0x0000_ffff_0000_ffff_0000_ffff_0000_ffff;
    const LO8: u128 = 0x00ff_00ff_00ff_00ff_00ff_00ff_00ff_00ff;
    const LO4: u128 = 0x0f0f_0f0f_0f0f_0f0f_0f0f_0f0f_0f0f_0f0f;
    const ONES: u128 = 0x0101_0101_0101_0101_0101_0101_0101_0101;
    let y = u128::from(x);
    let y = (y | y << 32) & LO32;
    let y = (y | y << 16) & LO16;
    let y = (y | y << 8) & LO8;
    let y = (y | y << 4) & LO4;
    let letters = ((y + 6 * ONES) >> 4) & ONES;
    (y + 0x30 * ONES + letters * 39).to_be_bytes()
}

/// Append `v`'s IEEE-754 bit pattern as exactly 16 lowercase hex digits —
/// the text of `format!("{:016x}", v.to_bits())`, without allocating.
fn push_f64_hex(out: &mut String, v: f64) {
    // Every byte is an ASCII hex digit, so the conversion cannot fail.
    out.push_str(std::str::from_utf8(&hex16(v.to_bits())).unwrap_or_default());
}

/// An `f64` as its 16-hex-digit IEEE-754 bit pattern. This is the one
/// bit-exact float text shared by the checkpoint state codec, the run
/// cache's outcome codec and the fuzzer's case files; [`parse_f64_hex`]
/// inverts it for every value, NaN payloads and negative zero included.
pub fn f64_hex(v: f64) -> String {
    let mut s = String::with_capacity(16);
    push_f64_hex(&mut s, v);
    s
}

/// Parse the output of [`f64_hex`]. Exactly 16 hex digits or `None`: a
/// short token is a truncated value, not a small subnormal.
pub fn parse_f64_hex(tok: &str) -> Option<f64> {
    hex_bits(tok.as_bytes()).map(f64::from_bits)
}

/// The 64-bit value spelled by exactly 16 ASCII hex digits.
fn hex_bits(digits: &[u8]) -> Option<u64> {
    if digits.len() != 16 {
        return None;
    }
    // Branch-free: random digits would mispredict a per-digit match. The
    // low nibble plus 9 for letters (bit 6 set) is the digit's value for
    // `0-9`, `a-f` and `A-F`; any other byte clears `ok`.
    let mut ok = true;
    let mut bits = 0u64;
    for &b in digits {
        ok &= b.is_ascii_hexdigit();
        bits = bits << 4 | u64::from((b & 0xf) + 9 * (b >> 6));
    }
    ok.then_some(bits)
}

/// Serializer for the tagged-line state format.
///
/// Values are written straight into one growing buffer — no temporary
/// string per value — because a checkpoint carries every window-tracker
/// sample (110,200 floats for the paper's 20 µs / 1 ms / 10 ms windows).
///
/// ```
/// use hcapp_sim_core::state::{StateReader, StateWriter};
///
/// let mut w = StateWriter::new();
/// w.f64("bias", -0.0);
/// w.u64_slice("seeds", &[1, 2, 3]);
/// let text = w.finish();
///
/// let mut r = StateReader::new(&text);
/// assert_eq!(r.f64("bias").unwrap().to_bits(), (-0.0f64).to_bits());
/// assert_eq!(r.u64_vec("seeds").unwrap(), vec![1, 2, 3]);
/// assert!(r.finished().is_some());
/// ```
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: String,
}

impl StateWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        StateWriter { buf: String::new() }
    }

    fn tag_ok(tag: &str) -> bool {
        !tag.is_empty() && tag.chars().all(|c| c.is_ascii_graphic())
    }

    /// Start a line: `tag ` (the caller writes the value and the newline).
    fn head(&mut self, tag: &str) {
        debug_assert!(Self::tag_ok(tag), "bad state tag {tag:?}");
        self.buf.push_str(tag);
        self.buf.push(' ');
    }

    /// Append an integer in decimal (the text of `v.to_string()`).
    fn push_u64(&mut self, v: u64) {
        use std::fmt::Write;
        // Writing into a `String` cannot fail.
        let _ = write!(self.buf, "{v}");
    }

    /// Write an unsigned integer line: `tag 123`.
    pub fn u64(&mut self, tag: &str, v: u64) {
        self.head(tag);
        self.push_u64(v);
        self.buf.push('\n');
    }

    /// Write a `usize` (stored as `u64`).
    pub fn usize(&mut self, tag: &str, v: usize) {
        self.u64(tag, v as u64);
    }

    /// Write a `u32` (stored as `u64`).
    pub fn u32(&mut self, tag: &str, v: u32) {
        self.u64(tag, u64::from(v));
    }

    /// Write a boolean as `0` / `1`.
    pub fn bool(&mut self, tag: &str, v: bool) {
        self.u64(tag, u64::from(v));
    }

    /// Write an `f64` as its 16-hex-digit bit pattern: `tag 3ff0000000000000`.
    pub fn f64(&mut self, tag: &str, v: f64) {
        self.head(tag);
        push_f64_hex(&mut self.buf, v);
        self.buf.push('\n');
    }

    /// Write an optional `f64`: `tag none` or `tag some <hex>`.
    pub fn opt_f64(&mut self, tag: &str, v: Option<f64>) {
        self.head(tag);
        match v {
            None => self.buf.push_str("none"),
            Some(x) => {
                self.buf.push_str("some ");
                push_f64_hex(&mut self.buf, x);
            }
        }
        self.buf.push('\n');
    }

    /// Write an optional `u64`: `tag none` or `tag some 123`.
    pub fn opt_u64(&mut self, tag: &str, v: Option<u64>) {
        self.head(tag);
        match v {
            None => self.buf.push_str("none"),
            Some(x) => {
                self.buf.push_str("some ");
                self.push_u64(x);
            }
        }
        self.buf.push('\n');
    }

    /// Write a slice of `f64` on one line: `tag <n> <hex> <hex> ...`.
    pub fn f64_slice(&mut self, tag: &str, vs: &[f64]) {
        self.buf.reserve(tag.len() + 22 + 17 * vs.len());
        self.head(tag);
        self.push_u64(vs.len() as u64);
        for &v in vs {
            self.buf.push(' ');
            push_f64_hex(&mut self.buf, v);
        }
        self.buf.push('\n');
    }

    /// Write a slice of `u64` on one line: `tag <n> <v> <v> ...`.
    pub fn u64_slice(&mut self, tag: &str, vs: &[u64]) {
        // Two bytes per value is exact for single digits; longer values
        // grow the buffer as usual.
        self.buf.reserve(tag.len() + 22 + 2 * vs.len());
        self.head(tag);
        self.push_u64(vs.len() as u64);
        for &v in vs {
            self.buf.push(' ');
            self.push_u64(v);
        }
        self.buf.push('\n');
    }

    /// Write a single-token string (no whitespace): `tag word`. Used for
    /// enum discriminants and short identifiers.
    ///
    /// # Panics
    /// Panics if `s` is empty or contains whitespace/control characters.
    pub fn token(&mut self, tag: &str, s: &str) {
        assert!(
            Self::tag_ok(s),
            "state token must be a non-empty printable word, got {s:?}"
        );
        self.head(tag);
        self.buf.push_str(s);
        self.buf.push('\n');
    }

    /// Consume the writer and return the serialized text.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Sequential, tag-checked reader for text produced by [`StateWriter`].
///
/// Every accessor consumes exactly one line; `None` means the snapshot does
/// not match what the caller expected (wrong tag, malformed value, or end
/// of input) and the load must be abandoned.
#[derive(Debug)]
pub struct StateReader<'a> {
    lines: std::str::Lines<'a>,
}

impl<'a> StateReader<'a> {
    /// Read from serialized state text.
    pub fn new(text: &'a str) -> Self {
        StateReader {
            lines: text.lines(),
        }
    }

    /// Next line's value field, if its tag matches.
    fn field(&mut self, tag: &str) -> Option<&'a str> {
        let line = self.lines.next()?;
        let (t, rest) = line.split_once(' ')?;
        if t == tag {
            Some(rest)
        } else {
            None
        }
    }

    /// Read a `u64` line.
    pub fn u64(&mut self, tag: &str) -> Option<u64> {
        self.field(tag)?.parse().ok()
    }

    /// Read a `usize` line.
    pub fn usize(&mut self, tag: &str) -> Option<usize> {
        self.u64(tag).map(|v| v as usize)
    }

    /// Read a `u32` line (rejecting out-of-range values).
    pub fn u32(&mut self, tag: &str) -> Option<u32> {
        u32::try_from(self.u64(tag)?).ok()
    }

    /// Read a boolean line (`0` or `1` only).
    pub fn bool(&mut self, tag: &str) -> Option<bool> {
        match self.u64(tag)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Read an `f64` bit-pattern line.
    pub fn f64(&mut self, tag: &str) -> Option<f64> {
        parse_f64_hex(self.field(tag)?)
    }

    /// Read an optional `f64` line.
    #[allow(clippy::option_option)]
    pub fn opt_f64(&mut self, tag: &str) -> Option<Option<f64>> {
        let rest = self.field(tag)?;
        if rest == "none" {
            return Some(None);
        }
        let tok = rest.strip_prefix("some ")?;
        parse_f64_hex(tok).map(Some)
    }

    /// Read an optional `u64` line.
    #[allow(clippy::option_option)]
    pub fn opt_u64(&mut self, tag: &str) -> Option<Option<u64>> {
        let rest = self.field(tag)?;
        if rest == "none" {
            return Some(None);
        }
        rest.strip_prefix("some ")?.parse().ok().map(Some)
    }

    /// Read an `f64` slice line into a `Vec`.
    pub fn f64_vec(&mut self, tag: &str) -> Option<Vec<f64>> {
        let rest = self.field(tag)?;
        let (count, values) = rest.split_at(rest.find(' ').unwrap_or(rest.len()));
        let n: usize = count.parse().ok()?;
        // Every value is a space and 16 hex digits, so the count fixes the
        // line length and each value's offset.
        if values.len() != n.checked_mul(17)? {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        for tok in values.as_bytes().chunks_exact(17) {
            let (b' ', hex) = tok.split_first()? else {
                return None;
            };
            out.push(f64::from_bits(hex_bits(hex)?));
        }
        Some(out)
    }

    /// Read a `u64` slice line into a `Vec`.
    pub fn u64_vec(&mut self, tag: &str) -> Option<Vec<u64>> {
        let mut toks = self.field(tag)?.split(' ');
        let n: usize = toks.next()?.parse().ok()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(toks.next()?.parse().ok()?);
        }
        if toks.next().is_some() {
            return None;
        }
        Some(out)
    }

    /// Read a single-token string line.
    pub fn token(&mut self, tag: &str) -> Option<&'a str> {
        let rest = self.field(tag)?;
        if StateWriter::tag_ok(rest) {
            Some(rest)
        } else {
            None
        }
    }

    /// Succeeds only if every line has been consumed — trailing garbage is
    /// a corrupt snapshot, not padding.
    pub fn finished(&mut self) -> Option<()> {
        if self.lines.next().is_none() {
            Some(())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = StateWriter::new();
        w.u64("a", u64::MAX);
        w.usize("b", 42);
        w.u32("c", 7);
        w.bool("d", true);
        w.bool("e", false);
        w.token("f", "Cpu");
        let text = w.finish();

        let mut r = StateReader::new(&text);
        assert_eq!(r.u64("a"), Some(u64::MAX));
        assert_eq!(r.usize("b"), Some(42));
        assert_eq!(r.u32("c"), Some(7));
        assert_eq!(r.bool("d"), Some(true));
        assert_eq!(r.bool("e"), Some(false));
        assert_eq!(r.token("f"), Some("Cpu"));
        assert!(r.finished().is_some());
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        let specials = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN with payload
            1.0 / 3.0,
        ];
        let mut w = StateWriter::new();
        for v in specials {
            w.f64("v", v);
        }
        let text = w.finish();
        let mut r = StateReader::new(&text);
        for v in specials {
            assert_eq!(r.f64("v").unwrap().to_bits(), v.to_bits());
        }
        assert!(r.finished().is_some());
    }

    #[test]
    fn fast_writers_match_format() {
        let mut rng = crate::rng::DeterministicRng::new(0x5eed);
        let specials = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_dead_beef),
            f64::from_bits(1),
            f64::from_bits(0x0123_4567_89ab_cdef),
            f64::from_bits(0xfedc_ba98_7654_3210),
            1.0 / 3.0,
        ];
        let randoms: Vec<f64> = (0..10_000).map(|_| f64::from_bits(rng.next_u64())).collect();
        for v in specials.iter().chain(&randoms).copied() {
            let want = format!("{:016x}", v.to_bits());
            assert_eq!(f64_hex(v), want);
            assert_eq!(parse_f64_hex(&want).map(f64::to_bits), Some(v.to_bits()));
            let mut w = StateWriter::new();
            w.f64("v", v);
            w.opt_f64("o", Some(v));
            assert_eq!(w.finish(), format!("v {want}\no some {want}\n"));
        }
        let mut w = StateWriter::new();
        w.f64_slice("xs", &randoms);
        let want: String = randoms.iter().map(|v| format!(" {:016x}", v.to_bits())).collect();
        assert_eq!(w.finish(), format!("xs {}{want}\n", randoms.len()));

        let ints = [0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX - 1, u64::MAX];
        for v in ints {
            let mut w = StateWriter::new();
            w.u64("n", v);
            w.opt_u64("o", Some(v));
            let want = v.to_string();
            assert_eq!(w.finish(), format!("n {want}\no some {want}\n"));
        }
        let mut w = StateWriter::new();
        w.u64_slice("ns", &ints);
        let want: String = ints.iter().map(|v| " ".to_string() + &v.to_string()).collect();
        assert_eq!(w.finish(), format!("ns {}{want}\n", ints.len()));
    }

    #[test]
    fn parse_f64_hex_wants_exactly_16_hex_digits() {
        assert_eq!(parse_f64_hex("3FF0000000000000"), Some(1.0));
        // Every byte in every position: accepted exactly when it is a hex
        // digit, and then with `from_str_radix`'s value.
        for b in 0..=u8::MAX {
            for pos in [0, 7, 15] {
                let mut tok = *b"0123456789abcdef";
                tok[pos] = b;
                let want = std::str::from_utf8(&tok)
                    .ok()
                    .filter(|_| b.is_ascii_hexdigit())
                    .and_then(|t| u64::from_str_radix(t, 16).ok());
                assert_eq!(hex_bits(&tok), want, "byte {b:#04x} at {pos}");
            }
        }
        for tok in ["", "ab", "3ff000000000000", "3ff00000000000000", "+ff0000000000000", "3ff000000000000g"] {
            assert!(parse_f64_hex(tok).is_none(), "accepted {tok:?}");
        }
    }

    #[test]
    fn option_round_trip() {
        let mut w = StateWriter::new();
        w.opt_f64("a", None);
        w.opt_f64("b", Some(-0.0));
        w.opt_u64("c", None);
        w.opt_u64("d", Some(9));
        let text = w.finish();
        let mut r = StateReader::new(&text);
        assert_eq!(r.opt_f64("a"), Some(None));
        assert_eq!(
            r.opt_f64("b").unwrap().unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(r.opt_u64("c"), Some(None));
        assert_eq!(r.opt_u64("d"), Some(Some(9)));
    }

    #[test]
    fn slice_round_trip() {
        let mut w = StateWriter::new();
        w.f64_slice("xs", &[1.5, -0.0, f64::NAN]);
        w.f64_slice("empty", &[]);
        w.u64_slice("ns", &[3, 2, 1]);
        let text = w.finish();
        let mut r = StateReader::new(&text);
        let xs = r.f64_vec("xs").unwrap();
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[1].to_bits(), (-0.0f64).to_bits());
        assert!(xs[2].is_nan());
        assert_eq!(r.f64_vec("empty").unwrap(), Vec::<f64>::new());
        assert_eq!(r.u64_vec("ns").unwrap(), vec![3, 2, 1]);
        assert!(r.finished().is_some());
    }

    #[test]
    fn tag_mismatch_is_none() {
        let mut w = StateWriter::new();
        w.u64("right", 1);
        let text = w.finish();
        let mut r = StateReader::new(&text);
        assert_eq!(r.u64("wrong"), None);
    }

    #[test]
    fn malformed_values_are_none() {
        for line in [
            "x",                      // no value
            "x 12 34",                // trailing token on scalar parse
            "x deadbeef",             // f64 hex too short
            "x zzzzzzzzzzzzzzzz",     // f64 not hex
            "x 2 3ff0000000000000",   // slice count mismatch
            "x maybe 123",            // bad option discriminant
        ] {
            let mut r = StateReader::new(line);
            assert!(r.u64("x").is_none(), "u64 accepted {line:?}");
            let mut r = StateReader::new(line);
            assert!(r.f64("x").is_none(), "f64 accepted {line:?}");
            let mut r = StateReader::new(line);
            assert!(r.f64_vec("x").is_none(), "f64_vec accepted {line:?}");
            let mut r = StateReader::new(line);
            assert!(r.opt_u64("x").is_none(), "opt_u64 accepted {line:?}");
        }
    }

    #[test]
    fn truncated_input_is_none() {
        let mut r = StateReader::new("");
        assert_eq!(r.u64("x"), None);
        assert!(StateReader::new("").finished().is_some());
    }

    #[test]
    fn trailing_garbage_fails_finished() {
        let mut w = StateWriter::new();
        w.u64("a", 1);
        w.u64("b", 2);
        let text = w.finish();
        let mut r = StateReader::new(&text);
        assert_eq!(r.u64("a"), Some(1));
        assert!(r.finished().is_none());
    }

    #[test]
    #[should_panic(expected = "printable word")]
    fn token_with_space_panics() {
        StateWriter::new().token("t", "two words");
    }
}
