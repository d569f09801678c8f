//! Crash-safe checkpoint container: the `hcapp.ckpt` format and its store.
//!
//! A checkpoint captures *all* mutable run state at a control-quantum
//! boundary so a killed run can resume and produce byte-identical results
//! to one that never stopped (see `core::run_resumable` and DESIGN §6h).
//! This crate owns the durable half of that contract:
//!
//! * [`Checkpoint`] — a versioned container of named state sections. Each
//!   section payload is tagged-line text produced by
//!   [`hcapp_sim_core::state::StateWriter`], so every `f64` travels as its
//!   IEEE-754 bit pattern — the same hex discipline as the `hcapp-cache`
//!   outcome codec. The container records the quantum the snapshot was
//!   taken at, the byte offset of the stitched trace sink, and a 32-hex
//!   fingerprint of the run configuration; a trailing [`hcapp_cache::Hasher`]
//!   checksum over the entire body rejects torn or corrupted files.
//! * [`CheckpointStore`] — atomic persistence with two-slot rotation.
//!   Writes go to a temp file in the same directory and are `rename`d into
//!   place, and the previous checkpoint is kept as `<path>.1`, so a crash at
//!   *any* instant — including mid-write — leaves at least one valid
//!   checkpoint on disk. [`CheckpointStore::latest_valid`] scans both slots,
//!   drops anything with a bad checksum or a foreign config fingerprint,
//!   and returns the survivor with the highest quantum.
//!
//! What is deliberately *not* here: the per-component state schemas (those
//! live next to the private fields they serialize, behind
//! [`hcapp_sim_core::state::Snapshot`]) and the resume driver itself
//! (`core::run_resumable`), which decides when to snapshot and how to
//! stitch the trace stream across the seam.

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::fmt::Write as _;
use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

use hcapp_cache::Hasher;

/// Schema header line; bump the version on any incompatible layout change.
pub const SCHEMA: &str = "hcapp.ckpt v1";

/// A decoded (or under-construction) checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// 32-hex fingerprint of the run configuration the snapshot belongs to.
    pub config: String,
    /// Control quanta completed when the snapshot was taken.
    pub quantum: u64,
    /// Byte length of the stitched trace sink at the snapshot boundary
    /// (0 when the run has no trace sink). Resume truncates the sink to
    /// this offset before appending, which erases any events the killed
    /// process emitted past its last checkpoint.
    pub trace_offset: u64,
    sections: Vec<(String, String)>,
}

fn token_ok(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_graphic())
}

fn fingerprint_ok(s: &str) -> bool {
    s.len() == 32 && s.chars().all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase())
}

impl Checkpoint {
    /// Start an empty checkpoint for the given config fingerprint.
    ///
    /// # Panics
    /// Panics if `config` is not 32 lowercase hex digits.
    pub fn new(config: &str, quantum: u64, trace_offset: u64) -> Self {
        assert!(
            fingerprint_ok(config),
            "config fingerprint must be 32 lowercase hex digits, got {config:?}"
        );
        Checkpoint {
            config: config.to_string(),
            quantum,
            trace_offset,
            sections: Vec::new(),
        }
    }

    /// Append a named state section. Section order is part of the format —
    /// the resume driver writes and reads them in a fixed sequence.
    ///
    /// The payload must be whole lines: empty, or ending in `\n`, with no
    /// `\r` anywhere — exactly what [`hcapp_sim_core::state::StateWriter`]
    /// produces. [`Checkpoint::encode`] copies it verbatim and counts its
    /// `\n` bytes, so this is what makes the file byte-stable under
    /// decode/re-encode.
    ///
    /// # Panics
    /// Panics on a malformed name, a duplicate, or a payload that is not
    /// whole `\r`-free lines.
    pub fn add_section(&mut self, name: &str, payload: String) {
        assert!(token_ok(name), "bad section name {name:?}");
        assert!(
            self.section(name).is_none(),
            "duplicate checkpoint section {name:?}"
        );
        assert!(
            payload_ok(&payload),
            "section {name:?} payload must be \\n-terminated lines without \\r"
        );
        self.sections.push((name.to_string(), payload));
    }

    /// Payload of the named section, if present.
    pub fn section(&self, name: &str) -> Option<&str> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.as_str())
    }

    /// Section names in file order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// Serialize to the on-disk text format (checksum included).
    ///
    /// The output is sized once and every payload is copied whole; a
    /// section header's line count is the number of `\n` bytes in its
    /// payload ([`Checkpoint::add_section`] guarantees whole lines).
    pub fn encode(&self) -> String {
        let sections_len: usize = self
            .sections
            .iter()
            .map(|(name, payload)| name.len() + payload.len() + 32)
            .sum();
        let mut out = String::with_capacity(SCHEMA.len() + 160 + sections_len);
        out.push_str(SCHEMA);
        out.push('\n');
        // Writing into a `String` cannot fail.
        let _ = writeln!(out, "config {}", self.config);
        let _ = writeln!(out, "quantum {}", self.quantum);
        let _ = writeln!(out, "trace_offset {}", self.trace_offset);
        let _ = writeln!(out, "sections {}", self.sections.len());
        for (name, payload) in &self.sections {
            let n_lines = payload.matches('\n').count();
            let _ = writeln!(out, "section {name} {n_lines}");
            out.push_str(payload);
        }
        let sum = Self::checksum(&out);
        let _ = writeln!(out, "checksum {sum}");
        out
    }

    /// Parse and verify an on-disk checkpoint.
    pub fn decode(text: &str) -> Result<Checkpoint, String> {
        // The checksum line covers every byte before it; verify first so a
        // torn write can never half-parse.
        let body_end = text
            .rfind("checksum ")
            .ok_or_else(|| "missing checksum line".to_string())?;
        let (body, sum_line) = text.split_at(body_end);
        if !body.is_empty() && !body.ends_with('\n') {
            return Err("checksum not at start of line".to_string());
        }
        let sum_line = sum_line
            .strip_prefix("checksum ")
            .expect("split at checksum prefix");
        let sum = sum_line
            .strip_suffix('\n')
            .ok_or_else(|| "unterminated checksum line".to_string())?;
        if !fingerprint_ok(sum) {
            return Err(format!("malformed checksum {sum:?}"));
        }
        let expect = Self::checksum(body);
        if sum != expect {
            return Err(format!("checksum mismatch: file {sum}, computed {expect}"));
        }

        let mut rest = body;
        let header = next_line(&mut rest).ok_or_else(|| "empty checkpoint".to_string())?;
        if header != SCHEMA {
            return Err(format!("unsupported schema {header:?} (want {SCHEMA:?})"));
        }
        let config = field(next_line(&mut rest), "config")?.to_string();
        if !fingerprint_ok(&config) {
            return Err(format!("malformed config fingerprint {config:?}"));
        }
        let quantum = parse_u64(field(next_line(&mut rest), "quantum")?)?;
        let trace_offset = parse_u64(field(next_line(&mut rest), "trace_offset")?)?;
        let n_sections = parse_u64(field(next_line(&mut rest), "sections")?)? as usize;

        let mut ck = Checkpoint {
            config,
            quantum,
            trace_offset,
            sections: Vec::with_capacity(n_sections.min(rest.len())),
        };
        for _ in 0..n_sections {
            let head = field(next_line(&mut rest), "section")?;
            let (name, count) = head
                .split_once(' ')
                .ok_or_else(|| format!("malformed section header {head:?}"))?;
            if !token_ok(name) || ck.section(name).is_some() {
                return Err(format!("bad or duplicate section name {name:?}"));
            }
            // The payload is the next `n_lines` lines, sliced out whole.
            let n_lines = parse_u64(count)? as usize;
            let len = match n_lines.checked_sub(1) {
                None => 0,
                Some(last) => {
                    rest.match_indices('\n')
                        .nth(last)
                        .ok_or_else(|| format!("section {name:?} truncated"))?
                        .0
                        + 1
                }
            };
            let (payload, tail) = rest.split_at(len);
            if !payload_ok(payload) {
                return Err(format!("section {name:?} contains \\r"));
            }
            ck.sections.push((name.to_string(), payload.to_string()));
            rest = tail;
        }
        if !rest.is_empty() {
            return Err("trailing garbage after sections".to_string());
        }
        Ok(ck)
    }

    fn checksum(body: &str) -> String {
        let mut h = Hasher::new();
        h.write_str("hcapp.ckpt.checksum");
        h.write_str(body);
        h.finish().to_hex()
    }
}

/// Whole `\r`-free lines: empty, or ending in `\n`.
fn payload_ok(payload: &str) -> bool {
    (payload.is_empty() || payload.ends_with('\n')) && !payload.as_bytes().contains(&b'\r')
}

/// Split the next `\n`-terminated line off the front of `rest` (without
/// its terminator). `None` when no complete line is left.
fn next_line<'a>(rest: &mut &'a str) -> Option<&'a str> {
    let (line, tail) = rest.split_once('\n')?;
    *rest = tail;
    Some(line)
}

fn field<'a>(line: Option<&'a str>, tag: &str) -> Result<&'a str, String> {
    let line = line.ok_or_else(|| format!("missing {tag} line"))?;
    line.strip_prefix(tag)
        .and_then(|r| r.strip_prefix(' '))
        .ok_or_else(|| format!("expected {tag} line, got {line:?}"))
}

/// The quantum a checkpoint file's header claims, unverified. Reads only
/// the header (the third line, well inside the first 256 bytes).
fn claimed_quantum(path: &Path) -> Option<u64> {
    let mut head = String::new();
    fs::File::open(path).ok()?.take(256).read_to_string(&mut head).ok()?;
    head.lines().nth(2)?.strip_prefix("quantum ")?.parse().ok()
}

fn parse_u64(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("malformed integer {s:?}"))
}

/// Atomic, two-slot checkpoint persistence.
///
/// The store owns a primary path (conventionally `hcapp.ckpt`); the previous
/// snapshot survives as `<path>.1`. Save order — rotate, write temp, rename —
/// guarantees a kill at any instant leaves a valid checkpoint reachable by
/// [`CheckpointStore::latest_valid`].
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    path: PathBuf,
}

impl CheckpointStore {
    /// A store rooted at the given checkpoint path.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointStore { path: path.into() }
    }

    /// The primary checkpoint path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn rotated(&self) -> PathBuf {
        let mut name = self.path.as_os_str().to_os_string();
        name.push(".1");
        PathBuf::from(name)
    }

    /// Persist a checkpoint atomically, rotating the previous one to the
    /// `.1` slot.
    pub fn save(&self, ck: &Checkpoint) -> io::Result<()> {
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        if self.path.exists() {
            fs::rename(&self.path, self.rotated())?;
        }
        // Same-directory temp file so the final rename cannot cross a
        // filesystem boundary (which would forfeit atomicity).
        let mut tmp = self.path.as_os_str().to_os_string();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = PathBuf::from(tmp);
        fs::write(&tmp, ck.encode())?;
        fs::rename(&tmp, &self.path)
    }

    /// The newest on-disk checkpoint that passes its checksum and matches
    /// the given config fingerprint, together with the slot it came from.
    /// Corrupt, torn, or foreign-config slots are skipped silently — a
    /// resume with no usable checkpoint is just a fresh start.
    ///
    /// Slots are verified newest-first by the quantum their header claims
    /// (the primary slot first on a tie), so the usual case checksums one
    /// file, not two. A false claim only costs a failed decode.
    pub fn latest_valid(&self, config: &str) -> Option<(Checkpoint, PathBuf)> {
        let mut slots: Vec<(Option<u64>, PathBuf)> = [self.path.clone(), self.rotated()]
            .into_iter()
            .map(|path| (claimed_quantum(&path), path))
            .collect();
        slots.sort_by_key(|(claim, _)| std::cmp::Reverse(*claim));
        slots.into_iter().find_map(|(_, path)| {
            let text = fs::read_to_string(&path).ok()?;
            let ck = Checkpoint::decode(&text).ok()?;
            (ck.config == config).then_some((ck, path))
        })
    }

    /// Remove both slots (ignoring files that are already gone).
    pub fn clear(&self) -> io::Result<()> {
        for path in [self.path.clone(), self.rotated()] {
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcapp_sim_core::state::StateWriter;

    fn fp(n: u8) -> String {
        format!("{:032x}", u128::from(n))
    }

    fn sample() -> Checkpoint {
        let mut ck = Checkpoint::new(&fp(7), 1234, 567);
        let mut w = StateWriter::new();
        w.f64("pid.integral", -0.0625);
        w.opt_u64("cursor", Some(3));
        ck.add_section("loop", w.finish());
        let mut w = StateWriter::new();
        w.f64_slice("vr.pending", &[1.05, f64::NAN]);
        ck.add_section("domain.0", w.finish());
        ck
    }

    #[test]
    fn encode_decode_round_trip() {
        let ck = sample();
        let text = ck.encode();
        let back = Checkpoint::decode(&text).unwrap();
        assert_eq!(back, ck);
        assert_eq!(back.section_names().collect::<Vec<_>>(), ["loop", "domain.0"]);
        // Re-encoding is byte-stable.
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn empty_sections_round_trip() {
        let ck = Checkpoint::new(&fp(1), 0, 0);
        let back = Checkpoint::decode(&ck.encode()).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn single_bit_corruption_is_rejected() {
        let text = sample().encode();
        for i in 0..text.len() {
            let mut bytes = text.clone().into_bytes();
            bytes[i] ^= 0x01;
            let Ok(s) = String::from_utf8(bytes) else {
                continue;
            };
            assert!(
                Checkpoint::decode(&s).is_err(),
                "flipping byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let text = sample().encode();
        for cut in [1, text.len() / 2, text.len() - 1] {
            assert!(Checkpoint::decode(&text[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let text = sample().encode().replace("ckpt v1", "ckpt v9");
        let err = Checkpoint::decode(&text).unwrap_err();
        // The checksum sees the flipped version byte first.
        assert!(err.contains("checksum"), "{err}");
    }

    #[test]
    fn duplicate_section_panics() {
        let mut ck = Checkpoint::new(&fp(2), 1, 0);
        ck.add_section("pid", String::new());
        let dup = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ck.add_section("pid", String::new());
        }));
        assert!(dup.is_err());
    }

    #[test]
    fn partial_line_payloads_are_rejected() {
        // `encode` copies payloads whole and counts their `\n` bytes, which
        // is byte-stable only for whole, `\r`-free lines.
        for payload in ["pid.integral 0", "a 1\r\nb 2\n", "a 1\n\r"] {
            let mut ck = Checkpoint::new(&fp(3), 1, 0);
            let added = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ck.add_section("pid", payload.to_string());
            }));
            assert!(added.is_err(), "accepted {payload:?}");
        }
        let mut ck = Checkpoint::new(&fp(3), 1, 0);
        ck.add_section("blank", "\n\n".to_string());
        let text = ck.encode();
        assert!(text.contains("section blank 2\n\n\n"), "{text}");
        let back = Checkpoint::decode(&text).unwrap();
        assert_eq!(back, ck);
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn carriage_return_in_a_checksummed_file_is_rejected() {
        // A file that checksums but carries `\r` inside a section can only
        // be hand-made; decoding it must not yield a checkpoint whose
        // re-encoding differs.
        let mut body = format!(
            "{SCHEMA}\nconfig {}\nquantum 1\ntrace_offset 0\nsections 1\nsection pid 1\n",
            fp(4)
        );
        body.push_str("pid.x 1\r\n");
        let text = format!("{body}checksum {}\n", Checkpoint::checksum(&body));
        let err = Checkpoint::decode(&text).unwrap_err();
        assert!(err.contains("\\r"), "{err}");
    }

    #[test]
    fn store_save_and_load() {
        let dir = std::env::temp_dir().join(format!("hcapp_resume_t1_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(dir.join("hcapp.ckpt"));
        assert!(store.latest_valid(&fp(7)).is_none());

        let ck = sample();
        store.save(&ck).unwrap();
        let (got, path) = store.latest_valid(&fp(7)).unwrap();
        assert_eq!(got, ck);
        assert_eq!(path, store.path());
        // Foreign config fingerprints are invisible.
        assert!(store.latest_valid(&fp(8)).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_keeps_previous_and_prefers_newest() {
        let dir = std::env::temp_dir().join(format!("hcapp_resume_t2_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(dir.join("hcapp.ckpt"));

        let mut older = sample();
        older.quantum = 100;
        let mut newer = sample();
        newer.quantum = 200;
        store.save(&older).unwrap();
        store.save(&newer).unwrap();
        assert!(store.rotated().exists());

        let (got, _) = store.latest_valid(&fp(7)).unwrap();
        assert_eq!(got.quantum, 200);

        // Corrupt the primary slot (torn write): the rotated previous
        // checkpoint takes over.
        fs::write(store.path(), "hcapp.ckpt v1\ngarbage\n").unwrap();
        let (got, path) = store.latest_valid(&fp(7)).unwrap();
        assert_eq!(got.quantum, 100);
        assert_eq!(path, store.rotated());

        // A torn primary whose header still claims the newer quantum is
        // tried first, fails its checksum, and the rotated slot wins.
        store.clear().unwrap();
        store.save(&older).unwrap();
        store.save(&newer).unwrap();
        let torn = fs::read_to_string(store.path()).unwrap().replace("pid.integral", "pid.integraL");
        fs::write(store.path(), torn).unwrap();
        assert_eq!(claimed_quantum(store.path()), Some(200));
        let (got, path) = store.latest_valid(&fp(7)).unwrap();
        assert_eq!((got.quantum, path), (100, store.rotated()));

        store.clear().unwrap();
        assert!(store.latest_valid(&fp(7)).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
