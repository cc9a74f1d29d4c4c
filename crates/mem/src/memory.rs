//! Main memory: latency model plus a *real* backing image.
//!
//! The paper's recovery story for clean lines is "non-corrupted data can be
//! found from the next level of the memory hierarchy" — which is only
//! testable if the next level actually holds data. [`MainMemory`] therefore
//! maintains a sparse line image: lines that were ever written back are
//! stored explicitly; untouched lines read as a deterministic function of
//! their address, so a freshly filled line always has reproducible contents
//! without materialising the whole address space.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::addr::LineAddr;

/// Mixes a 64-bit value (splitmix64 finaliser); used to synthesise the
/// pristine contents of never-written memory lines.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A fixed multiplicative hasher for [`LineAddr`] keys: one multiply by
/// the 64-bit golden ratio, with the high half folded down so the low
/// bits a hash table indexes by depend on every key bit (set-strided
/// line addresses differ only in their high bits).
#[derive(Debug, Clone, Copy, Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let h = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Main-memory model: fixed access latency and a sparse line image.
///
/// Written-back lines live in one flat word arena, indexed by line under
/// [`LineHasher`]; reads copy into and writes copy from caller slices, so
/// a line's second and later write-backs allocate nothing.
///
/// ```
/// use aep_mem::memory::MainMemory;
/// use aep_mem::addr::LineAddr;
///
/// let mut mem = MainMemory::new(100, 8);
/// let mut pristine = [0u64; 8];
/// mem.read_line(LineAddr(7), &mut pristine);
/// // Deterministic: reading again yields the same words.
/// let mut again = [0u64; 8];
/// mem.read_line(LineAddr(7), &mut again);
/// assert_eq!(again, pristine);
///
/// let mut updated = pristine;
/// updated[0] = 42;
/// mem.write_line(LineAddr(7), &updated);
/// mem.read_line(LineAddr(7), &mut again);
/// assert_eq!(again, updated);
/// ```
#[derive(Debug, Clone)]
pub struct MainMemory {
    latency: u64,
    words_per_line: usize,
    /// Line → index of its words in `words` (in units of lines).
    index: HashMap<LineAddr, usize, BuildHasherDefault<LineHasher>>,
    words: Vec<u64>,
    reads: u64,
    writes: u64,
}

impl MainMemory {
    /// Creates a memory with `latency` cycles per access and
    /// `words_per_line` 64-bit words per line.
    ///
    /// # Panics
    ///
    /// Panics if `words_per_line == 0`.
    #[must_use]
    pub fn new(latency: u64, words_per_line: usize) -> Self {
        assert!(words_per_line > 0, "lines must hold at least one word");
        MainMemory {
            latency,
            words_per_line,
            index: HashMap::default(),
            words: Vec::new(),
            reads: 0,
            writes: 0,
        }
    }

    /// Access latency in cycles.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// The explicit (written-back) contents of `line`, if any.
    fn stored(&self, line: LineAddr) -> Option<&[u64]> {
        let w = self.words_per_line;
        self.index
            .get(&line)
            .map(|&i| &self.words[i * w..(i + 1) * w])
    }

    /// The explicit contents of `line`, materialised (as its pristine
    /// words) on first use.
    fn stored_mut(&mut self, line: LineAddr) -> &mut [u64] {
        let w = self.words_per_line;
        let next = self.index.len();
        let i = *self.index.entry(line).or_insert(next);
        if i == next {
            self.words.resize((next + 1) * w, 0);
            Self::fill_pristine(line, &mut self.words[i * w..]);
        }
        &mut self.words[i * w..(i + 1) * w]
    }

    /// Reads a full line into `out` (pristine lines are synthesised
    /// deterministically).
    ///
    /// # Panics
    ///
    /// Panics if `out` is not exactly one line.
    pub fn read_line(&mut self, line: LineAddr, out: &mut [u64]) {
        assert_eq!(out.len(), self.words_per_line, "read must be one full line");
        self.reads += 1;
        match self.stored(line) {
            Some(data) => out.copy_from_slice(data),
            None => Self::fill_pristine(line, out),
        }
    }

    /// The synthetic contents of a never-written line.
    #[must_use]
    pub fn pristine(line: LineAddr, words_per_line: usize) -> Box<[u64]> {
        let mut out = vec![0; words_per_line].into_boxed_slice();
        Self::fill_pristine(line, &mut out);
        out
    }

    /// Writes the synthetic contents of never-written `line` into `out`
    /// (one word per element of `out`).
    fn fill_pristine(line: LineAddr, out: &mut [u64]) {
        let words_per_line = out.len();
        for (i, w) in out.iter_mut().enumerate() {
            *w = Self::pristine_word(line, words_per_line, i);
        }
    }

    fn pristine_word(line: LineAddr, words_per_line: usize, word: usize) -> u64 {
        mix64(
            line.0
                .wrapping_mul(words_per_line as u64)
                .wrapping_add(word as u64),
        )
    }

    /// Writes a full line back to memory.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one line.
    pub fn write_line(&mut self, line: LineAddr, data: &[u64]) {
        assert_eq!(
            data.len(),
            self.words_per_line,
            "write must be one full line"
        );
        self.writes += 1;
        self.stored_mut(line).copy_from_slice(data);
    }

    /// Merges masked store words into a line (used when a no-write-allocate
    /// level forwards a partial line).
    pub fn write_words(&mut self, line: LineAddr, word_mask: u64, words: &[u64]) {
        for (i, slot) in self.stored_mut(line).iter_mut().enumerate() {
            if word_mask & (1 << i) != 0 {
                *slot = words[i];
            }
        }
        self.writes += 1;
    }

    /// Corruption witness: `true` when the line's current memory image
    /// (explicit or pristine) equals `expected`. Unlike [`Self::read_line`]
    /// this does not count as an access, so fault-injection bookkeeping
    /// never perturbs traffic statistics.
    #[must_use]
    pub fn line_matches(&self, line: LineAddr, expected: &[u64]) -> bool {
        match self.stored(line) {
            Some(data) => data == expected,
            None => {
                let w = self.words_per_line;
                expected.len() == w
                    && (0..)
                        .zip(expected)
                        .all(|(i, &e)| e == Self::pristine_word(line, w, i))
            }
        }
    }

    /// Number of line reads served.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of line writes absorbed.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Number of lines with explicit (written-back) contents.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(mem: &mut MainMemory, line: u64) -> [u64; 8] {
        let mut out = [0; 8];
        mem.read_line(LineAddr(line), &mut out);
        out
    }

    #[test]
    fn pristine_lines_are_deterministic() {
        let mut mem = MainMemory::new(100, 8);
        let a = read(&mut mem, 123);
        let b = read(&mut mem, 123);
        assert_eq!(a, b);
        assert_eq!(a, *MainMemory::pristine(LineAddr(123), 8));
        // Distinct lines get distinct contents (overwhelmingly likely
        // by construction, asserted here as a regression guard).
        assert_ne!(read(&mut mem, 124), a);
    }

    #[test]
    fn adjacent_lines_do_not_share_words() {
        // Line i's last word and line i+1's first word use different
        // mix inputs: i*wpl + (wpl-1) vs (i+1)*wpl.
        let a = MainMemory::pristine(LineAddr(1), 8);
        let b = MainMemory::pristine(LineAddr(2), 8);
        assert_ne!(a[7], b[0]);
    }

    #[test]
    fn writes_override_pristine_contents() {
        let mut mem = MainMemory::new(100, 8);
        let data: [u64; 8] = std::array::from_fn(|i| i as u64);
        mem.write_line(LineAddr(5), &data);
        assert_eq!(read(&mut mem, 5), data);
        assert_eq!(mem.resident_lines(), 1);
        assert_eq!(mem.writes(), 1);
        // A second write-back of the same line overwrites in place.
        mem.write_line(LineAddr(5), &[7; 8]);
        assert_eq!(read(&mut mem, 5), [7; 8]);
        assert_eq!(mem.resident_lines(), 1);
    }

    #[test]
    fn masked_word_writes_merge() {
        let mut mem = MainMemory::new(100, 8);
        let pristine = read(&mut mem, 9);
        let mut words = vec![0u64; 8];
        words[2] = 0xAA;
        words[6] = 0xBB;
        mem.write_words(LineAddr(9), (1 << 2) | (1 << 6), &words);
        let after = read(&mut mem, 9);
        assert_eq!(after[2], 0xAA);
        assert_eq!(after[6], 0xBB);
        assert_eq!(after[0], pristine[0]);
        assert_eq!(after[7], pristine[7]);
    }

    #[test]
    fn line_matches_witnesses_without_counting_accesses() {
        let mut mem = MainMemory::new(100, 8);
        let pristine = MainMemory::pristine(LineAddr(3), 8);
        assert!(mem.line_matches(LineAddr(3), &pristine));
        let mut wrong = pristine.clone();
        wrong[0] ^= 1;
        assert!(!mem.line_matches(LineAddr(3), &wrong));
        mem.write_line(LineAddr(3), &wrong);
        assert!(mem.line_matches(LineAddr(3), &wrong));
        assert!(!mem.line_matches(LineAddr(3), &pristine));
        assert_eq!(mem.reads(), 0, "witness must not count as traffic");
    }

    #[test]
    #[should_panic(expected = "full line")]
    fn short_write_panics() {
        let mut mem = MainMemory::new(100, 8);
        mem.write_line(LineAddr(0), &[0u64; 4]);
    }

    #[test]
    fn set_strided_lines_hash_apart() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        // Lines of one L2 set differ only above the set-index bits; the
        // table's low hash bits must still tell them apart.
        let build = BuildHasherDefault::<LineHasher>::default();
        let mut low: Vec<u64> = (0..256u64)
            .map(|k| build.hash_one(LineAddr(k << 12)) & 0xFFF)
            .collect();
        low.sort_unstable();
        low.dedup();
        assert!(low.len() > 200, "only {} distinct low hashes", low.len());
    }

    #[test]
    fn mix64_is_a_permutationish_hash() {
        // Spot-check dispersion: small inputs map to well-spread outputs.
        let outs: Vec<u64> = (0..16).map(mix64).collect();
        let mut sorted = outs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), outs.len(), "no collisions among small inputs");
    }
}
