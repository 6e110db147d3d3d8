//! The seeded load generator: a token-level simulator of `open`
//! concurrently running transactions over `keys` keys, emitting the
//! paper's stream notation (`b1 w1(kab,7) r2(kab1) c1 …`).
//!
//! Owned by the benchmark on purpose: edits to `crates/workloads` must
//! not be able to shift the load the ledger was recorded under. Every
//! byte is a function of `(GenConfig, seed, events)`.
//!
//! Two disciplines:
//!
//! * `clean` — no-wait strict two-phase locking: an operation whose
//!   lock is unavailable re-draws its key instead of waiting, locks are
//!   held to commit, nothing aborts. Every prefix is serializable, so
//!   the truth is PL-3 by construction.
//! * `dirty` — no locks; 10 % of reads pick an uncommitted version of
//!   another open transaction, 10 % of transactions abort and a quarter
//!   of the writes overwrite the writer's own newest version. The
//!   stream opens with [`DIRTY_PROLOGUE`], eight transactions that
//!   witness G1a, G1b, G1c and G2, so all four fire on every seed at
//!   every size — and fire *first*.
//!
//! Each transaction is `b`, four operations (half of them writes) and
//! `c` (or `a`). A newline follows every commit token, so a line is
//! the run of tokens up to and including one commit: token-per-frame
//! clients split on whitespace, line-per-frame clients on `\n`, and
//! both feed the checker the same event order.

/// SplitMix64: tiny, seedable, and owned by the benchmark.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1; the modulo bias at these sizes is
    /// far below anything the checker can notice).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `pct` / 100.
    pub fn pct(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }
}

/// Shape of one generated stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenConfig {
    /// Key-space size K.
    pub keys: usize,
    /// Concurrently open transactions W.
    pub open: usize,
    /// `false` = clean (strict 2PL, PL-3), `true` = dirty.
    pub dirty: bool,
    /// 0 = one fixed key space. Otherwise the K-key window slides to K
    /// fresh keys every this-many events (an insert-mostly table): old
    /// keys are never written again, so their last writers stay live
    /// forever and the checker's live set grows with the stream.
    pub slide: u64,
}

const OPS_PER_TXN: u8 = 4;
const DIRTY_READ_PCT: u64 = 10;
const ABORT_PCT: u64 = 10;
const REWRITE_PCT: u64 = 25;
/// Key redraws before a clean operation gives up and the transaction
/// simply runs one operation short.
const REDRAWS: usize = 8;
/// Key-name alphabet: no digits (the notation reads trailing digits as
/// a writer id) and no `i` (a name must never end in `init`).
const ALPHABET: &[u8; 16] = b"abcdefghjklmnopq";

/// What every dirty stream starts with: one witness each of G1a (T2
/// reads aborted T1), G1b (T4 reads a version T3 then overwrites), G1c
/// (T5 and T6 read each other's writes) and G2 (T8 sees T7's `pf` but
/// not its `pe` — which is also G-single, G-SIb and G-monotonic), on
/// keys of their own. One line per commit, like the rest of the stream.
///
/// Left to chance these witnesses turn up anywhere (G1c within 2 000
/// events on 15 seeds of 40), and since `adya-check`'s detectors stop
/// at their first witness, the cost of checking a dirty history was a
/// lottery: 0.30–1.22 s over 16 seeds at 6 000 events, against
/// 0.27–0.31 s with the witnesses up front. What remains is building
/// the graphs, which is the cost this history is there to show.
pub const DIRTY_PROLOGUE: [&str; 7] = [
    "b1 w1(pa,1) b2 r2(pa1) a1 c2",
    "b3 w3(pb,1) b4 r4(pb3) w3(pb,2) c3",
    "c4",
    "b5 b6 w5(pc,1) w6(pd,1) r5(pd6) r6(pc5) c5",
    "c6",
    "b7 w7(pe,1) w7(pf,1) c7",
    "b8 r8(pf7) r8(peinit) c8",
];
/// Transactions [`DIRTY_PROLOGUE`] uses up.
const PROLOGUE_TXNS: u32 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lock {
    Free,
    Shared(u32),
    Exclusive(u32),
}

#[derive(Debug, Default)]
struct Slot {
    /// 0 = no open transaction.
    txn: u32,
    ops_left: u8,
    /// Keys this transaction has written (its uncommitted versions).
    wrote: Vec<u32>,
    /// Keys this transaction holds a lock on (clean only).
    locked: Vec<u32>,
}

/// A generated stream plus the counts the oracle needs.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The tokens, space-separated, newline after every commit.
    pub text: String,
    /// Tokens (= checker events) in `text`.
    pub events: u64,
    /// Commit tokens in `text` (= verdict lines to expect).
    pub commits: u64,
}

/// Incremental generator: [`TokenGen::next_line`] yields one
/// commit-terminated line at a time, so closed-loop clients can draw
/// load for as long as the clock runs.
#[derive(Debug)]
pub struct TokenGen {
    cfg: GenConfig,
    rng: Rng,
    slots: Vec<Slot>,
    /// Last committed writer per key (0 = the initial version).
    committed: Vec<u32>,
    locks: Vec<Lock>,
    names: Vec<String>,
    /// Lines of [`DIRTY_PROLOGUE`] still to emit.
    prologue: std::slice::Iter<'static, &'static str>,
    next_txn: u32,
    events: u64,
    commits: u64,
}

fn key_name(mut k: usize) -> String {
    let mut s = vec![b'k'];
    loop {
        s.push(ALPHABET[k % 16]);
        k /= 16;
        if k == 0 {
            break;
        }
    }
    String::from_utf8(s).expect("ascii")
}

impl TokenGen {
    pub fn new(cfg: GenConfig, seed: u64) -> TokenGen {
        assert!(cfg.keys >= 1 && cfg.open >= 1);
        TokenGen {
            cfg,
            rng: Rng::new(seed),
            slots: (0..cfg.open).map(|_| Slot::default()).collect(),
            committed: Vec::new(),
            locks: Vec::new(),
            names: Vec::new(),
            prologue: if cfg.dirty { &DIRTY_PROLOGUE[..] } else { &[] }.iter(),
            next_txn: if cfg.dirty { PROLOGUE_TXNS + 1 } else { 1 },
            events: 0,
            commits: 0,
        }
    }

    /// Tokens emitted so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Commit tokens emitted so far.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Appends tokens to `out` up to and including the next commit,
    /// then a newline. Returns the number of tokens appended.
    pub fn next_line(&mut self, out: &mut String) -> u64 {
        if let Some(line) = self.prologue.next() {
            let tokens = line.split(' ').count() as u64;
            out.push_str(line);
            out.push('\n');
            self.events += tokens;
            self.commits += 1;
            return tokens;
        }
        let before = self.events;
        loop {
            let committed = self.step(out);
            if committed {
                out.push('\n');
                return self.events - before;
            }
            out.push(' ');
        }
    }

    /// Draws a key from the current window, growing the per-key tables
    /// when the window has slid onto fresh keys.
    fn draw_key(&mut self) -> usize {
        let base = match self.cfg.slide {
            0 => 0,
            n => (self.events / n) as usize * self.cfg.keys,
        };
        let end = base + self.cfg.keys;
        if self.names.len() < end {
            self.names.extend((self.names.len()..end).map(key_name));
            self.committed.resize(end, 0);
            self.locks.resize(end, Lock::Free);
        }
        base + self.rng.below(self.cfg.keys)
    }

    /// Emits exactly one token; true when it was a commit.
    fn step(&mut self, out: &mut String) -> bool {
        use std::fmt::Write as _;
        self.events += 1;
        let s = self.rng.below(self.cfg.open);
        if self.slots[s].txn == 0 {
            let t = self.next_txn;
            self.next_txn += 1;
            self.slots[s].txn = t;
            self.slots[s].ops_left = OPS_PER_TXN;
            let _ = write!(out, "b{t}");
            return false;
        }
        let t = self.slots[s].txn;
        if self.slots[s].ops_left == 0 {
            return self.terminate(s, out);
        }
        self.slots[s].ops_left -= 1;
        let write = self.rng.pct(50);
        if self.cfg.dirty {
            self.dirty_op(s, t, write, out);
        } else if !self.clean_op(s, t, write, out) {
            // Every redraw hit a lock: run one operation short. The
            // token budget is spent on the terminal event instead.
            self.slots[s].ops_left = 0;
            return self.terminate(s, out);
        }
        false
    }

    fn terminate(&mut self, s: usize, out: &mut String) -> bool {
        use std::fmt::Write as _;
        let t = self.slots[s].txn;
        let abort = self.cfg.dirty && self.rng.pct(ABORT_PCT);
        let slot = &mut self.slots[s];
        slot.txn = 0;
        if !abort {
            for &k in &slot.wrote {
                self.committed[k as usize] = t;
            }
        }
        slot.wrote.clear();
        for &k in &slot.locked {
            let l = &mut self.locks[k as usize];
            *l = match *l {
                Lock::Shared(n) if n > 1 => Lock::Shared(n - 1),
                _ => Lock::Free,
            };
        }
        slot.locked.clear();
        if abort {
            let _ = write!(out, "a{t}");
            false
        } else {
            self.commits += 1;
            let _ = write!(out, "c{t}");
            true
        }
    }

    fn emit_write(&mut self, s: usize, t: u32, k: usize, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "w{t}({},{})", self.names[k], t % 97);
        if !self.slots[s].wrote.contains(&(k as u32)) {
            self.slots[s].wrote.push(k as u32);
        }
    }

    fn emit_read(&mut self, t: u32, k: usize, writer: u32, out: &mut String) {
        use std::fmt::Write as _;
        if writer == 0 {
            let _ = write!(out, "r{t}({}init)", self.names[k]);
        } else {
            let _ = write!(out, "r{t}({}{writer})", self.names[k]);
        }
    }

    /// One operation under no-wait strict 2PL. False when no key could
    /// be locked within the redraw budget.
    fn clean_op(&mut self, s: usize, t: u32, write: bool, out: &mut String) -> bool {
        for _ in 0..REDRAWS {
            let k = self.draw_key();
            let mine = self.slots[s].locked.contains(&(k as u32));
            let granted = match (self.locks[k], write) {
                (Lock::Free, true) => Some(Lock::Exclusive(t)),
                (Lock::Free, false) => Some(Lock::Shared(1)),
                (Lock::Exclusive(o), _) if o == t => Some(Lock::Exclusive(t)),
                // Sole reader upgrading to writer.
                (Lock::Shared(1), true) if mine => Some(Lock::Exclusive(t)),
                (Lock::Shared(n), false) if mine => Some(Lock::Shared(n)),
                (Lock::Shared(n), false) => Some(Lock::Shared(n + 1)),
                _ => None,
            };
            let Some(lock) = granted else { continue };
            self.locks[k] = lock;
            if !mine {
                self.slots[s].locked.push(k as u32);
            }
            if write {
                self.emit_write(s, t, k, out);
            } else {
                let own = self.slots[s].wrote.contains(&(k as u32));
                let writer = if own { t } else { self.committed[k] };
                self.emit_read(t, k, writer, out);
            }
            return true;
        }
        false
    }

    fn dirty_op(&mut self, s: usize, t: u32, write: bool, out: &mut String) {
        if write {
            // A quarter of the writes overwrite the transaction's own
            // newest version, so an earlier dirty read of it becomes an
            // intermediate read (G1b) at any key-space size.
            let again = self.slots[s].wrote.last().copied();
            let k = match again {
                Some(k) if self.rng.pct(REWRITE_PCT) => k as usize,
                _ => self.draw_key(),
            };
            self.emit_write(s, t, k, out);
            return;
        }
        if self.rng.pct(DIRTY_READ_PCT) {
            // Read the newest uncommitted write of some other open
            // transaction, when the drawn slot has one.
            let o = self.rng.below(self.cfg.open);
            if o != s && self.slots[o].txn != 0 {
                // A transaction that wrote the key itself must read
                // its own version (§4.2, constraint 3).
                let theirs = self.slots[o].wrote.last().copied();
                if let Some(k) = theirs.filter(|k| !self.slots[s].wrote.contains(k)) {
                    let writer = self.slots[o].txn;
                    self.emit_read(t, k as usize, writer, out);
                    return;
                }
            }
        }
        let k = self.draw_key();
        let own = self.slots[s].wrote.contains(&(k as u32));
        let writer = if own { t } else { self.committed[k] };
        self.emit_read(t, k, writer, out);
    }
}

/// Generates whole lines until at least `events` tokens exist.
pub fn generate(cfg: GenConfig, seed: u64, events: u64) -> Generated {
    let mut g = TokenGen::new(cfg, seed);
    let mut text = String::with_capacity(events as usize * 10);
    while g.events() < events {
        g.next_line(&mut text);
    }
    Generated {
        text,
        events: g.events(),
        commits: g.commits(),
    }
}

/// The seed of the `i`-th independent stream of a run.
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i as u64)
}

/// FNV-1a over the generated bytes: the `input_hash` a result echoes
/// so two runs can prove they measured the same input.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_all([bytes])
}

/// [`fnv1a`] over the concatenation of `parts`, without building it.
pub fn fnv1a_all<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use adya_core::{classify, IsolationLevel, PhenomenonKind};
    use adya_history::parse_history_completed;

    const HOT: GenConfig = GenConfig {
        keys: 16,
        open: 8,
        dirty: true,
        slide: 0,
    };
    const WIDE: GenConfig = GenConfig {
        keys: 4096,
        open: 32,
        dirty: false,
        slide: 0,
    };

    #[test]
    fn same_seed_is_byte_identical_and_seeds_differ() {
        let a = generate(HOT, 11, 20_000);
        let b = generate(HOT, 11, 20_000);
        assert_eq!(a.text, b.text);
        assert_eq!(fnv1a(a.text.as_bytes()), fnv1a(b.text.as_bytes()));
        let c = generate(HOT, 12, 20_000);
        assert_ne!(fnv1a(a.text.as_bytes()), fnv1a(c.text.as_bytes()));
    }

    #[test]
    fn counts_match_the_text() {
        let g = generate(HOT, 3, 5_000);
        assert_eq!(g.text.split_whitespace().count() as u64, g.events);
        assert_eq!(g.text.lines().count() as u64, g.commits);
        assert!(g.events >= 5_000);
    }

    /// 2,000 transactions at six tokens each.
    const PREFIX_EVENTS: u64 = 12_000;

    #[test]
    fn clean_streams_classify_pl3() {
        for cfg in [
            WIDE,
            GenConfig {
                keys: 256,
                open: 8,
                dirty: false,
                slide: 0,
            },
        ] {
            let g = generate(cfg, 11, PREFIX_EVENTS);
            let h = parse_history_completed(&g.text).expect("generated notation parses");
            let report = classify(&h);
            assert!(report.satisfies(IsolationLevel::PL3), "{cfg:?}: {report}");
        }
    }

    /// On every seed and at the smallest size any run uses: the
    /// prologue, not chance, makes them fire.
    #[test]
    fn dirty_streams_fire_every_g1_and_g2() {
        let batch = GenConfig { keys: 64, ..HOT };
        for (cfg, seed) in [(HOT, 11), (HOT, 12), (batch, 11), (batch, 13)] {
            let g = generate(cfg, seed, 1_200);
            let h = parse_history_completed(&g.text).expect("generated notation parses");
            let kinds: Vec<PhenomenonKind> =
                adya_core::detect_all(&h).iter().map(|p| p.kind()).collect();
            for want in [
                PhenomenonKind::G1a,
                PhenomenonKind::G1b,
                PhenomenonKind::G1c,
                PhenomenonKind::G2,
            ] {
                assert!(
                    kinds.contains(&want),
                    "{cfg:?} seed {seed}: {want} missing from {kinds:?}"
                );
            }
            assert!(!classify(&h).satisfies(IsolationLevel::PL2));
        }
    }
}
