//! The out-of-order pipeline: fetch → dispatch → issue → commit.
//!
//! Structure follows `sim-outorder`: a unified **register update unit**
//! (RUU) serves as combined reorder buffer and reservation stations, a
//! separate **load/store queue** (LSQ) holds memory ops and provides
//! store-to-load forwarding, and a branch misprediction stalls fetch until
//! the branch resolves plus a redirect penalty (the standard trace-driven
//! approximation of wrong-path execution).
//!
//! All in-flight bookkeeping is indexed by RUU *slot*, `seq & 63`. The RUU
//! holds at most 64 entries with consecutive sequence numbers, so live
//! entries never share a slot: the RUU is a fixed 64-slot ring running
//! from `head_seq` to `next_seq`, the LSQ is a load mask and a store mask
//! over those slots, and the issue scheduler keeps each waiting entry's
//! ready cycle in a per-slot array.
//!
//! The pipeline is advanced one cycle at a time by [`Pipeline::step`]; the
//! caller owns the [`MemoryHierarchy`] so the experiment runner can
//! interleave the cleaning logic and protection scheme between cycles.

use aep_mem::{Addr, Cycle, MemoryHierarchy};

use crate::bpred::{BranchPredictor, Prediction};
use crate::config::CoreConfig;
use crate::fu::FuPool;
use crate::isa::{InstrStream, MicroOp, OpClass, NUM_REGS};
use crate::tlb::Tlb;

/// Instruction-fetch-queue capacity (decoupling buffer between the fetch
/// and dispatch stages).
const IFQ_ENTRIES: usize = 16;

/// RUU ring slots: the cap on `CoreConfig::ruu_entries`.
const RUU_SLOTS: usize = 64;

/// Cycles for a load served by store-to-load forwarding.
const FORWARD_LATENCY: u64 = 2;

/// `complete_at` of an RUU entry that has not issued yet.
const NOT_ISSUED: Cycle = Cycle::MAX;

/// A fetched op, as it waits in the IFQ and then sits in its RUU slot.
#[derive(Debug, Clone, Copy)]
struct FetchedOp {
    op: MicroOp,
    prediction: Option<Prediction>,
    mispredicted: bool,
}

/// Filler for ring slots that hold no op.
const EMPTY_SLOT: FetchedOp = FetchedOp {
    op: MicroOp {
        pc: 0,
        class: OpClass::IntAlu,
        src1: None,
        src2: None,
        dst: None,
        addr: None,
        taken: false,
        target: 0,
    },
    prediction: None,
    mispredicted: false,
};

/// Sentinel for empty wakeup-list links.
const WAITER_NONE: u32 = u32::MAX;

/// Slot of a sequence number in the RUU ring and the per-slot arrays.
#[inline]
fn slot_of(seq: u64) -> usize {
    (seq & (RUU_SLOTS as u64 - 1)) as usize
}

/// Word-aligned address (byte address / 8) for forwarding checks.
#[inline]
fn word_of(addr: Addr) -> u64 {
    addr.0 >> 3
}

/// Cumulative pipeline statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Instructions committed.
    pub committed: u64,
    /// Instructions fetched into the IFQ.
    pub fetched: u64,
    /// Loads served by store-to-load forwarding.
    pub forwarded_loads: u64,
    /// Cycles fetch spent stalled (I-miss, redirect, or halted).
    pub fetch_stall_cycles: u64,
    /// Cycles commit was blocked by a stalling store (full write buffer).
    pub store_stall_cycles: u64,
}

impl PipelineStats {
    /// Instructions per cycle over `cycles` elapsed cycles.
    #[must_use]
    pub fn ipc(&self, cycles: Cycle) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.committed as f64 / cycles as f64
        }
    }

    /// Publishes every counter into the registry under the current scope.
    pub fn register_stats(&self, reg: &mut aep_obs::Registry) {
        reg.counter("committed", self.committed);
        reg.counter("fetched", self.fetched);
        reg.counter("forwarded_loads", self.forwarded_loads);
        reg.counter("fetch_stall_cycles", self.fetch_stall_cycles);
        reg.counter("store_stall_cycles", self.store_stall_cycles);
    }
}

/// The 4-issue out-of-order core of Table 1.
///
/// ```
/// use aep_cpu::isa::{LoopStream, MicroOp};
/// use aep_cpu::{CoreConfig, Pipeline};
/// use aep_mem::{HierarchyConfig, MemoryHierarchy};
///
/// let stream = LoopStream::new(vec![MicroOp::alu(0, None, None, Some(1))]);
/// let mut cpu = Pipeline::new(CoreConfig::date2006(), stream);
/// let mut mem = MemoryHierarchy::new(HierarchyConfig::tiny());
/// for now in 0..1000 {
///     cpu.step(&mut mem, now);
///     mem.tick(now);
/// }
/// assert!(cpu.stats().committed > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline<S> {
    cfg: CoreConfig,
    stream: S,
    bpred: BranchPredictor,
    itlb: Tlb,
    dtlb: Tlb,
    fu: FuPool,
    /// Instruction fetch queue: a ring of `ifq_len` ops from `ifq_head`.
    ifq: [FetchedOp; IFQ_ENTRIES],
    ifq_head: usize,
    ifq_len: usize,
    staged: Option<MicroOp>,
    /// The RUU ring: the entry with sequence number `seq` lives in slot
    /// `slot_of(seq)` for `head_seq <= seq < next_seq`.
    ruu: [FetchedOp; RUU_SLOTS],
    /// Per slot: the cycle the entry's result is available (`NOT_ISSUED`
    /// until it issues).
    complete_at: [Cycle; RUU_SLOTS],
    head_seq: u64,
    next_seq: u64,
    /// The LSQ: slot masks of the loads and of the stores in the RUU.
    lsq_loads: u64,
    lsq_stores: u64,
    /// Per slot: the word-aligned address of a memory op.
    lsq_word: [u64; RUU_SLOTS],
    reg_producer: [Option<u64>; NUM_REGS],
    fetch_halted: bool,
    fetch_blocked_until: Cycle,
    current_fetch_block: Option<u64>,
    stats: PipelineStats,
    // ----- wakeup/select scheduling state --------------------------------
    // The issue stage is event-driven instead of scanning the whole RUU
    // every cycle: a dispatched entry either knows the cycle its sources
    // complete (its `ready_at`, tracked in `scheduled`) or is linked into
    // its unissued producers' waiter lists and woken when they issue.
    // `issuable` holds, per slot, the entries whose sources are ready now
    // (retrying FU arbitration each cycle). The outcome is cycle-exact
    // identical to the full scan.
    /// Head of the intrusive waiter list per producer slot.
    waiter_head: [u32; RUU_SLOTS],
    /// Next link per waiter node (`consumer_slot * 2 + src_index`).
    waiter_next: [u32; 2 * RUU_SLOTS],
    /// Per slot: in-flight producers the entry still waits on.
    wait_count: [u8; RUU_SLOTS],
    /// Per slot: the earliest cycle the entry's sources can all be ready,
    /// the max `complete_at` over its resolved producers. Final once its
    /// `wait_count` reaches 0.
    ready_at: [Cycle; RUU_SLOTS],
    /// Slot mask of resolved entries whose `ready_at` is still ahead.
    scheduled: u64,
    /// The minimum `ready_at` over `scheduled` (`Cycle::MAX` when empty).
    /// Never later than the true minimum, and exact whenever read.
    min_ready: Cycle,
    /// Slot mask of entries whose sources are ready.
    issuable: u64,
    /// Per slot: the producers the entry read its sources from, kept for
    /// the reference readiness scan the unit tests run every cycle.
    #[cfg(test)]
    src_seqs: [[Option<u64>; 2]; RUU_SLOTS],
}

impl<S: InstrStream> Pipeline<S> {
    /// Builds a pipeline over `stream`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is structurally invalid.
    #[must_use]
    pub fn new(cfg: CoreConfig, stream: S) -> Self {
        cfg.assert_valid();
        Pipeline {
            bpred: BranchPredictor::new(cfg.bpred.clone()),
            itlb: Tlb::date2006_itlb(),
            dtlb: Tlb::date2006_dtlb(),
            fu: FuPool::new(&cfg.fu),
            ifq: [EMPTY_SLOT; IFQ_ENTRIES],
            ifq_head: 0,
            ifq_len: 0,
            staged: None,
            ruu: [EMPTY_SLOT; RUU_SLOTS],
            complete_at: [NOT_ISSUED; RUU_SLOTS],
            head_seq: 0,
            next_seq: 0,
            lsq_loads: 0,
            lsq_stores: 0,
            lsq_word: [0; RUU_SLOTS],
            reg_producer: [None; NUM_REGS],
            fetch_halted: false,
            fetch_blocked_until: 0,
            current_fetch_block: None,
            stats: PipelineStats::default(),
            waiter_head: [WAITER_NONE; RUU_SLOTS],
            waiter_next: [WAITER_NONE; 2 * RUU_SLOTS],
            wait_count: [0; RUU_SLOTS],
            ready_at: [0; RUU_SLOTS],
            scheduled: 0,
            min_ready: Cycle::MAX,
            issuable: 0,
            #[cfg(test)]
            src_seqs: [[None; 2]; RUU_SLOTS],
            cfg,
            stream,
        }
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// The branch predictor (for its statistics).
    #[must_use]
    pub fn bpred(&self) -> &BranchPredictor {
        &self.bpred
    }

    /// Instruction TLB (for its statistics).
    #[must_use]
    pub fn itlb(&self) -> &Tlb {
        &self.itlb
    }

    /// Data TLB (for its statistics).
    #[must_use]
    pub fn dtlb(&self) -> &Tlb {
        &self.dtlb
    }

    /// Publishes pipeline, branch-predictor, and TLB statistics under the
    /// current scope (`pipeline.*`, `bpred.*`, `itlb.*`, `dtlb.*`).
    pub fn register_stats(&self, reg: &mut aep_obs::Registry) {
        reg.scoped("pipeline", |r| self.stats.register_stats(r));
        reg.scoped("bpred", |r| self.bpred.stats().register_stats(r));
        reg.scoped("itlb", |r| self.itlb.stats().register_stats(r));
        reg.scoped("dtlb", |r| self.dtlb.stats().register_stats(r));
    }

    /// Advances the core by one cycle against `hier`.
    pub fn step(&mut self, hier: &mut MemoryHierarchy, now: Cycle) {
        self.commit_stage(hier, now);
        self.issue_stage(hier, now);
        self.dispatch_stage(now);
        self.fetch_stage(hier, now);
    }

    /// Runs `cycles` cycles (commit-driven experiments use
    /// `aep-sim`'s runner instead; this is a convenience for tests).
    pub fn run(&mut self, hier: &mut MemoryHierarchy, cycles: Cycle) {
        for now in 0..cycles {
            self.step(hier, now);
            hier.tick(now);
        }
    }

    /// The earliest cycle after `now` at which any pipeline stage can
    /// change machine state. Stepping the cycles in between is a no-op
    /// (apart from fetch-stall accounting — see
    /// [`Pipeline::account_idle_cycles`]), which is what lets the system
    /// loop fast-forward through stalls. The bound is conservative: it may
    /// name a cycle where nothing happens, never one later than real work.
    #[must_use]
    pub fn next_event_after(&self, now: Cycle) -> Cycle {
        // Commit: the head entry retires when it completes (an unissued
        // head's `NOT_ISSUED` names no cycle).
        let mut t = if self.ruu_len() > 0 {
            self.complete_at[slot_of(self.head_seq)].max(now + 1)
        } else {
            Cycle::MAX
        };
        // Issue: FU-blocked entries retry every cycle; otherwise the
        // earliest scheduled ready cycle.
        if self.issuable != 0 {
            return now + 1;
        }
        t = t.min(self.min_ready.max(now + 1));
        // Dispatch: pending fetched ops enter as soon as there is room.
        if self.ifq_len > 0 && self.ruu_len() < self.cfg.ruu_entries {
            return now + 1;
        }
        // Fetch: resumes when unblocked (a halt only ends via issue).
        if !self.fetch_halted && self.ifq_len < IFQ_ENTRIES {
            t = t.min(self.fetch_blocked_until.max(now + 1));
        }
        t
    }

    /// Books the per-cycle statistics a real step would have recorded for
    /// `count` skipped idle cycles starting at `from` (fetch-stall
    /// accounting is the only per-cycle counter the pipeline keeps).
    pub fn account_idle_cycles(&mut self, from: Cycle, count: u64) {
        if self.fetch_halted {
            self.stats.fetch_stall_cycles += count;
        } else if from < self.fetch_blocked_until {
            self.stats.fetch_stall_cycles += count.min(self.fetch_blocked_until - from);
        }
    }

    /// Entries in the RUU.
    fn ruu_len(&self) -> usize {
        (self.next_seq - self.head_seq) as usize
    }

    /// Entries in the LSQ.
    fn lsq_len(&self) -> usize {
        (self.lsq_loads | self.lsq_stores).count_ones() as usize
    }

    // ----- commit -------------------------------------------------------

    fn commit_stage(&mut self, hier: &mut MemoryHierarchy, now: Cycle) {
        let mut committed = 0;
        while committed < self.cfg.commit_width && self.ruu_len() > 0 {
            let seq = self.head_seq;
            let slot = slot_of(seq);
            if self.complete_at[slot] > now {
                break;
            }
            let FetchedOp { op, prediction, .. } = self.ruu[slot];
            self.head_seq += 1;
            committed += 1;
            self.stats.committed += 1;

            let keep = !(1u64 << slot);
            self.lsq_loads &= keep;
            self.lsq_stores &= keep;
            if let Some(dst) = op.dst {
                if self.reg_producer[dst as usize] == Some(seq) {
                    self.reg_producer[dst as usize] = None;
                }
            }
            match op.class {
                OpClass::Store => {
                    let addr = op.addr.expect("stores carry addresses");
                    let done = hier.store(addr, now);
                    if done > now + 1 {
                        // The write buffer was full: the store holds the
                        // commit port while the oldest entry retires.
                        self.stats.store_stall_cycles += done - (now + 1);
                        break;
                    }
                }
                OpClass::Branch => {
                    let pred = prediction.expect("branches carry their fetch-time prediction");
                    self.bpred.update(op.pc, op.taken, op.target, pred);
                }
                _ => {}
            }
        }
    }

    // ----- issue --------------------------------------------------------

    fn issue_stage(&mut self, hier: &mut MemoryHierarchy, now: Cycle) {
        if self.min_ready <= now {
            self.wake_scheduled(now);
        }
        #[cfg(test)]
        assert_eq!(
            self.issuable,
            self.scan_ready(now),
            "wakeup scheduling must match the RUU scan's readiness at cycle {now}"
        );
        if self.issuable == 0 {
            return;
        }
        // Select oldest-first among ready entries, exactly as the full RUU
        // scan would: rotating the slot mask by the head's slot turns bit
        // offsets into RUU indices.
        let head_slot = slot_of(self.head_seq);
        let mut pending = self.issuable.rotate_right(head_slot as u32);
        let mut issued = 0;
        let mut resume: Option<Cycle> = None;
        while pending != 0 && issued < self.cfg.issue_width {
            let slot = slot_of(head_slot as u64 + u64::from(pending.trailing_zeros()));
            pending &= pending - 1;
            let FetchedOp {
                op, mispredicted, ..
            } = self.ruu[slot];
            if !self.fu.try_acquire(op.class, now) {
                continue; // retried next cycle: the slot bit stays set
            }
            let complete_at = match op.class {
                OpClass::Load => {
                    if self.store_forwarding_hit(slot) {
                        self.stats.forwarded_loads += 1;
                        now + FORWARD_LATENCY
                    } else {
                        let addr = op.addr.expect("loads carry addresses");
                        let walk = self.dtlb.translate(addr);
                        hier.load(addr, now) + walk
                    }
                }
                OpClass::Store => {
                    // Address generation + translation; the data is written
                    // to the hierarchy at commit.
                    let addr = op.addr.expect("stores carry addresses");
                    let walk = self.dtlb.translate(addr);
                    now + 1 + walk
                }
                other => now + FuPool::timing(other).latency,
            };
            self.complete_at[slot] = complete_at;
            self.issuable &= !(1 << slot);
            self.wake_waiters(slot, complete_at, now);
            issued += 1;
            if mispredicted {
                // The branch now has a resolution time: fetch restarts
                // after it resolves plus the redirect penalty.
                let at = complete_at + self.cfg.redirect_penalty;
                resume = Some(resume.map_or(at, |r: Cycle| r.max(at)));
            }
        }
        if let Some(at) = resume {
            self.fetch_halted = false;
            self.fetch_blocked_until = self.fetch_blocked_until.max(at);
            self.current_fetch_block = None;
        }
    }

    /// Moves every scheduled entry whose ready cycle has arrived into
    /// `issuable` and recomputes `min_ready` over the rest.
    fn wake_scheduled(&mut self, now: Cycle) {
        let mut pending = self.scheduled;
        let mut min_ready = Cycle::MAX;
        while pending != 0 {
            let slot = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            let t = self.ready_at[slot];
            if t <= now {
                self.scheduled &= !(1 << slot);
                self.issuable |= 1 << slot;
            } else {
                min_ready = min_ready.min(t);
            }
        }
        self.min_ready = min_ready;
    }

    /// Queues the entry in `slot`, whose sources are all resolved, for
    /// issue once its `ready_at` arrives. Callers run during or after the
    /// issue stage of cycle `now`, so the entry's first chance to issue is
    /// `now + 1`: an entry ready by then goes straight into `issuable`.
    fn schedule(&mut self, slot: usize, now: Cycle) {
        let ready_at = self.ready_at[slot];
        if ready_at <= now + 1 {
            self.issuable |= 1 << slot;
        } else {
            self.scheduled |= 1 << slot;
            self.min_ready = self.min_ready.min(ready_at);
        }
    }

    /// Notifies every consumer waiting on the producer in `slot` that its
    /// result lands at `complete_at`; consumers whose last dependency this
    /// was are scheduled.
    fn wake_waiters(&mut self, slot: usize, complete_at: Cycle, now: Cycle) {
        let mut node = self.waiter_head[slot];
        self.waiter_head[slot] = WAITER_NONE;
        while node != WAITER_NONE {
            let consumer = (node >> 1) as usize;
            let next = self.waiter_next[node as usize];
            self.waiter_next[node as usize] = WAITER_NONE;
            self.wait_count[consumer] -= 1;
            self.ready_at[consumer] = self.ready_at[consumer].max(complete_at);
            if self.wait_count[consumer] == 0 {
                self.schedule(consumer, now);
            }
            node = next;
        }
    }

    /// Whether a store older than the load in `load_slot` writes the
    /// load's word.
    fn store_forwarding_hit(&self, load_slot: usize) -> bool {
        let head_slot = slot_of(self.head_seq);
        let load_idx = slot_of((load_slot + RUU_SLOTS - head_slot) as u64);
        let word = self.lsq_word[load_slot];
        let mut older = self.lsq_stores.rotate_right(head_slot as u32) & ((1u64 << load_idx) - 1);
        let mut hit = false;
        while older != 0 {
            let slot = slot_of(head_slot as u64 + u64::from(older.trailing_zeros()));
            older &= older - 1;
            if self.lsq_word[slot] == word {
                hit = true;
                break;
            }
        }
        #[cfg(test)]
        assert_eq!(
            hit,
            self.scan_forwarding(load_slot),
            "forwarding must match the full scan of older stores"
        );
        hit
    }

    // ----- dispatch -----------------------------------------------------

    fn dispatch_stage(&mut self, now: Cycle) {
        let mut dispatched = 0;
        while dispatched < self.cfg.decode_width
            && self.ifq_len > 0
            && self.ruu_len() < self.cfg.ruu_entries
        {
            let fetched = self.ifq[self.ifq_head];
            let op = fetched.op;
            if op.class.is_mem() && self.lsq_len() >= self.cfg.lsq_entries {
                break;
            }
            self.ifq_head = (self.ifq_head + 1) % IFQ_ENTRIES;
            self.ifq_len -= 1;
            let seq = self.next_seq;
            self.next_seq += 1;
            let slot = slot_of(seq);

            let src_of =
                |r: Option<u8>, map: &[Option<u64>; NUM_REGS]| r.and_then(|r| map[r as usize]);
            let src_seqs = [
                src_of(op.src1, &self.reg_producer),
                src_of(op.src2, &self.reg_producer),
            ];
            if let Some(dst) = op.dst {
                self.reg_producer[dst as usize] = Some(seq);
            }
            if op.class.is_mem() {
                self.lsq_word[slot] = word_of(op.addr.expect("memory ops carry addresses"));
                if op.class == OpClass::Store {
                    self.lsq_stores |= 1 << slot;
                } else {
                    self.lsq_loads |= 1 << slot;
                }
            }
            // Wakeup bookkeeping: producers still in flight get a waiter
            // link; resolved dependencies contribute their completion time.
            let mut wait_count: u8 = 0;
            let mut ready_at: Cycle = 0;
            for (i, src) in src_seqs.iter().enumerate() {
                let Some(src_seq) = *src else { continue };
                // Commit clears a register's producer, so it is in flight.
                debug_assert!(src_seq >= self.head_seq, "register producer committed");
                let producer_slot = slot_of(src_seq);
                match self.complete_at[producer_slot] {
                    NOT_ISSUED => {
                        let node = (slot * 2 + i) as u32;
                        self.waiter_next[node as usize] = self.waiter_head[producer_slot];
                        self.waiter_head[producer_slot] = node;
                        wait_count += 1;
                    }
                    done => ready_at = ready_at.max(done),
                }
            }
            self.ruu[slot] = fetched;
            self.complete_at[slot] = NOT_ISSUED;
            self.wait_count[slot] = wait_count;
            self.ready_at[slot] = ready_at;
            #[cfg(test)]
            {
                self.src_seqs[slot] = src_seqs;
            }
            if wait_count == 0 {
                self.schedule(slot, now);
            }
            dispatched += 1;
        }
    }

    // ----- fetch --------------------------------------------------------

    fn fetch_stage(&mut self, hier: &mut MemoryHierarchy, now: Cycle) {
        if self.fetch_halted || now < self.fetch_blocked_until {
            self.stats.fetch_stall_cycles += 1;
            return;
        }
        // Line sizes are powers of two (validated by the hierarchy).
        let block_shift = hier.config().l1i.line_bytes.trailing_zeros();
        let mut fetched = 0;
        while fetched < self.cfg.fetch_width && self.ifq_len < IFQ_ENTRIES {
            let op = match self.staged.take() {
                Some(op) => op,
                None => self.stream.next_op(),
            };
            let block = op.pc >> block_shift;
            if self.current_fetch_block != Some(block) {
                let walk = self.itlb.translate(Addr::new(op.pc));
                let done = hier.fetch(Addr::new(op.pc), now) + walk;
                self.current_fetch_block = Some(block);
                if done > now + 1 {
                    // I-cache miss: hold the op and resume when it lands.
                    self.staged = Some(op);
                    self.fetch_blocked_until = done;
                    return;
                }
            }
            let mut entry = FetchedOp {
                op,
                prediction: None,
                mispredicted: false,
            };
            let mut halt = false;
            let mut taken_break = false;
            if op.class == OpClass::Branch {
                let pred = self.bpred.predict(op.pc);
                let mispredict =
                    pred.taken != op.taken || (op.taken && pred.target != Some(op.target));
                entry.prediction = Some(pred);
                entry.mispredicted = mispredict;
                if mispredict {
                    halt = true;
                } else if op.taken {
                    taken_break = true;
                }
            }
            self.ifq[(self.ifq_head + self.ifq_len) % IFQ_ENTRIES] = entry;
            self.ifq_len += 1;
            self.stats.fetched += 1;
            fetched += 1;
            if halt {
                // Wrong-path fetch: stop until the branch resolves.
                self.fetch_halted = true;
                self.current_fetch_block = None;
                return;
            }
            if taken_break {
                // Correctly predicted taken branch: the fetch stream
                // redirects to the target block next cycle.
                self.current_fetch_block = None;
                break;
            }
        }
    }
}

/// The reference the unit tests hold the slot-indexed scheduler to: the
/// whole-RUU scans `sim-outorder` performs every cycle.
#[cfg(test)]
impl<S> Pipeline<S> {
    /// Slot mask of the unissued entries whose sources are both ready at
    /// `now`.
    fn scan_ready(&self, now: Cycle) -> u64 {
        let src_ready = |src: Option<u64>| match src {
            None => true,
            // A committed producer's value is in the register file.
            Some(seq) => seq < self.head_seq || self.complete_at[slot_of(seq)] <= now,
        };
        (self.head_seq..self.next_seq)
            .map(slot_of)
            .filter(|&slot| {
                self.complete_at[slot] == NOT_ISSUED
                    && self.src_seqs[slot].into_iter().all(src_ready)
            })
            .fold(0, |mask, slot| mask | 1 << slot)
    }

    /// Whether any store in the RUU older than the load in `load_slot`
    /// writes the load's word.
    fn scan_forwarding(&self, load_slot: usize) -> bool {
        let word = |slot: usize| self.ruu[slot].op.addr.map(word_of);
        (self.head_seq..self.next_seq)
            .map(slot_of)
            .take_while(|&slot| slot != load_slot)
            .any(|slot| self.ruu[slot].op.class == OpClass::Store && word(slot) == word(load_slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::LoopStream;
    use aep_mem::HierarchyConfig;

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::tiny())
    }

    fn run_ops(ops: Vec<MicroOp>, cycles: Cycle) -> (PipelineStats, MemoryHierarchy) {
        let mut cpu = Pipeline::new(CoreConfig::date2006(), LoopStream::new(ops));
        let mut hier = mem();
        cpu.run(&mut hier, cycles);
        (cpu.stats(), hier)
    }

    #[test]
    fn independent_alu_ops_reach_high_ipc() {
        // 4 independent ALU ops in a 32-byte block: should sustain ~4 IPC
        // once warm (bounded by fetch width).
        let ops = (0..4)
            .map(|i| MicroOp::alu(i * 8, None, None, Some((i % 32) as u8)))
            .collect();
        let (stats, _) = run_ops(ops, 10_000);
        let ipc = stats.ipc(10_000);
        assert!(ipc > 2.5, "expected high ILP, got IPC {ipc}");
    }

    #[test]
    fn dependent_chain_limits_ipc_to_one() {
        // r1 <- r1 + r1 forever: a serial chain, IPC <= 1.
        let ops = vec![MicroOp::alu(0, Some(1), Some(1), Some(1))];
        let (stats, _) = run_ops(ops, 5_000);
        let ipc = stats.ipc(5_000);
        assert!(ipc <= 1.05, "serial chain cannot exceed 1 IPC, got {ipc}");
        assert!(ipc > 0.5, "chain should still progress, got {ipc}");
    }

    #[test]
    fn single_multiplier_throttles_mul_streams() {
        let muls: Vec<MicroOp> = (0..4)
            .map(|i| MicroOp {
                class: OpClass::IntMul,
                ..MicroOp::alu(i * 8, None, None, Some((i + 1) as u8))
            })
            .collect();
        let (stats, _) = run_ops(muls, 5_000);
        // One multiplier, 1-cycle initiation: at most 1 mul issued per
        // cycle, so IPC <= ~1.
        assert!(stats.ipc(5_000) <= 1.05);
    }

    #[test]
    fn loads_and_stores_flow_through_the_hierarchy() {
        let ops = vec![
            MicroOp::store(0, Addr::new(0x1000), Some(1)),
            MicroOp::load(8, Addr::new(0x2000), Some(2)),
        ];
        let (stats, hier) = run_ops(ops, 20_000);
        assert!(stats.committed > 100);
        assert!(hier.ops().loads > 0);
        assert!(hier.ops().stores > 0);
    }

    #[test]
    fn store_to_load_forwarding_is_used() {
        // Store to X immediately followed by load from X.
        let ops = vec![
            MicroOp::store(0, Addr::new(0x3000), Some(1)),
            MicroOp::load(8, Addr::new(0x3000), Some(2)),
        ];
        let (stats, _) = run_ops(ops, 5_000);
        assert!(stats.forwarded_loads > 0, "same-word load must forward");
    }

    #[test]
    fn mispredicted_branches_cost_fetch_cycles() {
        // A branch alternating taken/not-taken against a randomised
        // pattern is hard; emulate with a taken branch to a new target each
        // time... LoopStream repeats the same op, so use a predictable
        // taken branch (learned quickly) vs an always-mispredicting one.
        let well_predicted = vec![
            MicroOp::alu(0, None, None, Some(1)),
            MicroOp::branch(8, true, 0),
        ];
        let (good, _) = run_ops(well_predicted, 20_000);

        // Unpredictable direction: LoopStream cannot vary `taken`, so use
        // two branches at the same PC with opposite outcomes — the PHT
        // counter oscillates and mispredicts a large fraction.
        let poorly_predicted = vec![
            MicroOp::alu(0, None, None, Some(1)),
            MicroOp::branch(8, true, 0),
            MicroOp::alu(0, None, None, Some(1)),
            MicroOp::branch(8, false, 0),
        ];
        let (bad, _) = run_ops(poorly_predicted, 20_000);
        assert!(
            bad.ipc(20_000) < good.ipc(20_000),
            "mispredictions must cost throughput: bad {} vs good {}",
            bad.ipc(20_000),
            good.ipc(20_000)
        );
    }

    #[test]
    fn ruu_never_exceeds_capacity() {
        // A long-latency load chain backs the machine up; the RUU must
        // respect its 64-entry bound (checked indirectly: committed count
        // stays consistent and no panic occurs).
        let ops = vec![MicroOp::load(0, Addr::new(0x8000), Some(1))];
        let mut cpu = Pipeline::new(CoreConfig::date2006(), LoopStream::new(ops));
        let mut hier = mem();
        for now in 0..2_000 {
            cpu.step(&mut hier, now);
            assert!(cpu.ruu_len() <= 64);
            assert!(cpu.lsq_len() <= 32);
            hier.tick(now);
        }
    }

    #[test]
    fn stats_ipc_handles_zero_cycles() {
        assert_eq!(PipelineStats::default().ipc(0), 0.0);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::isa::LoopStream;
    use crate::trace::{RecordingStream, ReplayStream, TraceReader};
    use aep_mem::HierarchyConfig;

    #[test]
    fn replayed_trace_times_identically_to_the_original() {
        // Record a generator-driven run, then replay the trace through a
        // fresh pipeline: committed counts must match exactly (the trace
        // carries everything the timing model consumes).
        let ops = vec![
            MicroOp::alu(0, Some(1), None, Some(2)),
            MicroOp::load(8, Addr::new(0x2000), Some(3)),
            MicroOp::store(16, Addr::new(0x3000), Some(3)),
            MicroOp::branch(24, true, 0),
        ];
        let source = LoopStream::new(ops);
        let rec = RecordingStream::new(source, Vec::new()).unwrap();
        let mut cpu_a = Pipeline::new(CoreConfig::date2006(), rec);
        let mut mem_a = MemoryHierarchy::new(HierarchyConfig::tiny());
        cpu_a.run(&mut mem_a, 20_000);
        let committed_a = cpu_a.stats().committed;
        // Pull the recorded bytes back out of the pipeline's stream.
        let (_, buf) = {
            let Pipeline { stream, .. } = cpu_a;
            stream.finish().unwrap()
        };
        let ops_recorded = TraceReader::new(buf.as_slice())
            .unwrap()
            .read_all()
            .unwrap();
        assert!(ops_recorded.len() as u64 >= committed_a);

        let replay = ReplayStream::new(ops_recorded);
        let mut cpu_b = Pipeline::new(CoreConfig::date2006(), replay);
        let mut mem_b = MemoryHierarchy::new(HierarchyConfig::tiny());
        cpu_b.run(&mut mem_b, 20_000);
        assert_eq!(cpu_b.stats().committed, committed_a);
    }

    #[test]
    fn tlb_misses_add_latency_to_cold_pages() {
        // Loads striding across pages at low locality keep missing the
        // DTLB; ITLB stays hot. Observable via the TLB stats.
        let ops: Vec<MicroOp> = (0..8)
            .map(|i| MicroOp::load(i * 8, Addr::new(i * 8 * 4096), Some((i % 30 + 1) as u8)))
            .collect();
        let mut cpu = Pipeline::new(CoreConfig::date2006(), LoopStream::new(ops));
        let mut mem = MemoryHierarchy::new(HierarchyConfig::tiny());
        cpu.run(&mut mem, 10_000);
        assert!(cpu.dtlb().stats().misses > 0);
        assert!(cpu.itlb().stats().hits > 0);
    }

    #[test]
    fn full_write_buffer_back_pressure_reaches_commit() {
        // A pure store stream to distinct lines outruns the write buffer
        // drain; the commit stage must record store stalls.
        let ops: Vec<MicroOp> = (0..64)
            .map(|i| MicroOp::store(i * 8, Addr::new(0x100_000 + i * 4096), Some(1)))
            .collect();
        let mut cpu = Pipeline::new(CoreConfig::date2006(), LoopStream::new(ops));
        let mut mem = MemoryHierarchy::new(HierarchyConfig::tiny()); // 4-entry WB
        cpu.run(&mut mem, 30_000);
        assert!(
            cpu.stats().store_stall_cycles > 0,
            "store stream must hit write-buffer back-pressure"
        );
    }

    #[test]
    fn fetch_stalls_are_accounted() {
        // A stream with hard-to-predict branches spends cycles redirecting.
        let ops = vec![
            MicroOp::branch(0, true, 0x40),
            MicroOp::branch(0x40, false, 0),
            MicroOp::alu(0x48, None, None, Some(1)),
        ];
        let mut cpu = Pipeline::new(CoreConfig::date2006(), LoopStream::new(ops));
        let mut mem = MemoryHierarchy::new(HierarchyConfig::tiny());
        cpu.run(&mut mem, 10_000);
        assert!(cpu.stats().fetch_stall_cycles > 0);
    }
}

#[cfg(test)]
mod scheduler_tests {
    use super::*;
    use crate::isa::LoopStream;
    use aep_mem::HierarchyConfig;
    use aep_workloads::Benchmark;

    /// A calibrated generator of `aep-workloads` driving this test build
    /// of the pipeline. The generator implements the stream trait of the
    /// library build of this crate, so its ops are converted field by
    /// field.
    struct Calibrated(aep_workloads::Generator);

    impl InstrStream for Calibrated {
        fn next_op(&mut self) -> MicroOp {
            // Both builds declare `OpClass` from the same source, so the
            // discriminant indexes the variants in declaration order.
            const CLASSES: [OpClass; 7] = [
                OpClass::IntAlu,
                OpClass::IntMul,
                OpClass::FpAdd,
                OpClass::FpMul,
                OpClass::Load,
                OpClass::Store,
                OpClass::Branch,
            ];
            let op = aep_workloads::InstrStream::next_op(&mut self.0);
            MicroOp {
                pc: op.pc,
                class: CLASSES[op.class as usize],
                src1: op.src1,
                src2: op.src2,
                dst: op.dst,
                addr: op.addr,
                taken: op.taken,
                target: op.target,
            }
        }
    }

    /// The op loops of the unit tests above.
    fn loop_cases() -> Vec<Vec<MicroOp>> {
        let alu = |pc, dst| MicroOp::alu(pc, None, None, Some(dst));
        vec![
            (0..4).map(|i| alu(i * 8, i as u8)).collect(),
            vec![MicroOp::alu(0, Some(1), Some(1), Some(1))],
            (0..4)
                .map(|i| MicroOp {
                    class: OpClass::IntMul,
                    ..alu(i * 8, (i + 1) as u8)
                })
                .collect(),
            vec![
                MicroOp::store(0, Addr::new(0x1000), Some(1)),
                MicroOp::load(8, Addr::new(0x2000), Some(2)),
            ],
            vec![
                MicroOp::store(0, Addr::new(0x3000), Some(1)),
                MicroOp::load(8, Addr::new(0x3000), Some(2)),
            ],
            vec![alu(0, 1), MicroOp::branch(8, true, 0)],
            vec![
                alu(0, 1),
                MicroOp::branch(8, true, 0),
                alu(0, 1),
                MicroOp::branch(8, false, 0),
            ],
            vec![MicroOp::load(0, Addr::new(0x8000), Some(1))],
            vec![
                MicroOp::alu(0, Some(1), None, Some(2)),
                MicroOp::load(8, Addr::new(0x2000), Some(3)),
                MicroOp::store(16, Addr::new(0x3000), Some(3)),
                MicroOp::branch(24, true, 0),
            ],
            (0..8)
                .map(|i| MicroOp::load(i * 8, Addr::new(i * 8 * 4096), Some((i % 30 + 1) as u8)))
                .collect(),
            (0..64)
                .map(|i| MicroOp::store(i * 8, Addr::new(0x100_000 + i * 4096), Some(1)))
                .collect(),
            vec![
                MicroOp::branch(0, true, 0x40),
                MicroOp::branch(0x40, false, 0),
                alu(0x48, 1),
            ],
        ]
    }

    fn run_table1<S: InstrStream>(stream: S, cycles: Cycle) -> PipelineStats {
        let mut cpu = Pipeline::new(CoreConfig::date2006(), stream);
        let mut hier = MemoryHierarchy::new(HierarchyConfig::date2006());
        cpu.run(&mut hier, cycles);
        cpu.stats()
    }

    #[test]
    fn slot_scheduler_matches_the_reference_scans_on_table1() {
        // Test builds check the scheduler against `scan_ready` on every
        // cycle and every forwarding answer against `scan_forwarding`;
        // this drives those checks through the Table 1 machine.
        let mut forwarded = 0;
        for ops in loop_cases() {
            let stats = run_table1(LoopStream::new(ops), 20_000);
            assert!(stats.committed > 0);
            forwarded += stats.forwarded_loads;
        }
        for bench in [
            Benchmark::Mcf,
            Benchmark::Swim,
            Benchmark::Gcc,
            Benchmark::Art,
        ] {
            // Cold Table 1 caches stall fetch for most of the first 20K
            // cycles of a calibrated workload; 100K reach its steady mix.
            let stats = run_table1(Calibrated(bench.generator(2006)), 100_000);
            assert!(stats.committed > 5_000, "{bench} must make progress");
            forwarded += stats.forwarded_loads;
        }
        assert!(forwarded > 0, "the forwarding reference must be exercised");
    }
}
