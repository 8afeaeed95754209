//! The seed-everywhere search loop [`crate::vm::search`] replaced, kept
//! as the oracle the shipped search is compared against: a fresh thread
//! with a fresh slot vector at every position, whatever the byte there.
//! Test-only — the library has one search loop.

use crate::compiler::{Inst, Program};
use crate::vm::assertion_holds;

type Slots = Vec<Option<usize>>;

struct ThreadList {
    /// Program counters, in priority order.
    dense: Vec<(usize, Slots)>,
    /// sparse[pc] == generation marks pc as already present.
    sparse: Vec<u64>,
    generation: u64,
}

impl ThreadList {
    fn new(n: usize) -> ThreadList {
        ThreadList {
            dense: Vec::with_capacity(n),
            sparse: vec![0; n],
            generation: 0,
        }
    }

    fn clear(&mut self) {
        self.dense.clear();
        self.generation += 1;
    }

    fn contains(&self, pc: usize) -> bool {
        self.sparse[pc] == self.generation
    }

    fn mark(&mut self, pc: usize) {
        self.sparse[pc] = self.generation;
    }
}

/// Search for the leftmost match of `prog` in `haystack` starting at byte
/// offset `from`. Returns the capture slots (2 per group) on success.
pub fn search(prog: &Program, haystack: &str, from: usize, n_captures: usize) -> Option<Slots> {
    debug_assert!(
        haystack.is_char_boundary(from),
        "search offset must be a char boundary"
    );
    let n_slots = 2 * n_captures;
    let mut clist = ThreadList::new(prog.len());
    let mut nlist = ThreadList::new(prog.len());
    let mut best: Option<Slots> = None;

    // Iterate over char boundaries from `from` to len (inclusive: the final
    // position handles end-of-input assertions and empty matches).
    let mut pos = from;
    let bytes = haystack.as_bytes();
    clist.clear();
    loop {
        let ch = haystack[pos..].chars().next();
        // Unanchored search: seed a new lowest-priority thread at this
        // position unless a match has already been found (leftmost wins).
        if best.is_none() {
            let mut slots = vec![None; n_slots];
            add_thread(prog, 0, pos, haystack, &mut clist, &mut slots);
        }
        if clist.dense.is_empty() && best.is_some() {
            break;
        }

        nlist.clear();
        let mut i = 0;
        while i < clist.dense.len() {
            let (pc, slots) = {
                let (pc, ref slots) = clist.dense[i];
                (pc, slots.clone())
            };
            match &prog[pc] {
                Inst::Char(pred) => {
                    if let Some(c) = ch {
                        if pred.matches(c) {
                            let next_pos = pos + c.len_utf8();
                            let mut s = slots;
                            add_thread(prog, pc + 1, next_pos, haystack, &mut nlist, &mut s);
                        }
                    }
                }
                Inst::Match => {
                    // Highest-priority match at this step: record and cut all
                    // lower-priority threads (they cannot produce a better
                    // match under leftmost-greedy semantics).
                    best = Some(slots);
                    break;
                }
                // Epsilon instructions were resolved in add_thread.
                Inst::Jmp(_) | Inst::Split { .. } | Inst::Save(_) | Inst::Assert(_) => {
                    unreachable!("epsilon instruction in thread list")
                }
            }
            i += 1;
        }

        std::mem::swap(&mut clist, &mut nlist);
        if pos >= bytes.len() {
            break;
        }
        pos += ch.map_or(1, char::len_utf8);
    }
    best
}

/// Follow epsilon transitions from `pc`, adding reachable Char/Match
/// instructions to `list` in priority order.
fn add_thread(
    prog: &Program,
    pc: usize,
    pos: usize,
    haystack: &str,
    list: &mut ThreadList,
    slots: &mut Slots,
) {
    if list.contains(pc) {
        return;
    }
    list.mark(pc);
    match &prog[pc] {
        Inst::Jmp(t) => add_thread(prog, *t, pos, haystack, list, slots),
        Inst::Split { primary, secondary } => {
            add_thread(prog, *primary, pos, haystack, list, slots);
            add_thread(prog, *secondary, pos, haystack, list, slots);
        }
        Inst::Save(slot) => {
            let old = slots[*slot];
            slots[*slot] = Some(pos);
            add_thread(prog, pc + 1, pos, haystack, list, slots);
            slots[*slot] = old;
        }
        Inst::Assert(a) => {
            if assertion_holds(*a, haystack, pos) {
                add_thread(prog, pc + 1, pos, haystack, list, slots);
            }
        }
        Inst::Char(_) | Inst::Match => {
            list.dense.push((pc, slots.clone()));
        }
    }
}
