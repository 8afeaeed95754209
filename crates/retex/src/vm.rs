//! Pike VM: executes a compiled [`Program`] over a haystack, tracking
//! capture slots per thread. Runs in `O(len(program) * len(haystack))`.
//!
//! An unanchored search seeds a fresh thread at every position until a
//! match is held. Seeding costs a slot row, an epsilon walk and — for a
//! `\b` — two character decodes, and at almost every position of an
//! incident text it comes to nothing: the byte there cannot begin a
//! match. So while no thread is alive and no match is held the search
//! jumps over bytes outside the program's [`FirstBytes`] and seeds only
//! at candidates. At a skipped position the seeded thread list could
//! only have held `Char` predicates that reject the byte, so the
//! seed-everywhere loop reaches the candidate with a list that holds no
//! thread and — having been cleared at the step before — no mark either.
//! The skip has to arrive in that same state: the empty list it started
//! from may still carry the marks of walks that died on an assertion
//! there (`(?:\ba)*\b-` between the `a` and `b` of "ab a-"), and a mark
//! made for one position would cut the seed walk short at another, so
//! the list is cleared before seeding. Clearing an empty list never
//! changes an answer: its marked instructions are closed under the
//! epsilon steps that hold at that position and reached no `Char` or
//! `Match`, so a walk that re-enters them adds nothing either. With that
//! the answer is the seed-everywhere answer slot for slot
//! (`crate::reference` keeps that loop as the test oracle). A program
//! that can match empty has no set and is searched position by position.

use crate::compiler::{Assertion, FirstBytes, Inst, Program};

/// One capture slot: a byte offset once the `Save` ran.
pub type Slot = Option<usize>;

/// The threads alive at one haystack position, in priority order, each
/// with its own row of capture slots.
struct ThreadList {
    pcs: Vec<usize>,
    /// Thread `i`'s slots are `slots[i * n_slots..][..n_slots]`: one
    /// table per list, not one `Vec` per thread.
    slots: Vec<Slot>,
    /// sparse[pc] == generation marks pc as already present.
    sparse: Vec<u64>,
    generation: u64,
}

impl ThreadList {
    fn new(n_insts: usize, n_slots: usize) -> ThreadList {
        ThreadList {
            pcs: Vec::with_capacity(n_insts),
            slots: Vec::with_capacity(n_insts * n_slots),
            sparse: vec![0; n_insts],
            generation: 0,
        }
    }

    fn clear(&mut self) {
        self.pcs.clear();
        self.slots.clear();
        self.generation += 1;
    }

    fn contains(&self, pc: usize) -> bool {
        self.sparse[pc] == self.generation
    }

    fn mark(&mut self, pc: usize) {
        self.sparse[pc] = self.generation;
    }

    fn push(&mut self, pc: usize, slots: &[Slot]) {
        self.pcs.push(pc);
        self.slots.extend_from_slice(slots);
    }
}

/// Everything a search allocates, sized for one program: a `find_iter`
/// owns one and reuses it for every match it yields.
pub struct Scratch {
    clist: ThreadList,
    nlist: ThreadList,
    /// The slot row of the thread being seeded or advanced.
    cur: Vec<Slot>,
    /// The slot row of the best match so far.
    best: Vec<Slot>,
}

impl Scratch {
    /// Scratch for searching `prog` with `n_captures` groups.
    pub fn new(prog: &Program, n_captures: usize) -> Scratch {
        let n_slots = 2 * n_captures;
        Scratch {
            clist: ThreadList::new(prog.len(), n_slots),
            nlist: ThreadList::new(prog.len(), n_slots),
            cur: vec![None; n_slots],
            best: vec![None; n_slots],
        }
    }
}

/// Search for the leftmost match of `prog` in `haystack` starting at byte
/// offset `from`. Returns the capture slots (2 per group) on success.
/// `first` must be `prog`'s [`crate::compiler::first_bytes`] and
/// `scratch` built for `prog`.
pub fn search<'s>(
    prog: &Program,
    first: Option<&FirstBytes>,
    haystack: &str,
    from: usize,
    scratch: &'s mut Scratch,
) -> Option<&'s [Slot]> {
    debug_assert!(
        haystack.is_char_boundary(from),
        "search offset must be a char boundary"
    );
    let Scratch {
        clist,
        nlist,
        cur,
        best,
    } = scratch;
    let n_slots = cur.len();
    let bytes = haystack.as_bytes();
    let mut matched = false;

    // Iterate over char boundaries from `from` to len (inclusive: the final
    // position handles end-of-input assertions and empty matches).
    let mut pos = from;
    clist.clear();
    loop {
        if matched {
            if clist.pcs.is_empty() {
                break;
            }
        } else {
            if let Some(first) = first.filter(|_| clist.pcs.is_empty()) {
                // Nothing alive, nothing held: the next position that
                // matters is the next byte a match can begin with. A
                // program with a set consumes at least one character, so
                // running out of haystack ends the search.
                match bytes[pos..].iter().position(|&b| first.contains(b)) {
                    Some(skipped) => pos += skipped,
                    None => break,
                }
                // An empty list can still carry marks, left by epsilon
                // walks that died on an assertion where the skip began.
                // They say nothing about where it lands.
                clist.clear();
            }
            // Unanchored search: seed a new lowest-priority thread at this
            // position unless a match has already been found (leftmost wins).
            cur.fill(None);
            add_thread(prog, 0, pos, haystack, clist, cur);
        }

        let ch = haystack[pos..].chars().next();
        nlist.clear();
        for (i, &pc) in clist.pcs.iter().enumerate() {
            let slots = &clist.slots[i * n_slots..][..n_slots];
            match &prog[pc] {
                Inst::Char(pred) => {
                    if let Some(c) = ch.filter(|&c| pred.matches(c)) {
                        cur.copy_from_slice(slots);
                        add_thread(prog, pc + 1, pos + c.len_utf8(), haystack, nlist, cur);
                    }
                }
                Inst::Match => {
                    // Highest-priority match at this step: record and cut all
                    // lower-priority threads (they cannot produce a better
                    // match under leftmost-greedy semantics).
                    best.copy_from_slice(slots);
                    matched = true;
                    break;
                }
                // Epsilon instructions were resolved in add_thread.
                Inst::Jmp(_) | Inst::Split { .. } | Inst::Save(_) | Inst::Assert(_) => {
                    unreachable!("epsilon instruction in thread list")
                }
            }
        }

        std::mem::swap(clist, nlist);
        if pos >= bytes.len() {
            break;
        }
        pos += ch.map_or(1, char::len_utf8);
    }
    matched.then_some(&best[..])
}

/// Follow epsilon transitions from `pc`, adding reachable Char/Match
/// instructions to `list` in priority order, each with a copy of
/// `slots` as the walk left them.
fn add_thread(
    prog: &Program,
    pc: usize,
    pos: usize,
    haystack: &str,
    list: &mut ThreadList,
    slots: &mut [Slot],
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
        Inst::Char(_) | Inst::Match => list.push(pc, slots),
    }
}

pub(crate) fn assertion_holds(a: Assertion, haystack: &str, pos: usize) -> bool {
    match a {
        Assertion::Start => pos == 0,
        Assertion::End => pos == haystack.len(),
        Assertion::WordBoundary => is_word_boundary(haystack, pos),
        Assertion::NotWordBoundary => !is_word_boundary(haystack, pos),
    }
}

fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn is_word_boundary(haystack: &str, pos: usize) -> bool {
    let before = haystack[..pos]
        .chars()
        .next_back()
        .map(is_word_char)
        .unwrap_or(false);
    let after = haystack[pos..]
        .chars()
        .next()
        .map(is_word_char)
        .unwrap_or(false);
    before != after
}

#[cfg(test)]
mod tests {
    use crate::Regex;

    #[test]
    fn alternation_priority_is_left_to_right() {
        // Leftmost-first semantics: "a|ab" on "ab" matches "a".
        let re = Regex::new("a|ab").unwrap();
        assert_eq!(re.find("ab").unwrap().text(), "a");
    }

    #[test]
    fn greedy_star_takes_longest() {
        let re = Regex::new("a*").unwrap();
        assert_eq!(re.find("aaab").unwrap().text(), "aaa");
    }

    #[test]
    fn saves_do_not_leak_between_branches() {
        let re = Regex::new(r"(a)b|(a)c").unwrap();
        let caps = re.captures("ac").unwrap();
        assert!(caps.get(1).is_none());
        assert_eq!(caps.get(2).unwrap().text(), "a");
    }

    #[test]
    fn repeated_group_captures_last_iteration() {
        let re = Regex::new(r"(a|b)+").unwrap();
        let caps = re.captures("abab").unwrap();
        assert_eq!(caps.get(0).unwrap().text(), "abab");
        assert_eq!(caps.get(1).unwrap().text(), "b");
    }

    #[test]
    fn leftmost_beats_longer_later() {
        let re = Regex::new(r"\d+").unwrap();
        assert_eq!(re.find("a1 22222").unwrap().text(), "1");
    }

    #[test]
    fn anchored_search_from_offset() {
        let re = Regex::new("^b").unwrap();
        assert!(
            re.find_at("ab", 1).is_none(),
            "^ anchors to haystack start, not offset"
        );
    }
}
