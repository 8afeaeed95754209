//! The shipped search against the seed-everywhere reference it replaced
//! ([`crate::reference`]), slot for slot: a proptest over generated
//! patterns and haystacks, a second over the one shape the first seldom
//! builds, and the skip-ahead's edge cases by name.
//!
//! These live in the library's unit tests, not in `tests/`, because the
//! reference is `#[cfg(test)]` and an integration test links the library
//! built without it.

use crate::vm::Slot;
use crate::{reference, Regex};
use proptest::prelude::*;

/// What the reference search answers for `re` over `hay` from `from`.
fn expected(re: &Regex, hay: &str, from: usize) -> Option<Vec<Slot>> {
    reference::search(&re.program, hay, from, re.n_captures)
}

/// `find_iter` as the reference search would drive it: the same
/// never-the-same-empty-match-twice stepping, one reference search per
/// match.
fn expected_find_iter(re: &Regex, hay: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut at = 0;
    while at <= hay.len() {
        let Some(slots) = expected(re, hay, at) else {
            break;
        };
        let (start, end) = (slots[0].unwrap(), slots[1].unwrap());
        out.push((start, end));
        at = if end == start {
            crate::next_char_boundary(hay, end)
        } else {
            end
        };
    }
    out
}

/// The first difference between the shipped `find`, `find_at`,
/// `find_iter`, `captures` and `captures_at` and the reference, over
/// every char boundary of `hay` as the starting offset; `None` when
/// they agree everywhere.
fn disagreement(pattern: &str, hay: &str) -> Option<String> {
    let re = Regex::new(pattern).expect("pattern compiles");
    let span = |slots: &Option<Vec<Slot>>| slots.as_ref().map(|s| (s[0].unwrap(), s[1].unwrap()));
    for from in (0..=hay.len()).filter(|&i| hay.is_char_boundary(i)) {
        let want = expected(&re, hay, from);
        let got = re.captures_at(hay, from).map(|c| c.slots);
        if got != want {
            return Some(format!(
                "captures_at {from}: {got:?}, reference {want:?} ({:?})",
                re.first
            ));
        }
        let got = re.find_at(hay, from).map(|m| (m.start, m.end));
        if got != span(&want) {
            return Some(format!("find_at {from}: {got:?}, reference {want:?}"));
        }
    }
    let want = expected(&re, hay, 0);
    if re.captures(hay).map(|c| c.slots) != want
        || re.find(hay).map(|m| (m.start, m.end)) != span(&want)
        || re.is_match(hay) != want.is_some()
    {
        return Some(format!("captures / find / is_match, reference {want:?}"));
    }
    let got: Vec<(usize, usize)> = re.find_iter(hay).map(|m| (m.start, m.end)).collect();
    let want = expected_find_iter(&re, hay);
    (got != want).then(|| format!("find_iter: {got:?}, reference {want:?}"))
}

/// A pattern grown from a string of random choices: every construct the
/// engine has, nested at most three groups deep. Choices that run out
/// read as 0, which always picks a plain literal, so generation ends.
struct PatternGen<'a> {
    choices: &'a [u8],
}

impl PatternGen<'_> {
    fn next(&mut self) -> usize {
        let (&c, rest) = self.choices.split_first().unwrap_or((&0, &[]));
        self.choices = rest;
        c as usize
    }

    fn pick<'s>(&mut self, from: &[&'s str]) -> &'s str {
        from[self.next() % from.len()]
    }

    fn alternation(&mut self, depth: usize) -> String {
        let branches = [1, 1, 1, 2, 2, 3][self.next() % 6];
        let parts: Vec<String> = (0..branches).map(|_| self.concat(depth)).collect();
        parts.join("|")
    }

    fn concat(&mut self, depth: usize) -> String {
        // An occasional empty branch: `a|` matches empty.
        let atoms = [1, 1, 2, 2, 3, 3, 4, 0][self.next() % 8];
        (0..atoms).map(|_| self.repeat(depth)).collect()
    }

    fn repeat(&mut self, depth: usize) -> String {
        const LITERALS: &[&str] = &["a", "b", "c", "1", "-", r"\.", " ", "_", "é", "温"];
        const CLASSES: &[&str] = &[
            ".", "[ab]", "[^ab]", "[a-c1]", "[^ 温]", "[é-]", r"\d", r"\D", r"\w", r"\W", r"\s",
            r"\S",
        ];
        const ASSERTIONS: &[&str] = &[r"\b", r"\B", "^", "$"];
        const REPEATS: &[&str] = &[
            "*", "+", "?", "*?", "+?", "??", "{2}", "{1,2}", "{0,2}?", "{2,}",
        ];
        let atom = match self.next() % 10 {
            0..=3 => self.pick(LITERALS).to_string(),
            4..=6 => self.pick(CLASSES).to_string(),
            // Assertions take no repeat.
            7 => return self.pick(ASSERTIONS).to_string(),
            _ if depth == 0 => self.pick(LITERALS).to_string(),
            8 => format!("({})", self.alternation(depth - 1)),
            _ => format!("(?:{})", self.alternation(depth - 1)),
        };
        match self.next() % 3 {
            0 => atom + self.pick(REPEATS),
            _ => atom,
        }
    }
}

fn pattern_from(choices: &[u8]) -> String {
    PatternGen { choices }.alternation(3)
}

/// Haystack characters: the pattern literals, characters only classes
/// reach, a newline for `.`, and one-, two- and three-byte neighbours.
const ALPHABET: &[char] = &[
    'a', 'b', 'c', 'x', '1', '7', '-', '.', ' ', '_', '\n', 'é', 'ß', '温', '→',
];

fn haystack_from(picks: &[usize]) -> String {
    picks.iter().map(|&i| ALPHABET[i]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn shipped_search_equals_the_unfiltered_reference(
        choices in proptest::collection::vec(any::<u8>(), 1..48),
        picks in proptest::collection::vec(0..ALPHABET.len(), 0..40),
    ) {
        let (pattern, hay) = (pattern_from(&choices), haystack_from(&picks));
        prop_assert_eq!(disagreement(&pattern, &hay), None, "/{}/ over {:?}", pattern, hay);
    }

    /// The uniform generator above seldom builds the one shape where a
    /// skip starts from an empty list that is still marked: a loop whose
    /// body opens with an assertion, followed by another assertion, over
    /// a haystack where both fail between two characters and a candidate
    /// byte comes later. This one builds nothing else.
    #[test]
    fn a_skip_that_starts_from_a_marked_empty_list_equals_the_reference(
        choices in proptest::collection::vec(any::<u8>(), 8..9),
        picks in proptest::collection::vec(0..ASSERTED_LOOP_ALPHABET.len(), 0..12),
    ) {
        let pattern = asserted_loop_from(&choices);
        let hay: String = picks.iter().map(|&i| ASSERTED_LOOP_ALPHABET[i]).collect();
        prop_assert_eq!(disagreement(&pattern, &hay), None, "/{}/ over {:?}", pattern, hay);
    }
}

const ASSERTED_LOOP_ALPHABET: &[char] = &['a', 'b', '-', ' ', 'é'];

/// `(?:\ba)*\b-` and its relatives: one or two assertion-led branches in
/// a repeated group, then an assertion and a character.
fn asserted_loop_from(choices: &[u8]) -> String {
    const ASSERTIONS: &[&str] = &[r"\b", r"\B", "^", "$"];
    const ATOMS: &[&str] = &["a", "b", "-", " ", "é", r"\w", r"\W", "[ab]"];
    const REPEATS: &[&str] = &["*", "+", "?", "*?", "+?", "{1,2}"];
    let mut gen = PatternGen { choices };
    let branch = |gen: &mut PatternGen| gen.pick(ASSERTIONS).to_string() + gen.pick(ATOMS);
    let body = match gen.next() % 2 {
        0 => branch(&mut gen),
        _ => branch(&mut gen) + "|" + &branch(&mut gen),
    };
    let (repeat, after, last) = (gen.pick(REPEATS), gen.pick(ASSERTIONS), gen.pick(ATOMS));
    format!("({body}){repeat}{after}{last}")
}

/// The generator reaches both kinds of program: with a first-byte set
/// and (matches empty) without.
#[test]
fn generated_patterns_come_with_and_without_a_first_byte_set() {
    let (mut with, mut without) = (0, 0);
    for seed in 0..=255u8 {
        let choices: Vec<u8> = (0..32u8)
            .map(|i| seed.wrapping_mul(31).wrapping_add(i.wrapping_mul(seed | 1)))
            .collect();
        match Regex::new(&pattern_from(&choices)).unwrap().first {
            Some(_) => with += 1,
            None => without += 1,
        }
    }
    assert!(
        with >= 40 && without >= 40,
        "{with} with, {without} without"
    );
}

/// Every match of `pattern` in `hay`, as (start, text).
fn spans<'t>(pattern: &str, hay: &'t str) -> Vec<(usize, &'t str)> {
    let re = Regex::new(pattern).unwrap();
    re.find_iter(hay).map(|m| (m.start, m.text())).collect()
}

#[test]
fn a_candidate_byte_between_multibyte_characters() {
    // The skip stops on the three-byte arrow's first byte (any byte
    // ≥ 0x80 is a candidate), steps over it as one character, and seeds
    // at `v` with the arrow as `\b`'s look-behind.
    let hay = "→vm-1→ évm-2 温vm-3温→vm-4";
    assert_eq!(spans(r"\bvm-\d+", hay), [(3, "vm-1"), (31, "vm-4")]);
    assert_eq!(disagreement(r"\bvm-\d+", hay), None);
    // Without the boundary every mention counts.
    assert_eq!(spans(r"vm-\d", hay).len(), 4);
    assert_eq!(disagreement(r"vm-\d", hay), None);
    // A non-ASCII first character is always a candidate.
    assert_eq!(spans("温v", hay), [(18, "温v")]);
    assert_eq!(disagreement("温v", hay), None);
    assert_eq!(disagreement("[é温]vm", hay), None);
}

#[test]
fn find_at_from_a_mid_haystack_offset() {
    let re = Regex::new(r"\bc\d+\.dc\d+\b").unwrap();
    let hay = "c1.dc1 then c22.dc3 → c4.dc4";
    let at = |from| re.find_at(hay, from).map(|m| (m.start, m.text()));
    assert_eq!(at(0), Some((0, "c1.dc1")));
    assert_eq!(at(1), Some((12, "c22.dc3")));
    assert_eq!(at(12), Some((12, "c22.dc3")));
    // Starting inside a mention: `\b` looks behind the offset, at `c`.
    assert_eq!(at(13), Some((24, "c4.dc4")));
    assert_eq!(at(hay.len()), None);
    assert_eq!(disagreement(re.as_str(), hay), None);
}

#[test]
fn a_first_atom_that_is_a_negated_class_or_a_dot() {
    let hay = "ab\nb→b xb";
    assert_eq!(spans("[^a]b", hay), [(2, "\nb"), (4, "→b"), (9, "xb")]);
    assert_eq!(spans(".b", hay), [(0, "ab"), (4, "→b"), (9, "xb")]);
    for pattern in ["[^a]b", ".b", r"\Db", r"\W+b", "[^a→]", ".?b"] {
        assert_eq!(disagreement(pattern, hay), None, "{pattern}");
    }
}

#[test]
fn start_anchored_and_end_only_patterns() {
    // `^ab` has a first-byte set ({a}); the skip may run to a later `a`,
    // where `^` then fails as it would have.
    assert_eq!(spans("^ab", "abab"), [(0, "ab")]);
    assert_eq!(spans("^ab", "xab ab"), []);
    assert!(Regex::new("^ab").unwrap().find_at("abab", 2).is_none());
    // `$` alone matches empty: no set, and the match is at the end.
    assert_eq!(spans("$", "ab→"), [(5, "")]);
    assert_eq!(spans("b$", "ab b"), [(3, "b")]);
    for (pattern, hay) in [
        ("^ab", "abab"),
        ("^ab", "xab"),
        ("$", "ab→"),
        ("^$", ""),
        ("b$", "ab b"),
    ] {
        assert_eq!(disagreement(pattern, hay), None, "/{pattern}/ over {hay:?}");
    }
}

#[test]
fn alternation_branches_starting_with_different_bytes() {
    let switch = r"\b(tor|agg)-\d+\.c\d+\.dc\d+\b|\bcore-\d+\.dc\d+\b";
    let hay = "storage on tor-1.c2.dc3, aggregate agg-22.c0.dc1; core-0.dc9 → actor-7.c1.dc1";
    assert_eq!(
        spans(switch, hay),
        [
            (11, "tor-1.c2.dc3"),
            (35, "agg-22.c0.dc1"),
            (50, "core-0.dc9")
        ]
    );
    assert_eq!(disagreement(switch, hay), None);
    let re = Regex::new(switch).unwrap();
    let caps = re.captures_at(hay, 20).unwrap();
    assert_eq!(caps.get(1).unwrap().text(), "agg");
    assert!(re.captures_at(hay, 40).unwrap().get(1).is_none());
}

#[test]
fn a_skip_right_after_every_thread_died_on_an_assertion() {
    // `(?:\ba)*\b-` over "ab a-": the `a` at 0 is consumed, and the walk
    // at 1 visits the loop's Split and both `\b`, which fail between `a`
    // and `b` — the next list is empty but marked. The search then skips
    // to the `a` at 3, and those marks, made for position 1, must not
    // stop the seed there: the match is "a-" at 3, not "-" at 4.
    assert_eq!(spans(r"(?:\ba)*\b-", "ab a-"), [(3, "a-")]);
    assert_eq!(spans(r"(?:\Ba)*\Bc", "xa xac"), [(4, "ac")]);
    for (pattern, hay) in [
        (r"(?:\ba)*\b-", "ab a-"),
        (r"(?:\Ba)*\Bc", "xa xac"),
        (r"(?:\ba)+\b-", "ab a-"),
        (r"(\ba|\bb)*\b-", "ab b- a-"),
        (r"(?:a$)*$b|ab", "ax ab"),
    ] {
        assert_eq!(disagreement(pattern, hay), None, "/{pattern}/ over {hay:?}");
    }
}

#[test]
fn a_pattern_that_matches_empty_still_visits_every_position() {
    assert_eq!(
        spans("x*", "bxxb→x"),
        [(0, ""), (1, "xx"), (3, ""), (4, ""), (7, "x"), (8, "")]
    );
    for pattern in ["x*", "x*?", "(x|)", r"\b", "x?→?"] {
        assert_eq!(disagreement(pattern, "bxxb→x"), None, "{pattern}");
    }
}
