//! `retex` — a small, self-contained regular-expression engine.
//!
//! The Scout configuration language (paper §5.1) is built around operator
//! supplied regular expressions (`let VM = <regex>;`, `EXCLUDE TITLE =
//! <regex>;`). Rather than pulling in an external engine, `retex` implements
//! the subset the framework needs from scratch:
//!
//! * literals, `.`, escapes (`\d \D \w \W \s \S`, punctuation escapes)
//! * character classes `[a-z0-9_]`, negated classes `[^ ...]`
//! * alternation `a|b`, grouping `(..)` and non-capturing `(?:..)`
//! * repetition `* + ?` and bounded `{m}`, `{m,}`, `{m,n}` (greedy and
//!   non-greedy via a trailing `?`)
//! * anchors `^` and `$`, word boundaries `\b` / `\B`
//! * capture groups with sub-match extraction
//!
//! The implementation is a classic Thompson construction executed by a Pike
//! virtual machine: patterns compile to a small instruction program and the
//! VM advances a breadth-first set of threads over the haystack, so matching
//! runs in `O(program × haystack)` with no pathological backtracking. That
//! linear worst case matters here: incident text is untrusted operator /
//! customer input and a Scout must never stall on it.
//!
//! # Example
//!
//! ```
//! use retex::Regex;
//!
//! let re = Regex::new(r"(vm-\d+)\.(c\d+)\.(dc\d+)").unwrap();
//! let caps = re.captures("reboot storm on vm-042.c10.dc3 continues").unwrap();
//! assert_eq!(caps.get(0).unwrap().text(), "vm-042.c10.dc3");
//! assert_eq!(caps.get(2).unwrap().text(), "c10");
//! ```

mod ast;
mod compiler;
#[cfg(test)]
mod differential;
mod parser;
#[cfg(test)]
mod reference;
mod vm;

pub use ast::{Ast, ClassItem};
pub use parser::ParseError;

use compiler::{FirstBytes, Program};
use vm::{Scratch, Slot};

/// A compiled regular expression.
///
/// Construction parses and compiles the pattern once; matching never fails.
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    program: Program,
    n_captures: usize,
    /// The bytes a match can begin with, worked out once here so every
    /// search can jump between them; `None` when the pattern can match
    /// empty (see [`compiler::first_bytes`]).
    first: Option<FirstBytes>,
}

/// A single match location within a haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match<'t> {
    haystack: &'t str,
    /// Byte offset of the start of the match.
    pub start: usize,
    /// Byte offset one past the end of the match.
    pub end: usize,
}

impl<'t> Match<'t> {
    /// The matched text.
    pub fn text(&self) -> &'t str {
        &self.haystack[self.start..self.end]
    }

    /// Length of the match in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the match is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The set of capture-group matches produced by [`Regex::captures`].
#[derive(Debug, Clone)]
pub struct Captures<'t> {
    haystack: &'t str,
    slots: Vec<Slot>,
}

impl<'t> Captures<'t> {
    /// Group `i` (group 0 is the whole match). `None` if the group did not
    /// participate in the match.
    pub fn get(&self, i: usize) -> Option<Match<'t>> {
        let (s, e) = (*self.slots.get(2 * i)?, *self.slots.get(2 * i + 1)?);
        match (s, e) {
            (Some(start), Some(end)) => Some(Match {
                haystack: self.haystack,
                start,
                end,
            }),
            _ => None,
        }
    }

    /// Number of groups, including group 0.
    pub fn len(&self) -> usize {
        self.slots.len() / 2
    }

    /// True only for a degenerate captures object with no groups at all
    /// (cannot happen through the public API; group 0 always exists).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

impl Regex {
    /// Parse and compile `pattern`.
    pub fn new(pattern: &str) -> Result<Regex, ParseError> {
        let ast = parser::parse(pattern)?;
        let (program, n_captures) = compiler::compile(&ast);
        Ok(Regex {
            pattern: pattern.to_string(),
            first: compiler::first_bytes(&program),
            program,
            n_captures,
        })
    }

    /// The original pattern string.
    pub fn as_str(&self) -> &str {
        &self.pattern
    }

    /// Number of capture groups, including the implicit group 0.
    pub fn capture_count(&self) -> usize {
        self.n_captures
    }

    /// Does the pattern match anywhere in `haystack`?
    pub fn is_match(&self, haystack: &str) -> bool {
        self.search(haystack, 0, &mut self.scratch()).is_some()
    }

    /// Leftmost match, if any.
    pub fn find<'t>(&self, haystack: &'t str) -> Option<Match<'t>> {
        self.find_at(haystack, 0)
    }

    /// Leftmost match starting at or after byte offset `from`.
    pub fn find_at<'t>(&self, haystack: &'t str, from: usize) -> Option<Match<'t>> {
        self.find_with(haystack, from, &mut self.scratch())
    }

    /// Iterator over all non-overlapping matches, left to right.
    pub fn find_iter<'r, 't>(&'r self, haystack: &'t str) -> FindIter<'r, 't> {
        FindIter {
            re: self,
            haystack,
            at: 0,
            scratch: self.scratch(),
        }
    }

    /// Capture groups for the leftmost match.
    pub fn captures<'t>(&self, haystack: &'t str) -> Option<Captures<'t>> {
        self.captures_at(haystack, 0)
    }

    /// Capture groups for the leftmost match at or after `from`.
    pub fn captures_at<'t>(&self, haystack: &'t str, from: usize) -> Option<Captures<'t>> {
        let slots = self.search(haystack, from, &mut self.scratch())?.to_vec();
        Some(Captures { haystack, slots })
    }

    fn scratch(&self) -> Scratch {
        Scratch::new(&self.program, self.n_captures)
    }

    fn search<'s>(
        &self,
        haystack: &str,
        from: usize,
        scratch: &'s mut Scratch,
    ) -> Option<&'s [Slot]> {
        vm::search(&self.program, self.first.as_ref(), haystack, from, scratch)
    }

    fn find_with<'t>(
        &self,
        haystack: &'t str,
        from: usize,
        scratch: &mut Scratch,
    ) -> Option<Match<'t>> {
        let slots = self.search(haystack, from, scratch)?;
        Some(Match {
            haystack,
            start: slots[0]?,
            end: slots[1]?,
        })
    }
}

/// Iterator returned by [`Regex::find_iter`].
pub struct FindIter<'r, 't> {
    re: &'r Regex,
    haystack: &'t str,
    at: usize,
    /// One set of thread lists and slot rows for every match yielded.
    scratch: Scratch,
}

impl<'r, 't> Iterator for FindIter<'r, 't> {
    type Item = Match<'t>;

    fn next(&mut self) -> Option<Match<'t>> {
        if self.at > self.haystack.len() {
            return None;
        }
        let m = self
            .re
            .find_with(self.haystack, self.at, &mut self.scratch)?;
        // Never yield the same empty position twice: step past it.
        self.at = if m.end == m.start {
            next_char_boundary(self.haystack, m.end)
        } else {
            m.end
        };
        Some(m)
    }
}

fn next_char_boundary(s: &str, i: usize) -> usize {
    let mut j = i + 1;
    while j < s.len() && !s.is_char_boundary(j) {
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_match() {
        let re = Regex::new("switch").unwrap();
        assert!(re.is_match("tor switch down"));
        assert!(!re.is_match("router down"));
    }

    #[test]
    fn leftmost_semantics() {
        let re = Regex::new("a+").unwrap();
        let m = re.find("bb aaa aa").unwrap();
        assert_eq!((m.start, m.end), (3, 6));
        assert_eq!(m.text(), "aaa");
    }

    #[test]
    fn greedy_vs_lazy() {
        let re = Regex::new("<.+>").unwrap();
        assert_eq!(re.find("<a><b>").unwrap().text(), "<a><b>");
        let re = Regex::new("<.+?>").unwrap();
        assert_eq!(re.find("<a><b>").unwrap().text(), "<a>");
    }

    #[test]
    fn classes_and_escapes() {
        let re = Regex::new(r"[a-f0-9]{4}").unwrap();
        assert_eq!(re.find("id=beef0").unwrap().text(), "beef");
        let re = Regex::new(r"\d+\.\d+").unwrap();
        assert_eq!(re.find("loss 0.25%").unwrap().text(), "0.25");
        let re = Regex::new(r"[^0-9]+").unwrap();
        assert_eq!(re.find("123abc456").unwrap().text(), "abc");
    }

    #[test]
    fn anchors() {
        let re = Regex::new("^srv").unwrap();
        assert!(re.is_match("srv-1 down"));
        assert!(!re.is_match("on srv-1"));
        let re = Regex::new("down$").unwrap();
        assert!(re.is_match("srv-1 down"));
        assert!(!re.is_match("down now"));
        let re = Regex::new("^$").unwrap();
        assert!(re.is_match(""));
        assert!(!re.is_match("x"));
    }

    #[test]
    fn word_boundaries() {
        let re = Regex::new(r"\bdc\d+\b").unwrap();
        assert!(re.is_match("in dc3 now"));
        assert!(!re.is_match("abcdc3x"));
        let re = Regex::new(r"\Bx").unwrap();
        assert!(re.is_match("ax"));
        assert!(!re.is_match("x a"));
    }

    #[test]
    fn alternation_and_groups() {
        let re = Regex::new("(tor|agg|core)-sw").unwrap();
        assert_eq!(re.find("agg-sw7").unwrap().text(), "agg-sw");
        let caps = re.captures("core-sw2").unwrap();
        assert_eq!(caps.get(1).unwrap().text(), "core");
    }

    #[test]
    fn bounded_repetition() {
        let re = Regex::new(r"a{2,3}").unwrap();
        assert!(!re.is_match("a"));
        assert_eq!(re.find("aaaa").unwrap().text(), "aaa");
        let re = Regex::new(r"(ab){2}").unwrap();
        assert!(re.is_match("xababy"));
        assert!(!re.is_match("xaby"));
        let re = Regex::new(r"\d{3,}").unwrap();
        assert!(re.is_match("1234"));
        assert!(!re.is_match("12"));
    }

    #[test]
    fn optional() {
        let re = Regex::new(r"colou?r").unwrap();
        assert!(re.is_match("color"));
        assert!(re.is_match("colour"));
    }

    #[test]
    fn capture_groups_nested() {
        let re = Regex::new(r"((vm|srv)-(\d+))\.(c\d+)").unwrap();
        let caps = re.captures("host srv-17.c4 unreachable").unwrap();
        assert_eq!(caps.get(0).unwrap().text(), "srv-17.c4");
        assert_eq!(caps.get(1).unwrap().text(), "srv-17");
        assert_eq!(caps.get(2).unwrap().text(), "srv");
        assert_eq!(caps.get(3).unwrap().text(), "17");
        assert_eq!(caps.get(4).unwrap().text(), "c4");
    }

    #[test]
    fn non_capturing_group() {
        let re = Regex::new(r"(?:vm|srv)-(\d+)").unwrap();
        let caps = re.captures("vm-9").unwrap();
        assert_eq!(caps.len(), 2);
        assert_eq!(caps.get(1).unwrap().text(), "9");
    }

    #[test]
    fn unmatched_group_is_none() {
        let re = Regex::new(r"(a)|(b)").unwrap();
        let caps = re.captures("b").unwrap();
        assert!(caps.get(1).is_none());
        assert_eq!(caps.get(2).unwrap().text(), "b");
    }

    #[test]
    fn find_iter_non_overlapping() {
        let re = Regex::new(r"\d+").unwrap();
        let all: Vec<&str> = re.find_iter("12 abc 345 x 6").map(|m| m.text()).collect();
        assert_eq!(all, vec!["12", "345", "6"]);
    }

    #[test]
    fn find_iter_empty_matches_progress() {
        let re = Regex::new(r"a*").unwrap();
        // Must terminate and visit every position once.
        let n = re.find_iter("bab").count();
        assert_eq!(n, 4); // "", "a", "", ""
    }

    #[test]
    fn dot_does_not_match_newline() {
        let re = Regex::new("a.b").unwrap();
        assert!(re.is_match("axb"));
        assert!(!re.is_match("a\nb"));
    }

    #[test]
    fn unicode_haystack_is_safe() {
        let re = Regex::new(r"\d+").unwrap();
        assert_eq!(re.find("温度 42 度").unwrap().text(), "42");
        let re = Regex::new(".").unwrap();
        assert_eq!(re.find("é").unwrap().text(), "é");
    }

    #[test]
    fn parse_errors() {
        assert!(Regex::new("(").is_err());
        assert!(Regex::new(")").is_err());
        assert!(Regex::new("[a-").is_err());
        assert!(Regex::new("a{3,1}").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new(r"\").is_err());
    }

    #[test]
    fn pathological_pattern_is_linear() {
        // (a+)+$ against "aaaa...b" explodes under backtracking engines;
        // the Pike VM must finish promptly.
        let re = Regex::new("(a+)+$").unwrap();
        let hay = format!("{}b", "a".repeat(2000));
        assert!(!re.is_match(&hay));
    }

    #[test]
    fn component_extraction_patterns() {
        // The exact shapes the PhyNet Scout config uses (paper §5.1).
        let vm = Regex::new(r"\bvm-\d+\.c\d+\.dc\d+\b").unwrap();
        let cluster = Regex::new(r"\bc\d+\.dc\d+\b").unwrap();
        let text = "VM vm-3.c10.dc3 in cluster c10.dc3 cannot reach storage cluster c4.dc1";
        assert_eq!(vm.find_iter(text).count(), 1);
        let clusters: Vec<&str> = cluster.find_iter(text).map(|m| m.text()).collect();
        assert_eq!(clusters, vec!["c10.dc3", "c10.dc3", "c4.dc1"]);
    }
}
