//! Thompson construction: [`Ast`] → instruction [`Program`].

use crate::ast::{Ast, ClassItem};

/// A single VM instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inst {
    /// Match one character satisfying the predicate, advance input.
    Char(CharPred),
    /// Unconditional jump.
    Jmp(usize),
    /// Fork: try `primary` first (higher priority), then `secondary`.
    Split { primary: usize, secondary: usize },
    /// Record the current input position into capture slot `slot`.
    Save(usize),
    /// Zero-width assertion.
    Assert(Assertion),
    /// Accept.
    Match,
}

/// Character predicate for [`Inst::Char`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CharPred {
    /// A single literal character.
    Literal(char),
    /// Any character except `\n`.
    AnyNoNewline,
    /// A (possibly negated) set of items.
    Class {
        negated: bool,
        items: Vec<ClassItem>,
    },
}

impl CharPred {
    /// Evaluate the predicate against `c`.
    pub fn matches(&self, c: char) -> bool {
        match self {
            CharPred::Literal(l) => *l == c,
            CharPred::AnyNoNewline => c != '\n',
            CharPred::Class { negated, items } => {
                let inside = items.iter().any(|it| it.contains(c));
                inside != *negated
            }
        }
    }
}

/// Zero-width assertions for [`Inst::Assert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assertion {
    /// `^`
    Start,
    /// `$`
    End,
    /// `\b`
    WordBoundary,
    /// `\B`
    NotWordBoundary,
}

/// A compiled instruction sequence.
pub type Program = Vec<Inst>;

/// The bytes a match can begin with: what an unanchored search may skip
/// to while no thread is alive. ASCII bytes are decided exactly from the
/// program's first character predicates; every byte ≥ 0x80 counts as a
/// candidate, so a skip only ever steps over whole one-byte characters
/// and always lands on a char boundary.
#[derive(Clone, PartialEq, Eq)]
pub struct FirstBytes([bool; 256]);

impl FirstBytes {
    /// Can a match begin at a character whose first byte is `b`?
    #[inline]
    pub fn contains(&self, b: u8) -> bool {
        self.0[b as usize]
    }
}

impl std::fmt::Debug for FirstBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ascii: String = (0..128u8)
            .filter(|&b| self.contains(b))
            .map(char::from)
            .collect();
        write!(f, "FirstBytes({ascii:?} + non-ASCII)")
    }
}

/// The first-byte set of `prog`: the epsilon closure of pc 0 — through
/// `Jmp`, `Split`, `Save` and `Assert`, an assertion counted as passable
/// wherever it stands — down to the first `Char` predicates, each asked
/// about every ASCII character. A superset of what can really begin a
/// match, which is all a skip needs. `None` when `Match` is reachable
/// without consuming a character: such a program matches empty at
/// positions no byte announces, so nothing may be skipped.
pub fn first_bytes(prog: &Program) -> Option<FirstBytes> {
    let mut set = [false; 256];
    set[128..].fill(true);
    let mut seen = vec![false; prog.len()];
    let mut stack = vec![0];
    while let Some(pc) = stack.pop() {
        if std::mem::replace(&mut seen[pc], true) {
            continue;
        }
        match &prog[pc] {
            Inst::Char(pred) => {
                for b in 0..128u8 {
                    set[b as usize] |= pred.matches(char::from(b));
                }
            }
            Inst::Match => return None,
            Inst::Jmp(t) => stack.push(*t),
            Inst::Split { primary, secondary } => stack.extend([*primary, *secondary]),
            Inst::Save(_) | Inst::Assert(_) => stack.push(pc + 1),
        }
    }
    Some(FirstBytes(set))
}

/// Compile `ast`; returns the program and the number of capture groups
/// (including the implicit group 0).
pub fn compile(ast: &Ast) -> (Program, usize) {
    let mut c = Compiler {
        prog: Vec::new(),
        max_group: 0,
    };
    // Group 0 wraps the whole pattern.
    c.prog.push(Inst::Save(0));
    c.emit(ast);
    c.prog.push(Inst::Save(1));
    c.prog.push(Inst::Match);
    let n_captures = c.max_group as usize + 1;
    (c.prog, n_captures)
}

struct Compiler {
    prog: Program,
    max_group: u32,
}

impl Compiler {
    fn emit(&mut self, ast: &Ast) {
        match ast {
            Ast::Empty => {}
            Ast::Literal(ch) => self.prog.push(Inst::Char(CharPred::Literal(*ch))),
            Ast::AnyChar => self.prog.push(Inst::Char(CharPred::AnyNoNewline)),
            Ast::Class { negated, items } => self.prog.push(Inst::Char(CharPred::Class {
                negated: *negated,
                items: items.clone(),
            })),
            Ast::StartAnchor => self.prog.push(Inst::Assert(Assertion::Start)),
            Ast::EndAnchor => self.prog.push(Inst::Assert(Assertion::End)),
            Ast::WordBoundary(true) => self.prog.push(Inst::Assert(Assertion::WordBoundary)),
            Ast::WordBoundary(false) => self.prog.push(Inst::Assert(Assertion::NotWordBoundary)),
            Ast::Concat(parts) => parts.iter().for_each(|p| self.emit(p)),
            Ast::Alternate(parts) => self.emit_alternate(parts),
            Ast::Repeat {
                node,
                min,
                max,
                greedy,
            } => self.emit_repeat(node, *min, *max, *greedy),
            Ast::Group { index, node } => {
                self.max_group = self.max_group.max(*index);
                self.prog.push(Inst::Save(2 * *index as usize));
                self.emit(node);
                self.prog.push(Inst::Save(2 * *index as usize + 1));
            }
            Ast::NonCapturing(node) => self.emit(node),
        }
    }

    fn emit_alternate(&mut self, parts: &[Ast]) {
        debug_assert!(parts.len() >= 2);
        // split b1, (split b2, (... bn))  with jumps to a common end.
        let mut jmp_fixups = Vec::new();
        for (i, part) in parts.iter().enumerate() {
            let last = i == parts.len() - 1;
            if !last {
                let split_at = self.prog.len();
                self.prog.push(Inst::Split {
                    primary: 0,
                    secondary: 0,
                });
                let b_start = self.prog.len();
                self.emit(part);
                let jmp_at = self.prog.len();
                self.prog.push(Inst::Jmp(0));
                jmp_fixups.push(jmp_at);
                let next = self.prog.len();
                self.prog[split_at] = Inst::Split {
                    primary: b_start,
                    secondary: next,
                };
            } else {
                self.emit(part);
            }
        }
        let end = self.prog.len();
        for at in jmp_fixups {
            self.prog[at] = Inst::Jmp(end);
        }
    }

    fn emit_repeat(&mut self, node: &Ast, min: u32, max: Option<u32>, greedy: bool) {
        // Mandatory copies.
        for _ in 0..min {
            self.emit(node);
        }
        match max {
            Some(max) => {
                // Optional copies: (node (node (...)?)?)?
                let mut split_fixups = Vec::new();
                for _ in min..max {
                    let split_at = self.prog.len();
                    self.prog.push(Inst::Split {
                        primary: 0,
                        secondary: 0,
                    });
                    split_fixups.push(split_at);
                    let body = self.prog.len();
                    self.emit(node);
                    let take_first = greedy;
                    // fix later; record body start in primary temporarily
                    self.prog[split_at] = Inst::Split {
                        primary: if take_first { body } else { usize::MAX },
                        secondary: if take_first { usize::MAX } else { body },
                    };
                }
                let end = self.prog.len();
                for at in split_fixups {
                    if let Inst::Split { primary, secondary } = &mut self.prog[at] {
                        if *primary == usize::MAX {
                            *primary = end;
                        }
                        if *secondary == usize::MAX {
                            *secondary = end;
                        }
                    }
                }
            }
            None => {
                // Kleene star over the remaining copies:
                //   L1: split L2, L3   (greedy: body first)
                //   L2: node; jmp L1
                //   L3:
                let l1 = self.prog.len();
                self.prog.push(Inst::Split {
                    primary: 0,
                    secondary: 0,
                });
                let l2 = self.prog.len();
                self.emit(node);
                self.prog.push(Inst::Jmp(l1));
                let l3 = self.prog.len();
                self.prog[l1] = if greedy {
                    Inst::Split {
                        primary: l2,
                        secondary: l3,
                    }
                } else {
                    Inst::Split {
                        primary: l3,
                        secondary: l2,
                    }
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn prog(pat: &str) -> Program {
        compile(&parse(pat).unwrap()).0
    }

    #[test]
    fn literal_program_shape() {
        let p = prog("ab");
        assert_eq!(
            p,
            vec![
                Inst::Save(0),
                Inst::Char(CharPred::Literal('a')),
                Inst::Char(CharPred::Literal('b')),
                Inst::Save(1),
                Inst::Match,
            ]
        );
    }

    #[test]
    fn star_loops_back() {
        let p = prog("a*");
        // Save0, Split, Char, Jmp, Save1, Match
        assert!(matches!(
            p[1],
            Inst::Split {
                primary: 2,
                secondary: 4
            }
        ));
        assert!(matches!(p[3], Inst::Jmp(1)));
    }

    #[test]
    fn capture_count() {
        let (_, n) = compile(&parse("(a)(b(c))").unwrap());
        assert_eq!(n, 4);
        let (_, n) = compile(&parse("abc").unwrap());
        assert_eq!(n, 1);
    }

    /// The ASCII members of a pattern's first-byte set, `None` when the
    /// pattern has no set.
    fn first(pat: &str) -> Option<String> {
        let set = first_bytes(&prog(pat))?;
        assert!((128..=255u8).all(|b| set.contains(b)));
        Some(
            (0..128u8)
                .filter(|&b| set.contains(b))
                .map(char::from)
                .collect(),
        )
    }

    #[test]
    fn first_bytes_follow_every_epsilon_to_the_first_predicates() {
        assert_eq!(first("abc").as_deref(), Some("a"));
        assert_eq!(first(r"\bvm-\d+").as_deref(), Some("v"));
        assert_eq!(first(r"\b(tor|agg)-\d+|\bcore-\d+").as_deref(), Some("act"));
        assert_eq!(first("^x?y").as_deref(), Some("xy"));
        assert_eq!(first(r"(?:a|(b))+?c").as_deref(), Some("ab"));
        assert_eq!(first(r"\d").as_deref(), Some("0123456789"));
        // A negated class or `.` begins almost anywhere.
        assert_eq!(first("[^a]").unwrap().len(), 127);
        assert_eq!(first(".x").unwrap().len(), 127);
    }

    #[test]
    fn no_first_bytes_when_the_pattern_can_match_empty() {
        for pat in ["x*", "", "a?", "$", "^", r"\b", "a|", "(a*)*", "x{0,2}"] {
            assert_eq!(first(pat), None, "{pat}");
        }
    }

    #[test]
    fn char_pred_semantics() {
        assert!(CharPred::AnyNoNewline.matches('x'));
        assert!(!CharPred::AnyNoNewline.matches('\n'));
        let cls = CharPred::Class {
            negated: true,
            items: vec![ClassItem::Range('0', '9')],
        };
        assert!(cls.matches('a'));
        assert!(!cls.matches('5'));
    }
}
