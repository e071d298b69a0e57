//! The reply oracle: every line sent must get exactly one correct reply.
//!
//! A `Done` outcome must equal, by [`hash_outcome`], an in-harness
//! [`route`] of the same request. Garbage lines must get a typed
//! `Rejected{Invalid}`, and exact searches under a deadline must be shed
//! as `Deadline{Plan}`. Anything else — a missing, duplicated or altered
//! reply, an unexpected rejection, a `Failed`, a reply to an id never
//! sent — is a failure.
//!
//! Parsing a large front reply costs tens of milliseconds, so a reply is
//! split into its small envelope (parsed) and its outcome text, which is
//! first compared byte for byte with the reference outcome rendered by
//! the same codec. Equal bytes parse to the reference's bits; only when
//! the bytes differ is the outcome parsed and compared by digest.

use crate::gen::{Expect, Generated, Template};
use cpo_core::router::route;
use cpo_model::hash::hash_outcome;
use cpo_model::io::serde_json_error;
use cpo_model::prelude::*;
use cpo_serve::{DeadlineStage, RejectReason, ServeOutcome, ServeReply};
use std::collections::HashMap;

/// What one line must be answered with, digests resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Want {
    /// `Done` whose outcome digests to this value.
    Outcome(u128),
    /// `Rejected{Invalid}`.
    Invalid,
    /// `Deadline{Plan}`.
    DeadlinePlan,
}

/// The reference answer for one template.
#[derive(Debug, Clone)]
pub struct Expected {
    /// The required verdict.
    pub want: Want,
    /// The reference outcome in the program's compact JSON (solves only).
    pub text: Option<String>,
    /// The reference outcome's kind (`solution`, `front`, …) or the
    /// expected rejection.
    pub kind: &'static str,
}

impl Expected {
    /// The expectation for `req` solved by the router.
    pub fn solve(req: &SolveRequest) -> Expected {
        let out = route(&req.apps, &req.platform, &req.problem);
        Expected {
            want: Want::Outcome(hash_outcome(&out)),
            text: out.to_json_compact().ok(),
            kind: out.kind(),
        }
    }

    fn of(t: &Template) -> Expected {
        match (t.expect, &t.req) {
            (Expect::Solve, Some(r)) => Expected::solve(r),
            (Expect::DeadlinePlan, _) => {
                Expected { want: Want::DeadlinePlan, text: None, kind: "deadline_plan" }
            }
            _ => Expected { want: Want::Invalid, text: None, kind: "invalid" },
        }
    }
}

/// Reference answers, one per template of `g`. The `route` calls run on
/// `threads` threads; they happen before any timed phase.
pub fn reference(g: &Generated, threads: usize) -> Vec<Expected> {
    par_map(&g.templates, threads, Expected::of)
}

/// Map `f` over `items` on up to `threads` scoped threads, in order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> =
            items.chunks(chunk).map(|c| s.spawn(|| c.iter().map(&f).collect::<Vec<R>>())).collect();
        handles.into_iter().flat_map(|h| h.join().expect("oracle worker panicked")).collect()
    })
}

/// One line as submitted to a server, in submission order (its position
/// is the server's admission sequence number).
#[derive(Debug, Clone, Copy)]
pub struct Sent<'a> {
    /// The correlation id (`None` for garbage lines).
    pub id: Option<&'a str>,
    /// Its reference answer.
    pub expected: &'a Expected,
}

/// The oracle's tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Lines sent.
    pub attempted: u64,
    /// Lines without a reply.
    pub missing: u64,
    /// Lines answered more than once.
    pub duplicated: u64,
    /// Lines whose (single) reply was not the required verdict.
    pub wrong: u64,
    /// Replies that match no line (unparseable, unknown id or sequence).
    pub orphan: u64,
}

impl Verdict {
    /// Lines that did not get exactly one correct reply, plus orphans.
    pub fn failed(&self) -> u64 {
        self.missing + self.duplicated + self.wrong + self.orphan
    }

    /// Add another tally.
    pub fn add(&mut self, o: &Verdict) {
        self.attempted += o.attempted;
        self.missing += o.missing;
        self.duplicated += o.duplicated;
        self.wrong += o.wrong;
        self.orphan += o.orphan;
    }
}

/// How one reply matched.
#[derive(Debug, Clone, Copy)]
enum Matched {
    /// Line index and whether the verdict was right.
    Line(usize, bool),
    Orphan,
}

/// Whether `outcome` is the verdict `want` requires.
pub fn judge(want: Want, outcome: &ServeOutcome) -> bool {
    match (want, outcome) {
        (Want::Outcome(h), ServeOutcome::Done { result }) => hash_outcome(result) == h,
        (Want::Invalid, ServeOutcome::Rejected { reason: RejectReason::Invalid, .. }) => true,
        (Want::DeadlinePlan, ServeOutcome::Deadline { exceeded_at: DeadlineStage::Plan, .. }) => {
            true
        }
        _ => false,
    }
}

const DONE_PREFIX: &str = "{\"Done\":{\"result\":";
const DONE_SUFFIX: &str = "}}";

/// Judge a reply's outcome from its JSON text.
fn judge_text(expected: &Expected, outcome: &str) -> bool {
    let same_bytes = expected.text.as_deref().is_some_and(|t| {
        outcome.len() == DONE_PREFIX.len() + t.len() + DONE_SUFFIX.len()
            && outcome.starts_with(DONE_PREFIX)
            && outcome.ends_with(DONE_SUFFIX)
            && &outcome[DONE_PREFIX.len()..DONE_PREFIX.len() + t.len()] == t
    });
    same_bytes
        || serde_json_error::from_str::<ServeOutcome>(outcome)
            .is_ok_and(|o| judge(expected.want, &o))
}

/// Split a reply line into its envelope (outcome replaced by a small
/// stand-in) and its outcome text. Relies on the sorted-key layout
/// `…,"outcome":<outcome>,"seq":…`; `None` when the line has another.
fn split_reply(line: &str) -> Option<(String, &str)> {
    const KEY: &str = "\"outcome\":";
    let start = line.find(KEY)? + KEY.len();
    let end = line.rfind(",\"seq\":")?;
    (end > start).then(|| {
        let envelope =
            format!("{}{{\"Failed\":{{\"reason\":\"\"}}}}{}", &line[..start], &line[end..]);
        (envelope, &line[start..end])
    })
}

fn locate(sent: &[Sent<'_>], by_id: &HashMap<&str, usize>, reply: &ServeReply) -> Option<usize> {
    let seq = reply.seq as usize;
    let index = match &reply.id {
        Some(id) => by_id.get(id.as_str()).copied(),
        // Only garbage lines are answered without an id; their sequence
        // number is their submission position.
        None => (seq < sent.len() && sent[seq].id.is_none()).then_some(seq),
    };
    // The single ingress thread admits lines in order.
    index.filter(|&i| i == seq)
}

fn classify(sent: &[Sent<'_>], by_id: &HashMap<&str, usize>, line: &str) -> Matched {
    if let Some((envelope, outcome)) = split_reply(line) {
        if let Ok(reply) = ServeReply::from_json(&envelope) {
            return match locate(sent, by_id, &reply) {
                Some(i) => Matched::Line(i, judge_text(sent[i].expected, outcome)),
                None => Matched::Orphan,
            };
        }
    }
    match ServeReply::from_json(line) {
        Ok(reply) => match locate(sent, by_id, &reply) {
            Some(i) => Matched::Line(i, judge(sent[i].expected.want, &reply.outcome)),
            None => Matched::Orphan,
        },
        Err(_) => Matched::Orphan,
    }
}

fn ids<'a>(sent: &[Sent<'a>]) -> HashMap<&'a str, usize> {
    sent.iter().enumerate().filter_map(|(i, s)| s.id.map(|id| (id, i))).collect()
}

/// Check the reply lines of one serve process against the lines it was
/// sent. Also returns, per reply, the line it correctly answered.
pub fn check_serve<S: AsRef<str> + Sync>(
    sent: &[Sent<'_>],
    replies: &[S],
    threads: usize,
) -> (Verdict, Vec<Option<usize>>) {
    let by_id = ids(sent);
    let matched = par_map(replies, threads, |r| classify(sent, &by_id, r.as_ref()));
    let answered = matched
        .iter()
        .map(|m| match m {
            Matched::Line(i, true) => Some(*i),
            _ => None,
        })
        .collect();
    (tally(sent.len(), matched), answered)
}

/// [`check_serve`] for replies received in-process (already typed).
pub fn check_replies(sent: &[Sent<'_>], replies: &[ServeReply]) -> Verdict {
    let by_id = ids(sent);
    let matched = replies
        .iter()
        .map(|r| match locate(sent, &by_id, r) {
            Some(i) => Matched::Line(i, judge(sent[i].expected.want, &r.outcome)),
            None => Matched::Orphan,
        })
        .collect();
    tally(sent.len(), matched)
}

fn tally(lines: usize, matched: Vec<Matched>) -> Verdict {
    let mut count = vec![0u32; lines];
    let mut right = vec![false; lines];
    let mut v = Verdict { attempted: lines as u64, ..Verdict::default() };
    for m in matched {
        match m {
            Matched::Line(i, ok) => {
                count[i] += 1;
                right[i] = ok;
            }
            Matched::Orphan => v.orphan += 1,
        }
    }
    for (n, ok) in count.iter().zip(&right) {
        match n {
            0 => v.missing += 1,
            1 if !ok => v.wrong += 1,
            1 => {}
            _ => v.duplicated += 1,
        }
    }
    v
}

/// Check a batch run's stdout: line `i` answers item `i`.
pub fn check_batch<S: AsRef<str> + Sync>(
    expected: &[&Expected],
    replies: &[S],
    threads: usize,
) -> Verdict {
    let indexed: Vec<(usize, &str)> = replies.iter().map(AsRef::as_ref).enumerate().collect();
    let matched = par_map(&indexed, threads, |&(i, line)| match expected.get(i) {
        Some(e) => Matched::Line(
            i,
            e.text.as_deref() == Some(line)
                || SolveOutcome::from_json(line)
                    .is_ok_and(|o| e.want == Want::Outcome(hash_outcome(&o))),
        ),
        None => Matched::Orphan,
    });
    tally(expected.len(), matched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::generator::section2_example;

    fn request(id: &str, bound: f64) -> SolveRequest {
        let (apps, _) = section2_example();
        let pf = Platform::fully_homogeneous(3, vec![1.0, 3.0, 6.0, 8.0], 1.0).expect("valid");
        let spec = ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
            .with_period_bounds(vec![bound, bound]);
        SolveRequest::new("oracle test", apps, pf, spec).with_id(id)
    }

    fn reply(seq: u64, id: Option<&str>, outcome: ServeOutcome) -> String {
        ServeReply {
            seq,
            id: id.map(String::from),
            tenant: Some("t0".into()),
            downgraded: false,
            elapsed_ms: 0.5,
            outcome,
        }
        .to_json_compact()
        .expect("finite reply")
    }

    fn done(req: &SolveRequest) -> ServeOutcome {
        ServeOutcome::Done { result: route(&req.apps, &req.platform, &req.problem) }
    }

    fn invalid() -> Expected {
        Expected { want: Want::Invalid, text: None, kind: "invalid" }
    }

    /// Three lines — two requests around a garbage line — and their
    /// correct replies, out of order.
    fn scenario() -> (Vec<Expected>, Vec<String>) {
        let (a, b) = (request("a", 14.0), request("b", 2.0));
        let expected = vec![Expected::solve(&a), invalid(), Expected::solve(&b)];
        let rejected =
            ServeOutcome::Rejected { reason: RejectReason::Invalid, detail: "parse error".into() };
        let replies = vec![
            reply(2, Some("b"), done(&b)),
            reply(1, None, rejected),
            reply(0, Some("a"), done(&a)),
        ];
        (expected, replies)
    }

    fn check(expected: &[Expected], replies: &[String]) -> Verdict {
        let sent: Vec<Sent<'_>> = expected
            .iter()
            .zip([Some("a"), None, Some("b")])
            .map(|(e, id)| Sent { id, expected: e })
            .collect();
        let v = check_serve(&sent, replies, 2).0;
        // The slow path (full parse of every line) must agree.
        let by_id = ids(&sent);
        let slow: Vec<Matched> = replies
            .iter()
            .map(|l| match ServeReply::from_json(l) {
                Ok(r) => match locate(&sent, &by_id, &r) {
                    Some(i) => Matched::Line(i, judge(sent[i].expected.want, &r.outcome)),
                    None => Matched::Orphan,
                },
                Err(_) => Matched::Orphan,
            })
            .collect();
        assert_eq!(v, tally(sent.len(), slow));
        v
    }

    #[test]
    fn correct_replies_in_any_order_pass() {
        let (expected, replies) = scenario();
        assert_eq!(check(&expected, &replies), Verdict { attempted: 3, ..Verdict::default() });
    }

    #[test]
    fn dropped_reply_is_caught() {
        let (expected, mut replies) = scenario();
        replies.remove(0);
        let v = check(&expected, &replies);
        assert_eq!((v.missing, v.failed()), (1, 1));
    }

    #[test]
    fn duplicated_reply_is_caught() {
        let (expected, mut replies) = scenario();
        replies.push(replies[2].clone());
        let v = check(&expected, &replies);
        assert_eq!((v.duplicated, v.failed()), (1, 1));
    }

    #[test]
    fn altered_reply_is_caught() {
        // Same id, a different (but valid) solver answer.
        let (expected, mut replies) = scenario();
        replies[2] = reply(0, Some("a"), done(&request("a", 5.0)));
        assert_eq!(check(&expected, &replies).wrong, 1);
        // The objective's last bit flipped in the reply bytes.
        let (expected, mut replies) = scenario();
        let key = "\"objective\":";
        let at = replies[2].find(key).expect("a solution reply") + key.len();
        let len = replies[2][at..].find([',', '}']).expect("a number");
        let value: f64 = replies[2][at..at + len].parse().expect("a number");
        let flipped = f64::from_bits(value.to_bits() ^ 1).to_string();
        replies[2].replace_range(at..at + len, &flipped);
        assert_eq!(check(&expected, &replies).wrong, 1);
        // A typed rejection where a solve was due.
        let (expected, mut replies) = scenario();
        let full =
            ServeOutcome::Rejected { reason: RejectReason::QueueFull, detail: String::new() };
        replies[0] = reply(2, Some("b"), full);
        assert_eq!(check(&expected, &replies).wrong, 1);
        // A garbage line answered with anything but Invalid.
        let (expected, mut replies) = scenario();
        replies[1] = reply(1, None, ServeOutcome::Failed { reason: "boom".into() });
        assert_eq!(check(&expected, &replies).wrong, 1);
    }

    #[test]
    fn orphan_and_unparseable_replies_are_caught() {
        let (expected, mut replies) = scenario();
        replies.push(reply(3, Some("zzz"), ServeOutcome::Failed { reason: "?".into() }));
        replies.push("not json".into());
        // A known id under the wrong sequence number.
        replies.push(reply(7, Some("a"), done(&request("a", 14.0))));
        let v = check(&expected, &replies);
        assert_eq!((v.orphan, v.failed()), (3, 3));
    }

    #[test]
    fn batch_lines_are_checked_in_order() {
        let reqs = [request("a", 14.0), request("b", 2.0)];
        let expected: Vec<Expected> = reqs.iter().map(Expected::solve).collect();
        let refs: Vec<&Expected> = expected.iter().collect();
        let lines: Vec<String> = expected.iter().map(|e| e.text.clone().expect("solved")).collect();
        assert_eq!(check_batch(&refs, &lines, 2).failed(), 0);
        // Same value, other bytes: passes on the digest.
        let spaced: Vec<String> = lines.iter().map(|l| l.replacen(':', ": ", 1)).collect();
        assert_eq!(check_batch(&refs, &spaced, 2).failed(), 0);
        let swapped = vec![lines[1].clone(), lines[0].clone()];
        assert_eq!(check_batch(&refs, &swapped, 2).wrong, 2);
        assert_eq!(check_batch(&refs, &lines[..1], 2).missing, 1);
        let extra = vec![lines[0].clone(), lines[1].clone(), lines[1].clone()];
        assert_eq!(check_batch(&refs, &extra, 2).orphan, 1);
    }
}
