//! Output checks made apart from the predictor.
//!
//! Nothing here shares code with the predictor's SMT encoding or with
//! `smt::order`: serializability is decided by enumerating serial orders,
//! the prefix and boundary rules are re-derived from the observed history,
//! and isolation conformance uses the history crate's own commit-order
//! checkers.

use isopredict::{Prediction, PredictionOutcome, Strategy};
use isopredict_history::{EventKind, History, IsolationLevel, SessionId, TxnId};
use isopredict_workloads::Benchmark;

use crate::experiment::{Experiment, Failure, Observed, Verdict};
use crate::matrix::{Cell, Workload};

/// Checks one experiment's outputs and returns its verdict.
///
/// A wrong output is an error, with one exception: the snapshot-isolation
/// encoder is documented as slightly under-constrained (a prediction may
/// overshoot SI, with validation as the backstop), so an SI prediction that
/// fails the SI checker counts as a failed experiment
/// ([`Failure::NonConforming`]) rather than a wrong result.
pub fn check_experiment(
    workload: &Workload,
    cell: &Cell,
    observed: &Observed,
    experiment: &Experiment,
) -> Result<Verdict, String> {
    let mut verdict = experiment.verdict;
    if let Some(PredictionOutcome::Prediction(prediction)) = &experiment.outcome {
        let benchmark = workload.observations[cell.observation].benchmark;
        if benchmark == Benchmark::Voter && cell.isolation == IsolationLevel::Causal {
            return Err("Voter under causal yielded a prediction".into());
        }
        check_prediction_shape(&observed.history, prediction)?;
        if brute_force_serializable(&prediction.predicted)? {
            return Err("predicted history is serializable".into());
        }
        if !cell.isolation.is_conformant(&prediction.predicted) {
            if cell.isolation != IsolationLevel::Snapshot {
                return Err(format!("predicted history is not {}", cell.isolation));
            }
            verdict = Verdict::Failed(Failure::NonConforming);
        }
    }
    if let Some((history, assessment)) = &experiment.validation {
        let serializable = brute_force_serializable(history)?;
        if assessment.validated == serializable {
            return Err(format!(
                "validation says validated={} but the replay is {}serializable",
                assessment.validated,
                if serializable { "" } else { "un" }
            ));
        }
    }
    Ok(verdict)
}

/// Whether some serial order of the history's transactions that extends
/// session order explains every read, i.e. each read returns the value of
/// the last transaction before it in the order that writes its key (`t0`
/// writes every key first).
///
/// Transactions without events (cut off by a prediction boundary) take no
/// part. The search places one session head at a time and backtracks as soon
/// as a read would see another writer, so at most
/// `(Σ n_s)! / Π n_s!` orders are visited: 34,650 for 3 × 4 transactions.
pub fn brute_force_serializable(history: &History) -> Result<bool, String> {
    let mut sessions: Vec<Vec<TxnId>> = Vec::new();
    for session in history.sessions() {
        sessions.push(
            history
                .session_transactions(session)
                .iter()
                .copied()
                .filter(|&t| !history.txn(t).events.is_empty())
                .collect(),
        );
    }
    let in_sessions: usize = sessions.iter().map(Vec::len).sum();
    let with_events = history
        .committed_transactions()
        .filter(|t| !t.events.is_empty())
        .count();
    if in_sessions != with_events {
        return Err("a transaction with events belongs to no session".to_string());
    }
    let mut search = SerialSearch {
        history,
        sessions: &sessions,
        next: vec![0; sessions.len()],
        last_writer: vec![TxnId::INITIAL; history.num_keys()],
        remaining: in_sessions,
    };
    Ok(search.extend())
}

struct SerialSearch<'h> {
    history: &'h History,
    sessions: &'h [Vec<TxnId>],
    /// Per session, the index of its next unplaced transaction.
    next: Vec<usize>,
    /// Per key, the last placed transaction that writes it.
    last_writer: Vec<TxnId>,
    remaining: usize,
}

impl SerialSearch<'_> {
    fn extend(&mut self) -> bool {
        if self.remaining == 0 {
            return true;
        }
        for s in 0..self.sessions.len() {
            let Some(&txn) = self.sessions[s].get(self.next[s]) else {
                continue;
            };
            let events = &self.history.txn(txn).events;
            let reads_ok = events.iter().all(|e| match e.kind {
                EventKind::Read { from } => from == self.last_writer[e.key.index()],
                EventKind::Write => true,
            });
            if !reads_ok {
                continue;
            }
            let saved: Vec<(usize, TxnId)> = events
                .iter()
                .filter(|e| e.is_write())
                .map(|e| (e.key.index(), self.last_writer[e.key.index()]))
                .collect();
            for &(key, _) in &saved {
                self.last_writer[key] = txn;
            }
            self.next[s] += 1;
            self.remaining -= 1;
            if self.extend() {
                return true;
            }
            self.remaining += 1;
            self.next[s] -= 1;
            for &(key, previous) in saved.iter().rev() {
                self.last_writer[key] = previous;
            }
        }
        false
    }
}

/// Checks a prediction's shape against the observed history (paper §4.5,
/// Table 1): each predicted session is a prefix of its observed session cut
/// at the reported boundary, reads keep their observed writer except where
/// the strategy's boundary lets them change, and the predictor's own list of
/// changed reads is exactly the set of reads that changed.
fn check_prediction_shape(observed: &History, prediction: &Prediction) -> Result<(), String> {
    let predicted = &prediction.predicted;
    if predicted.len() != observed.len() || predicted.num_sessions() != observed.num_sessions() {
        return Err("predicted history has other transactions or sessions".to_string());
    }
    let mut changed: Vec<(SessionId, usize, TxnId, TxnId)> = Vec::new();
    for session in observed.sessions() {
        if observed.session_transactions(session) != predicted.session_transactions(session) {
            return Err(format!("session {session}: transactions differ"));
        }
        let Some(&boundary) = prediction.boundaries.get(&session) else {
            return Err(format!("session {session}: no boundary reported"));
        };
        let mut session_changes = Vec::new();
        for &txn in observed.session_transactions(session) {
            let kept: Vec<_> = observed
                .txn(txn)
                .events
                .iter()
                .filter(|e| boundary.is_none_or(|b| e.pos <= b))
                .collect();
            let got = &predicted.txn(txn).events;
            if kept.len() != got.len() {
                return Err(format!("{txn}: not the observed prefix"));
            }
            for (before, after) in kept.iter().zip(got) {
                if before.key != after.key || before.pos != after.pos {
                    return Err(format!("{txn}: event at {} moved", before.pos));
                }
                match (before.kind, after.kind) {
                    (EventKind::Write, EventKind::Write) => {}
                    (EventKind::Read { from: was }, EventKind::Read { from: now }) => {
                        if was != now {
                            session_changes.push((txn, after.pos));
                            changed.push((session, after.pos, was, now));
                        }
                    }
                    _ => return Err(format!("{txn}: event kind changed at {}", before.pos)),
                }
            }
        }
        check_boundary_rule(
            observed,
            prediction.strategy,
            session,
            boundary,
            &session_changes,
        )?;
    }
    let mut reported: Vec<(SessionId, usize, TxnId, TxnId)> = prediction
        .changed_reads
        .iter()
        .map(|c| (c.session, c.position, c.observed, c.predicted))
        .collect();
    reported.sort();
    changed.sort();
    if reported != changed {
        return Err("reported changed reads differ from the history's".to_string());
    }
    if changed.is_empty() {
        return Err("no read changed".to_string());
    }
    Ok(())
}

/// Where changed reads may sit: nowhere without a boundary; only at the
/// boundary read under the strict boundary; anywhere in the boundary
/// transaction, which must end at the boundary, under the relaxed one.
fn check_boundary_rule(
    observed: &History,
    strategy: Strategy,
    session: SessionId,
    boundary: Option<usize>,
    changes: &[(TxnId, usize)],
) -> Result<(), String> {
    let Some(boundary) = boundary else {
        return if changes.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "session {session}: read changed without a boundary"
            ))
        };
    };
    let owner = observed
        .session_transactions(session)
        .iter()
        .copied()
        .find(|&t| observed.txn(t).events.iter().any(|e| e.pos == boundary))
        .ok_or_else(|| format!("session {session}: boundary {boundary} is no event"))?;
    let events = &observed.txn(owner).events;
    match strategy {
        Strategy::ExactStrict | Strategy::ApproxStrict => {
            if !events.iter().any(|e| e.pos == boundary && e.is_read()) {
                return Err(format!("session {session}: strict boundary not at a read"));
            }
            if changes.iter().any(|&(_, pos)| pos != boundary) {
                return Err(format!(
                    "session {session}: read changed off the strict boundary"
                ));
            }
        }
        Strategy::ApproxRelaxed => {
            if events.iter().map(|e| e.pos).max() != Some(boundary) {
                return Err(format!(
                    "session {session}: relaxed boundary inside a transaction"
                ));
            }
            if changes.iter().any(|&(txn, _)| txn != owner) {
                return Err(format!(
                    "session {session}: read changed outside the boundary transaction"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use isopredict_history::HistoryBuilder;

    /// Figure 1 of the paper: two deposits, the second reads the first.
    fn deposits(second_reads_first: bool) -> History {
        let mut b = HistoryBuilder::new();
        let s1 = b.session("c1");
        let s2 = b.session("c2");
        let t1 = b.begin(s1);
        b.read(t1, "acct", TxnId::INITIAL);
        b.write(t1, "acct");
        b.commit(t1);
        let t2 = b.begin(s2);
        b.read(
            t2,
            "acct",
            if second_reads_first {
                t1
            } else {
                TxnId::INITIAL
            },
        );
        b.write(t2, "acct");
        b.commit(t2);
        b.finish()
    }

    #[test]
    fn brute_force_separates_serial_runs_from_lost_updates() {
        assert_eq!(brute_force_serializable(&deposits(true)), Ok(true));
        assert_eq!(brute_force_serializable(&deposits(false)), Ok(false));
    }

    #[test]
    fn brute_force_agrees_with_the_history_checker() {
        for history in [deposits(true), deposits(false)] {
            let expected = isopredict_history::serializability::check(&history).is_serializable();
            assert_eq!(brute_force_serializable(&history), Ok(expected));
        }
    }
}
