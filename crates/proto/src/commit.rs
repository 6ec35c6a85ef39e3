//! Tree-structured two-phase-commit datagrams (§3.2.3).
//!
//! "TABS uses a tree-structured variant of the 2-phase commit protocol, in
//! which each node serves as coordinator for the nodes that are its
//! children." The spanning tree is built by the Communication Managers: "a
//! node A is a parent of another node B if and only if A were the first
//! node to invoke an operation on behalf of the transaction on B."
//!
//! Datagrams may be lost; Transaction Managers retransmit until
//! acknowledged, and the messages are idempotent.

use tabs_codec::{Decode, DecodeError, Encode, Reader, Writer};
use tabs_kernel::{NodeId, Tid};

/// One two-phase-commit message between Transaction Managers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitMsg {
    /// Phase 1, parent → child: prepare the subtree rooted at the child.
    Prepare {
        /// Top-level transaction being committed.
        tid: Tid,
        /// The top-level tid plus every committed-subtransaction descendant
        /// whose work belongs to this commit (remote nodes may hold locks
        /// and log records under those tids).
        merged: Vec<Tid>,
    },
    /// Child → parent: subtree prepared and ready to commit.
    VoteYes {
        /// Transaction.
        tid: Tid,
        /// Voting node.
        from: NodeId,
    },
    /// Child → parent: subtree performed no updates; it needs no phase 2
    /// (the read-only optimization that makes read-only distributed commit
    /// cheaper, Table 5-3).
    VoteReadOnly {
        /// Transaction.
        tid: Tid,
        /// Voting node.
        from: NodeId,
    },
    /// Child → parent: subtree cannot commit; the transaction must abort.
    VoteNo {
        /// Transaction.
        tid: Tid,
        /// Voting node.
        from: NodeId,
    },
    /// Phase 2, parent → child: the transaction committed.
    Commit {
        /// Transaction.
        tid: Tid,
    },
    /// Child → parent: commit applied in the subtree.
    CommitAck {
        /// Transaction.
        tid: Tid,
        /// Acknowledging node.
        from: NodeId,
    },
    /// Parent → child (any phase): the transaction aborted.
    Abort {
        /// Transaction.
        tid: Tid,
    },
    /// Child → parent: abort applied in the subtree.
    AbortAck {
        /// Transaction.
        tid: Tid,
        /// Acknowledging node.
        from: NodeId,
    },
    /// Recovering participant → coordinator: what happened to `tid`?
    /// (Resolves the prepared/in-doubt state after a crash.)
    Inquire {
        /// In-doubt transaction.
        tid: Tid,
        /// Inquiring node, to which the outcome should be sent.
        from: NodeId,
    },
    /// Cooperative termination, in-doubt participant → any peer: does
    /// anyone *know* the outcome of `tid`? Unlike [`CommitMsg::Inquire`],
    /// a peer that does not know stays silent — presumed abort is only
    /// the coordinator's prerogative, because only the coordinator can
    /// prove the commit record was never logged.
    OutcomeQuery {
        /// In-doubt transaction.
        tid: Tid,
        /// Querying node, to which any answer should be sent.
        from: NodeId,
    },
    /// Answer to an [`CommitMsg::OutcomeQuery`], sent only from durable
    /// positive knowledge (the responder logged the decision itself).
    OutcomeAnswer {
        /// The transaction asked about.
        tid: Tid,
        /// Answering node.
        from: NodeId,
        /// The durably known outcome.
        committed: bool,
    },
}

impl CommitMsg {
    /// The transaction the message concerns.
    pub fn tid(&self) -> Tid {
        match self {
            CommitMsg::Prepare { tid, .. }
            | CommitMsg::VoteYes { tid, .. }
            | CommitMsg::VoteReadOnly { tid, .. }
            | CommitMsg::VoteNo { tid, .. }
            | CommitMsg::Commit { tid }
            | CommitMsg::CommitAck { tid, .. }
            | CommitMsg::Abort { tid }
            | CommitMsg::AbortAck { tid, .. }
            | CommitMsg::Inquire { tid, .. }
            | CommitMsg::OutcomeQuery { tid, .. }
            | CommitMsg::OutcomeAnswer { tid, .. } => *tid,
        }
    }
}

impl Encode for CommitMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            CommitMsg::Prepare { tid, merged } => {
                w.put_u8(0);
                tid.encode(w);
                tabs_codec::encode_seq(merged, w);
            }
            CommitMsg::VoteYes { tid, from } => {
                w.put_u8(1);
                tid.encode(w);
                from.encode(w);
            }
            CommitMsg::VoteReadOnly { tid, from } => {
                w.put_u8(2);
                tid.encode(w);
                from.encode(w);
            }
            CommitMsg::VoteNo { tid, from } => {
                w.put_u8(3);
                tid.encode(w);
                from.encode(w);
            }
            CommitMsg::Commit { tid } => {
                w.put_u8(4);
                tid.encode(w);
            }
            CommitMsg::CommitAck { tid, from } => {
                w.put_u8(5);
                tid.encode(w);
                from.encode(w);
            }
            CommitMsg::Abort { tid } => {
                w.put_u8(6);
                tid.encode(w);
            }
            CommitMsg::AbortAck { tid, from } => {
                w.put_u8(7);
                tid.encode(w);
                from.encode(w);
            }
            CommitMsg::Inquire { tid, from } => {
                w.put_u8(8);
                tid.encode(w);
                from.encode(w);
            }
            CommitMsg::OutcomeQuery { tid, from } => {
                w.put_u8(9);
                tid.encode(w);
                from.encode(w);
            }
            CommitMsg::OutcomeAnswer { tid, from, committed } => {
                w.put_u8(10);
                tid.encode(w);
                from.encode(w);
                committed.encode(w);
            }
        }
    }
}

impl Decode for CommitMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let tag = r.get_u8()?;
        let tid = Tid::decode(r)?;
        Ok(match tag {
            0 => CommitMsg::Prepare { tid, merged: tabs_codec::decode_seq(r)? },
            1 => CommitMsg::VoteYes { tid, from: NodeId::decode(r)? },
            2 => CommitMsg::VoteReadOnly { tid, from: NodeId::decode(r)? },
            3 => CommitMsg::VoteNo { tid, from: NodeId::decode(r)? },
            4 => CommitMsg::Commit { tid },
            5 => CommitMsg::CommitAck { tid, from: NodeId::decode(r)? },
            6 => CommitMsg::Abort { tid },
            7 => CommitMsg::AbortAck { tid, from: NodeId::decode(r)? },
            8 => CommitMsg::Inquire { tid, from: NodeId::decode(r)? },
            9 => CommitMsg::OutcomeQuery { tid, from: NodeId::decode(r)? },
            10 => CommitMsg::OutcomeAnswer {
                tid,
                from: NodeId::decode(r)?,
                committed: bool::decode(r)?,
            },
            _ => return Err(DecodeError::Invalid("CommitMsg tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid() -> Tid {
        Tid { node: NodeId(3), incarnation: 2, seq: 44 }
    }

    #[test]
    fn all_variants_roundtrip() {
        let msgs = vec![
            CommitMsg::Prepare { tid: tid(), merged: vec![tid()] },
            CommitMsg::VoteYes { tid: tid(), from: NodeId(2) },
            CommitMsg::VoteReadOnly { tid: tid(), from: NodeId(2) },
            CommitMsg::VoteNo { tid: tid(), from: NodeId(2) },
            CommitMsg::Commit { tid: tid() },
            CommitMsg::CommitAck { tid: tid(), from: NodeId(2) },
            CommitMsg::Abort { tid: tid() },
            CommitMsg::AbortAck { tid: tid(), from: NodeId(2) },
            CommitMsg::Inquire { tid: tid(), from: NodeId(2) },
            CommitMsg::OutcomeQuery { tid: tid(), from: NodeId(2) },
            CommitMsg::OutcomeAnswer { tid: tid(), from: NodeId(2), committed: true },
        ];
        for m in msgs {
            let buf = m.encode_to_vec();
            assert_eq!(CommitMsg::decode_all(&buf).unwrap(), m);
            assert_eq!(m.tid(), tid());
        }
    }

    #[test]
    fn bad_tag_rejected() {
        let mut w = tabs_codec::Writer::new();
        w.put_u8(99);
        tid().encode(&mut w);
        assert!(CommitMsg::decode_all(&w.into_vec()).is_err());
    }

    /// Tag 11 is retired: a peer that still sends it must get the
    /// unknown-tag error, not a prepare.
    #[test]
    fn retired_tag_11_is_an_unknown_tag() {
        let mut w = tabs_codec::Writer::new();
        w.put_u8(11);
        tid().encode(&mut w);
        tabs_codec::encode_seq(&[tid()], &mut w);
        assert_eq!(
            CommitMsg::decode_all(&w.into_vec()),
            Err(DecodeError::Invalid("CommitMsg tag"))
        );
    }
}
