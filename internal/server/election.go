package server

// Leader election for the replicated coordinator (see replica.go for the
// protocol overview). The loop is deliberately small: a follower that has
// heard no leader for its staggered timeout, counted in heartbeat ticks,
// bumps its term and asks every peer for a vote, carrying its stream
// position; a majority of grants
// (itself included) makes it leader, anything else drops it back to
// follower. Because a vote is granted only to a candidate whose position is
// at least the voter's, and because both vote and ack quorums are
// majorities, the winner provably holds every byte any committed round
// waited on. A candidate denied on log length fetches the missing suffix
// from the most advanced denier before its next attempt, so the next
// election has a candidate every voter can grant. The fetched segments go
// through the same apply as a leader's appends (applySegmentLocked).

import (
	"time"

	"repro/internal/wire"
)

// electionTicks is this node's staggered election timeout in heartbeat
// ticks, rounded up.
func (n *ReplicaNode) electionTicks() int {
	hb := n.cfg.HeartbeatEvery
	return int((n.cfg.staggered(n.cfg.ID) + hb - 1) / hb)
}

// electionLoop counts the ticks of leader silence and campaigns when they
// reach the timeout. It counts ticks, not wall time: time.Ticker drops the
// ticks a stalled receiver missed, so a stall of the whole process counts
// as one tick instead of a leader silent for the stall's length.
func (n *ReplicaNode) electionLoop() {
	defer n.wg.Done()
	tick := time.NewTicker(n.cfg.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-tick.C:
		}
		n.mu.Lock()
		if n.closed || n.role == roleLeader {
			n.mu.Unlock()
			continue
		}
		if n.silence++; n.silence < n.electionTicks() {
			n.mu.Unlock()
			continue
		}
		n.term++
		term := n.term
		n.votedFor = n.cfg.ID
		n.role = roleCandidate
		n.silence = 0 // restart the count for this attempt
		offset := n.log.position()
		n.mu.Unlock()
		n.mElections.Inc()
		n.logf("replica %d: leader silent; campaigning in term %d", n.cfg.ID, term)
		n.campaign(term, offset)
	}
}

// voteResult is one peer's answer (or its absence).
type voteResult struct {
	peer int
	ack  *wire.RepAck
}

// campaign runs one election attempt in term: parallel vote requests, then
// either leadership (majority granted) or a drop back to follower with a
// best-effort catch-up from the most advanced denier.
func (n *ReplicaNode) campaign(term uint64, offset int64) {
	results := make(chan voteResult, len(n.cfg.Peers))
	asked := 0
	for p := range n.cfg.Peers {
		if p == n.cfg.ID {
			continue
		}
		asked++
		go func(peer int) {
			ack := n.requestVote(peer, term, offset)
			results <- voteResult{peer: peer, ack: ack}
		}(p)
	}
	granted := 1 // self
	maxTerm := term
	var denials []voteResult
	for i := 0; i < asked; i++ {
		var r voteResult
		select {
		case r = <-results:
		case <-n.stop:
			return
		case <-time.After(n.cfg.ElectionTimeout):
			i = asked // unreachable peers count as denials with no hint
		}
		if r.ack == nil {
			continue
		}
		if r.ack.Term > maxTerm {
			maxTerm = r.ack.Term
		}
		if r.ack.OK {
			granted++
		} else {
			denials = append(denials, r)
		}
	}
	majority := len(n.cfg.Peers)/2 + 1
	n.mu.Lock()
	if n.closed || n.role != roleCandidate || n.term != term {
		// A heartbeat from a real leader (or a newer candidate) superseded
		// this attempt while the votes were in flight.
		n.mu.Unlock()
		return
	}
	if granted >= majority {
		if err := n.becomeLeaderLocked(term, false); err != nil {
			n.logf("replica %d: promotion in term %d failed: %v", n.cfg.ID, term, err)
			n.role = roleFollower
			n.silence = 0
		}
		n.mu.Unlock()
		return
	}
	n.role = roleFollower
	if maxTerm > n.term {
		n.term = maxTerm
		n.votedFor = -1
	}
	n.silence = 0
	n.mu.Unlock()
	n.logf("replica %d: term %d election lost (%d/%d grants)", n.cfg.ID, term, granted, majority)
	n.catchUp(denials)
}

// requestVote performs one vote RPC; nil on any transport failure.
func (n *ReplicaNode) requestVote(peer int, term uint64, offset int64) *wire.RepAck {
	conn, err := n.cfg.Dial(n.cfg.Peers[peer])
	if err != nil {
		return nil
	}
	defer conn.Close()
	ack, err := newRepLink(conn).roundTrip(&wire.RepMsg{
		Type: wire.RepVoteReq, Term: term, From: n.cfg.ID, Offset: offset,
	})
	if err != nil {
		return nil
	}
	return ack
}

// catchUp fetches, from the most advanced denier, the stream suffix this
// node is missing, so its next candidacy can dominate the group. Best
// effort: any failure just leaves the next election to whoever is ahead.
func (n *ReplicaNode) catchUp(denials []voteResult) {
	var best *voteResult
	for i := range denials {
		if best == nil || denials[i].ack.Offset > best.ack.Offset {
			best = &denials[i]
		}
	}
	if best == nil || best.ack.Offset <= n.log.position() {
		return
	}
	conn, err := n.cfg.Dial(n.cfg.Peers[best.peer])
	if err != nil {
		return
	}
	defer conn.Close()
	link := newRepLink(conn)
	for {
		v := n.log.view()
		ack, err := link.roundTrip(&wire.RepMsg{
			Type: wire.RepFetch, Term: n.Term(), From: n.cfg.ID, Offset: v.pos,
		})
		if err != nil || !ack.OK {
			return
		}
		n.mu.Lock()
		// Stop if a leader appeared: the stream moved under us, or we no
		// longer follow.
		cur := n.log.view()
		applied := !n.closed && n.role == roleFollower && cur.pos == v.pos && cur.epoch == v.epoch &&
			n.applySegmentLocked(ack.Reset, ack.Offset, ack.Snapshot, ack.Data).OK
		n.mu.Unlock()
		if !applied || (len(ack.Data) == 0 && !ack.Reset) {
			return // refused, or fully caught up
		}
	}
}
