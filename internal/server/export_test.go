package server

import "time"

// StallGroup stalls a replica group as a stopped process would, for d: it
// holds the leader's locks first, so its senders and commits stop and the
// appends in flight are answered, then, after one heartbeat interval, every
// follower's. Each node's lock is taken before its replication log's, the
// order the node itself takes them in. Then it releases the followers and
// the leader.
func StallGroup(leader *ReplicaNode, followers []*ReplicaNode, d time.Duration) {
	hold := func(n *ReplicaNode) func() {
		n.mu.Lock()
		n.log.mu.Lock()
		return func() {
			n.log.mu.Unlock()
			n.mu.Unlock()
		}
	}
	releaseLeader := hold(leader)
	time.Sleep(leader.cfg.HeartbeatEvery)
	var release []func()
	for _, f := range followers {
		release = append(release, hold(f))
	}
	time.Sleep(d)
	for _, r := range release {
		r()
	}
	releaseLeader()
}

// FailoverGrace is the least session grace n arms when it is promoted.
func (n *ReplicaNode) FailoverGrace() time.Duration { return n.cfg.failoverGrace() }

// HasSession reports whether player p is bound to a live session.
func (s *Server) HasSession(p int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byPlayer[p] != nil
}
