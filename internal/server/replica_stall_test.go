package server_test

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

// TestReplicaGroupStallKeepsLeader stalls the whole group mid-workload, as
// a stopped process would, for three times the base election timeout:
// longer than every member's staggered timeout. Election silence counts
// heartbeat ticks, and a stall counts as one, so no follower campaigns:
// every member stays in the bootstrap term, node 0 keeps leading, and the
// digest equals the fault-free run's.
func TestReplicaGroupStallKeepsLeader(t *testing.T) {
	u := replicaUniverse(t)
	tokens := []string{"t0", "t1", "t2"}
	scfg := server.Config{
		Universe: u, Tokens: tokens, Alpha: 1, Beta: u.Beta(),
		SessionGrace: 10 * time.Second,
	}
	const rounds = 8
	const timeout = 60 * time.Millisecond // startReplicaGroup's ElectionTimeout
	g := startReplicaGroup(t, 3, scfg, nil)

	// The round the stall began in, or -1 if it never did.
	stalledAt := make(chan int, 1)
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if srv := g.nodes[0].Server(); srv != nil && srv.Round() >= 2 {
				round := srv.Round()
				server.StallGroup(g.nodes[0], g.nodes[1:], 3*timeout)
				stalledAt <- round
				return
			}
			time.Sleep(time.Millisecond)
		}
		stalledAt <- -1
	}()
	runReplicaWorkload(t, g, tokens, rounds)
	if r := <-stalledAt; r < 0 || r >= rounds {
		t.Fatalf("the stall began in round %d, want one in [2, %d)", r, rounds)
	}
	for i, node := range g.nodes {
		if term := node.Term(); term != 1 {
			t.Fatalf("replica %d is in term %d after the stall, want the bootstrap term 1", i, term)
		}
	}
	if leading, _ := g.nodes[0].Leader(); !leading {
		t.Fatal("node 0 lost its leadership to the stall")
	}
	srv := g.nodes[0].Server()
	if got := srv.Round(); got != rounds {
		t.Fatalf("round after the stall = %d, want %d", got, rounds)
	}
	if want := singleDigest(t, scfg, tokens, rounds); string(srv.Digest()) != string(want) {
		t.Fatal("digest after the stall differs from the fault-free single-coordinator run")
	}
}

// TestReplicaPromotionGraceExpires: with no session grace configured, a
// failover still keeps every recovered session resumable for the promoted
// leader's failover bound, since a failover is not a client disconnect. A
// client that comes back resumes; a session nobody resumes expires once
// the bound has passed.
func TestReplicaPromotionGraceExpires(t *testing.T) {
	u := replicaUniverse(t)
	tokens := []string{"t0", "t1"}
	scfg := server.Config{Universe: u, Tokens: tokens, Alpha: 1, Beta: u.Beta()}
	g := startReplicaGroup(t, 3, scfg, nil)
	clients := make([]*client.Client, len(tokens))
	for p := range tokens {
		c, err := client.DialOptions(g.clientAddrs[0], p, tokens[p], client.Options{
			Fallbacks:   g.clientAddrs[1:],
			Retries:     40,
			BackoffBase: 2 * time.Millisecond,
			BackoffMax:  50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Probe(p); err != nil {
			t.Fatal(err)
		}
		clients[p] = c
	}

	g.nodes[0].Kill()
	g.nodes[0] = nil
	ldr := g.leader(t)
	promoted := time.Now()
	srv, bound := ldr.Server(), ldr.FailoverGrace()
	for p := range tokens {
		if !srv.HasSession(p) {
			t.Fatalf("player %d's session expired at promotion, want it resumable for %v", p, bound)
		}
	}
	// Player 0 resumes on the new leader; player 1 never comes back.
	if _, err := clients[0].Probe(2); err != nil {
		t.Fatalf("resume after the failover: %v", err)
	}
	for srv.HasSession(1) {
		if time.Since(promoted) > bound+5*time.Second {
			t.Fatalf("player 1's session outlived the failover bound %v", bound)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if waited := time.Since(promoted); waited < bound/2 {
		t.Fatalf("player 1's session expired %v after promotion, well before the failover bound %v", waited, bound)
	}
	if !srv.HasSession(0) {
		t.Fatal("the resumed session expired with the abandoned one")
	}
}
