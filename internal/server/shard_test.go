package server_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/journal"
	"repro/internal/object"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/wire"
)

// startSharded starts a server with the given shard count over a planted
// LocalTesting universe.
func startSharded(t *testing.T, players, shards int, cfg func(*server.Config)) (string, *server.Server) {
	t.Helper()
	u, err := object.NewPlanted(object.Planted{M: 64, Good: 4}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	tokens := make([]string, players)
	for i := range tokens {
		tokens[i] = "tok"
	}
	sc := server.Config{
		Universe: u, Tokens: tokens, Alpha: 1, Beta: u.Beta(),
		Shards: shards,
	}
	if cfg != nil {
		cfg(&sc)
	}
	srv, err := server.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, srv
}

// runScript drives a deterministic multi-round script through real clients:
// every player posts a scripted mix of positives and negatives each round
// and ends it with a combined batch+barrier frame.
func runScript(t *testing.T, addr string, players, rounds int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, players)
	for p := 0; p < players; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c, err := client.Dial(addr, p, "tok")
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for r := 0; r < rounds; r++ {
				var batch []client.BatchPost
				// Two positives per round (the second exceeding the vote
				// budget in later rounds) and one negative, spread across
				// objects — and therefore shards — by player and round.
				o1 := (p*7 + r*13) % c.M()
				o2 := (p*11 + r*17 + 5) % c.M()
				o3 := (p*3 + r*29 + 9) % c.M()
				batch = append(batch,
					client.BatchPost{Object: o1, Value: 1, Positive: true},
					client.BatchPost{Object: o2, Value: 1, Positive: true},
					client.BatchPost{Object: o3, Value: 0, Positive: false},
				)
				if _, err := c.PostBatch(batch, true); err != nil {
					errs <- fmt.Errorf("player %d round %d: %w", p, r, err)
					return
				}
			}
			errs <- c.Done()
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedDigestMatchesSingleShard pins the tentpole acceptance
// criterion at the server level: the same scripted traffic produces
// byte-identical digests on a 1-shard and a 4-shard server.
func TestShardedDigestMatchesSingleShard(t *testing.T) {
	const players, rounds = 6, 5
	addr1, srv1 := startSharded(t, players, 1, nil)
	runScript(t, addr1, players, rounds)
	addr4, srv4 := startSharded(t, players, 4, nil)
	runScript(t, addr4, players, rounds)
	d1, d4 := srv1.Digest(), srv4.Digest()
	if len(d1) == 0 {
		t.Fatal("empty digest")
	}
	if !bytes.Equal(d1, d4) {
		t.Fatalf("digest mismatch between 1-shard and 4-shard runs:\n1:\n%s\n4:\n%s", d1, d4)
	}
}

// TestShardedVoteCapAcrossShards checks the global admission pass: with the
// default budget f=1, a player posting positives on objects in different
// shards gets exactly one vote — the first in its own posting order — never
// one per shard.
func TestShardedVoteCapAcrossShards(t *testing.T) {
	addr, srv := startSharded(t, 1, 4, nil)
	c, err := client.Dial(addr, 0, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Find two objects the shard map puts on different lanes.
	a, b := 0, -1
	for o := 1; o < c.M(); o++ {
		if wire.Shard(o, 4) != wire.Shard(a, 4) {
			b = o
			break
		}
	}
	if b < 0 {
		t.Fatal("no cross-shard object pair found")
	}
	if _, err := c.PostBatch([]client.BatchPost{
		{Object: a, Value: 1, Positive: true},
		{Object: b, Value: 1, Positive: true},
	}, true); err != nil {
		t.Fatal(err)
	}
	votes := c.Votes(0)
	if len(votes) != 1 {
		t.Fatalf("got %d votes across shards, want exactly 1 (budget f=1): %+v", len(votes), votes)
	}
	if votes[0].Object != a {
		t.Fatalf("vote landed on object %d, want the first-posted %d", votes[0].Object, a)
	}
	if n := srv.Round(); n != 1 {
		t.Fatalf("round = %d, want 1", n)
	}
}

// TestShardedScatterGatherReads compares every read path between a 1-shard
// and a 4-shard server after identical traffic, observed through an extra
// player that participates in barriers but never posts.
func TestShardedScatterGatherReads(t *testing.T) {
	const players, rounds = 4, 4
	addrA, _ := startSharded(t, players+1, 1, nil)
	addrB, _ := startSharded(t, players+1, 4, nil)
	var ca, cb *client.Client
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); runScript(t, addrA, players, rounds) }()
	go func() { defer wg.Done(); runScript(t, addrB, players, rounds) }()
	// The extra player must participate in barriers or rounds cannot
	// commit; give it a no-post barrier loop.
	var err error
	ca, err = client.Dial(addrA, players, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	cb, err = client.Dial(addrB, players, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()
	for r := 0; r < rounds; r++ {
		if _, err := ca.Barrier(); err != nil {
			t.Fatal(err)
		}
		if _, err := cb.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	for p := 0; p < players; p++ {
		va, vb := ca.Votes(p), cb.Votes(p)
		if len(va) != len(vb) {
			t.Fatalf("player %d: %d votes on 1-shard vs %d on 4-shard", p, len(va), len(vb))
		}
	}
	oa, ob := ca.VotedObjects(), cb.VotedObjects()
	if fmt.Sprint(oa) != fmt.Sprint(ob) {
		t.Fatalf("voted objects diverge: %v vs %v", oa, ob)
	}
	for _, o := range oa {
		if ca.VoteCount(o) != cb.VoteCount(o) {
			t.Fatalf("object %d: vote count %d vs %d", o, ca.VoteCount(o), cb.VoteCount(o))
		}
		if ca.NegativeCount(o) != cb.NegativeCount(o) {
			t.Fatalf("object %d: neg count %d vs %d", o, ca.NegativeCount(o), cb.NegativeCount(o))
		}
	}
	wa := ca.CountVotesInWindow(0, rounds)
	wb := cb.CountVotesInWindow(0, rounds)
	if fmt.Sprint(wa) != fmt.Sprint(wb) {
		t.Fatalf("window counts diverge:\n1-shard: %v\n4-shard: %v", wa, wb)
	}
}

// TestShardedPersistRecovery restarts a durable sharded server and checks
// the merged digest survives byte-for-byte, including across a snapshot
// rotation.
func TestShardedPersistRecovery(t *testing.T) {
	dir := t.TempDir()
	u, err := object.NewPlanted(object.Planted{M: 64, Good: 4}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	const players, rounds = 4, 5
	tokens := make([]string, players)
	for i := range tokens {
		tokens[i] = "tok"
	}
	st, err := journal.OpenStore(dir, journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Universe: u, Tokens: tokens, Alpha: 1, Beta: u.Beta(),
		Shards: 4, Persist: st, SnapshotEvery: 2,
		SessionGrace: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("")
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, addr, players, rounds)
	want := srv.Digest()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := journal.OpenStore(dir, journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	srv2, err := server.New(server.Config{
		Universe: u, Tokens: tokens, Alpha: 1, Beta: u.Beta(),
		Shards: 4, Persist: st2, SnapshotEvery: 2,
		SessionGrace: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got := srv2.Digest(); !bytes.Equal(got, want) {
		t.Fatalf("digest changed across restart:\nbefore:\n%s\nafter:\n%s", want, got)
	}
	if srv2.Round() != rounds {
		t.Fatalf("recovered round %d, want %d", srv2.Round(), rounds)
	}
}

// TestKillRestartShard bounces one shard mid-run: posts and reads for its
// objects block while it is down, resume after restart, and the final
// digest matches an unfaulted 1-shard run of the same script.
func TestKillRestartShard(t *testing.T) {
	const players, rounds = 4, 6
	dir := t.TempDir()
	st, err := journal.OpenStore(dir, journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	addr, srv := startSharded(t, players, 4, func(sc *server.Config) {
		sc.Persist = st
		sc.SessionGrace = time.Minute
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		// Bounce shard 1 a few times while the script runs.
		for i := 0; i < 3; i++ {
			time.Sleep(20 * time.Millisecond)
			if err := srv.KillShard(1); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(10 * time.Millisecond)
			if err := srv.RestartShard(1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	runScript(t, addr, players, rounds)
	<-done

	addr1, srv1 := startSharded(t, players, 1, nil)
	runScript(t, addr1, players, rounds)
	if got, want := srv.Digest(), srv1.Digest(); !bytes.Equal(got, want) {
		t.Fatalf("digest after shard bounces diverged from unfaulted 1-shard run:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if srv.Round() != rounds {
		t.Fatalf("round %d, want %d", srv.Round(), rounds)
	}
}

// TestSealRaceShardBounce is the race-detector stress for the parallel
// commit: eight lanes sealing concurrently (goroutine-per-lane feed +
// journal marker + EndRound) while two shards are killed and restarted in
// a tight loop and a reader hammers window queries. Run under -race this
// covers every cross-goroutine edge of the seal path; the digest must
// still match an unfaulted single-shard run of the same script.
func TestSealRaceShardBounce(t *testing.T) {
	const players, rounds = 6, 8
	dir := t.TempDir()
	st, err := journal.OpenStore(dir, journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// One extra token for the reader below; Expected stays at the script's
	// player count so rounds never wait on it.
	addr, srv := startSharded(t, players+1, 8, func(sc *server.Config) {
		sc.Persist = st
		sc.SessionGrace = time.Minute
		sc.Expected = players
	})

	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	go func() { // bounce two different lanes out of phase with each other
		defer aux.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := 1 + 2*(i%2) // shards 1 and 3
			if err := srv.KillShard(k); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(5 * time.Millisecond)
			if err := srv.RestartShard(k); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	go func() { // concurrent committed-round reads race the seal
		defer aux.Done()
		c, err := client.Dial(addr, players, "tok")
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		// Done immediately: reads stay legal for a done player, and the
		// reader must never hold up the script's round barrier.
		if err := c.Done(); err != nil {
			t.Error(err)
			return
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.CountVotesInWindow(i%c.M(), 1+i%4)
		}
	}()

	runScript(t, addr, players, rounds)
	close(stop)
	aux.Wait()

	addr1, srv1 := startSharded(t, players, 1, nil)
	runScript(t, addr1, players, rounds)
	if got, want := srv.Digest(), srv1.Digest(); !bytes.Equal(got, want) {
		t.Fatalf("digest after seal-race bounces diverged from unfaulted 1-shard run:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if srv.Round() != rounds {
		t.Fatalf("round %d, want %d", srv.Round(), rounds)
	}
}

// TestShardedRejectsBestValue pins the constructor contract: sharding
// requires the FirstPositive mode of a LocalTesting universe.
func TestShardedRejectsBestValue(t *testing.T) {
	values := make([]float64, 16)
	for i := range values {
		values[i] = float64(i) / 16
	}
	u, err := object.NewUniverse(object.Config{Values: values, Beta: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	_, err = server.New(server.Config{
		Universe: u, Tokens: []string{"a"}, Shards: 4,
	})
	if err == nil {
		t.Fatal("Shards > 1 accepted on a BestValue universe")
	}
}
