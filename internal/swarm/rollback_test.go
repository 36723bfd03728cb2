package swarm_test

// Regression test for a round lost to a coordinator restart. A post batch is
// acknowledged once it is journaled, but its round is still open: a restart
// before the round commits discards it with the rest of the uncommitted
// tail. The swarm must re-send such posts. Its arrival travels in one
// exchange with the primary's post frames, and a reconnect before the
// arrival is answered re-sends that exchange from its first post frame, the
// acknowledged ones included.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/swarm"
	"repro/internal/wire"
)

// restartable is a persist-backed server that can be torn down with every
// connection in flight and reopened from its persist dir on the same
// address: the in-process stand-in for kill -9 and restart.
type restartable struct {
	cfg   server.Config
	dir   string
	addr  string
	srv   *server.Server
	store *journal.Store
}

// open starts a server generation recovered from the persist dir, on ln.
func (r *restartable) open(ln net.Listener) error {
	st, err := journal.OpenStore(r.dir, journal.SyncCommit)
	if err != nil {
		return err
	}
	cfg := r.cfg
	cfg.Persist = st
	srv, err := server.New(cfg)
	if err != nil {
		st.Close()
		return err
	}
	r.addr = srv.Serve(ln)
	r.srv, r.store = srv, st
	return nil
}

// close tears the current generation down.
func (r *restartable) close() {
	r.srv.Close()
	r.store.Close()
}

// restart closes the current generation and recovers a new one on the same
// address. The freed port can linger briefly, so the listen retries.
func (r *restartable) restart() error {
	r.close()
	var ln net.Listener
	var err error
	for i := 0; i < 400; i++ {
		if ln, err = net.Listen("tcp", r.addr); err == nil {
			return r.open(ln)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return err
}

// frameConn hands each frame to onFrame before writing it. A frame is one
// Write, so every Write decodes as one request; a non-nil error from
// onFrame fails the write without sending anything.
type frameConn struct {
	net.Conn
	onFrame func(req *wire.Request) error
}

func (c *frameConn) Write(p []byte) (int, error) {
	var req wire.Request
	if err := wire.NewStreamDecoder(bytes.NewReader(p)).DecodeRequest(&req); err == nil {
		if err := c.onFrame(&req); err != nil {
			return 0, err
		}
	}
	return c.Conn.Write(p)
}

// TestSwarmResendsRolledBackRound holds a group's first arrival of round 1
// or later until the server has been closed and reopened from its persist
// dir, then fails that write. The restart rolls the open round back: every
// group's posts of that round, acknowledged or not, are gone, and the
// server recovers each session's sequence number from the journaled probes
// below them. The run must still commit the fault-free board, with the
// fault-free per-player probes and rounds and probe ledger. Frames of a few
// posts each, one in flight at a time, make every post frame of the held
// group acknowledged, and so journaled, before its arrival is written:
// re-sending only the unacknowledged tail would lose them.
func TestSwarmResendsRolledBackRound(t *testing.T) {
	u := stressUniverse(t)
	const n, groups = 200, 2
	run := func(addr string, onFrame func(*wire.Request) error) *swarm.Result {
		t.Helper()
		opt := stressClientOpts()
		opt.Dialer = func(addr string) (net.Conn, error) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return &frameConn{Conn: nc, onFrame: onFrame}, nil
		}
		res, err := swarm.Run(context.Background(), swarm.Config{
			Addr: addr, To: n, Token: stressToken, Seed: 42, MaxRounds: 256,
			Groups: groups, Chunk: 4, Window: 1, Client: opt,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pass := func(*wire.Request) error { return nil }

	cleanSrv, cleanAddr := startServer(t, u, n)
	clean := run(cleanAddr, pass)
	cleanProbes, _, _, _ := cleanSrv.Stats()

	r := &restartable{
		cfg: server.Config{
			Universe: u, Tokens: make([]string, n), Alpha: 1, Beta: u.Beta(),
			SessionGrace: 20 * time.Second, BarrierDeadline: 60 * time.Second,
			SwarmToken: stressToken,
		},
		dir: t.TempDir(),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.open(ln); err != nil {
		t.Fatal(err)
	}
	defer r.close()

	var (
		mu         sync.Mutex
		held       bool
		restartErr error
	)
	got := run(r.addr, func(req *wire.Request) error {
		if req.Type != wire.ReqEpoch || req.Epoch < 2 {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if held {
			return nil
		}
		held = true
		restartErr = r.restart()
		return errors.New("arrival held across a server restart")
	})
	// Run has returned, so every group goroutine, and with it every
	// onFrame call and the restart, is done.
	if restartErr != nil {
		t.Fatal(restartErr)
	}
	if !held {
		t.Fatal("no arrival of round 1 or later was held")
	}

	srv := r.srv
	probes, _, _, _ := srv.Stats()
	for i := range got.Players {
		g, c := got.Players[i], clean.Players[i]
		if g.Probes != c.Probes || g.Rounds != c.Rounds {
			t.Errorf("player %d: %d probes, halted in round %d across the restart; clean %d probes, round %d",
				i, g.Probes, g.Rounds, c.Probes, c.Rounds)
		}
		if probes[i] != cleanProbes[i] {
			t.Errorf("player %d: server charged %d probes, %d clean", i, probes[i], cleanProbes[i])
		}
	}
	if digest, want := srv.Digest(), cleanSrv.Digest(); !bytes.Equal(digest, want) {
		t.Fatalf("billboard diverged across the restart:\nclean:\n%s\nrestarted:\n%s", want, digest)
	}
}
