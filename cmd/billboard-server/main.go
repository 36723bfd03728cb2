// Command billboard-server runs a standalone billboard service with a
// planted object universe, printing the address and per-player tokens so
// that distributed players (see examples/distributed) can connect from
// other processes or machines.
//
//	billboard-server -addr 127.0.0.1:7777 -n 32 -m 256 -good 2
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"repro/internal/journal"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "billboard-server:", err)
		// Replica misconfiguration is an operator error with a stable code;
		// exit 2 so wrappers can tell it from runtime failures.
		var ce *server.ReplicaConfigError
		if errors.As(err, &ce) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("billboard-server", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:0", "listen address")
		n           = fs.Int("n", 16, "number of players")
		m           = fs.Int("m", 128, "number of objects")
		good        = fs.Int("good", 1, "number of good objects")
		alpha       = fs.Float64("alpha", 0.75, "advertised assumed honest fraction")
		seed        = fs.Uint64("seed", 1, "universe/token seed")
		persistDir  = fs.String("persist-dir", "", "run durably from this directory: full service state (board, round, probe ledger, sessions) is journaled and recovered on restart")
		snapEvery   = fs.Int("snapshot-every", 64, "with -persist-dir: rotate the journal behind a full snapshot every k committed rounds (0: never)")
		fsync       = fs.String("fsync", "commit", "with -persist-dir: journal fsync policy — commit (at round boundaries), none, or always")
		grace       = fs.Duration("session-grace", 0, "how long a disconnected player's session stays resumable (0: a disconnect deregisters the player immediately)")
		deadline    = fs.Duration("barrier-deadline", 0, "how long a round barrier waits for stragglers before force-Done'ing them (0: wait forever)")
		metricsAddr = fs.String("metrics-addr", "", "serve Prometheus text metrics on this address at /metrics (empty: disabled)")
		once        = fs.Bool("print-and-exit", false, "print config and exit (for tests)")

		replicas     = fs.Int("replicas", 0, "run the coordinator as a replica group of this size (odd, >= 3); every round is quorum-committed before clients observe it, and a follower takes over if the leader dies. 0 or 1: classic single coordinator")
		replicaID    = fs.Int("replica-id", 0, "with -replicas: this process's index into the peer lists")
		replicaPeers = fs.String("replica-peers", "", "with -replicas: comma-separated replication addresses, one per member, in id order")
		replicaCli   = fs.String("replica-client-addrs", "", "with -replicas: comma-separated client-facing addresses, one per member, in id order")
		replicaQuo   = fs.Int("replica-quorum", 0, "with -replicas: durable-commit quorum, self included (0: majority)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	src := rng.New(*seed)
	u, err := object.NewPlanted(object.Planted{M: *m, Good: *good}, src)
	if err != nil {
		return err
	}
	tokens := make([]string, *n)
	for i := range tokens {
		tokens[i] = fmt.Sprintf("tok-%d-%016x", i, src.Uint64())
	}
	// Operational events (session resume, lease expiry, force-done) go to
	// out; the mutex keeps concurrent connection handlers from interleaving.
	var logMu sync.Mutex
	logf := func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(out, format+"\n", args...)
	}
	cfg := server.Config{
		Universe: u, Tokens: tokens, Alpha: *alpha, Beta: u.Beta(),
		SessionGrace: *grace, BarrierDeadline: *deadline,
		Logf: logf,
	}
	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
	}
	if *replicas <= 1 {
		if *replicaPeers != "" || *replicaCli != "" || *replicaID != 0 || *replicaQuo != 0 {
			return server.NewReplicaConfigError("missing-replicas",
				"-replica-id/-replica-peers/-replica-client-addrs/-replica-quorum require -replicas > 1")
		}
	} else {
		// Replicated coordinator: the node owns persistence (one journal set
		// per member under -persist-dir).
		if *persistDir == "" {
			return server.NewReplicaConfigError("missing-dir",
				"-replicas requires -persist-dir (each member journals its replicated state there)")
		}
		peers := splitAddrs(*replicaPeers)
		if len(peers) == 0 {
			return server.NewReplicaConfigError("empty-group",
				"-replica-peers must list one replication address per member")
		}
		if len(peers) != *replicas {
			return server.NewReplicaConfigError("group-size-mismatch",
				"-replica-peers lists %d address(es) for -replicas %d", len(peers), *replicas)
		}
		cfg.SnapshotEvery = *snapEvery
		rc := server.ReplicaConfig{
			ID:          *replicaID,
			Peers:       peers,
			ClientAddrs: splitAddrs(*replicaCli),
			Quorum:      *replicaQuo,
			Dir:         *persistDir,
			Logf:        logf,
		}
		return runReplicaNode(rc, cfg, reg, *metricsAddr, tokens, out, *once)
	}
	if *persistDir != "" {
		policy, err := journal.ParseSyncPolicy(*fsync)
		if err != nil {
			return err
		}
		st, err := journal.OpenStore(*persistDir, policy)
		if err != nil {
			return err
		}
		defer st.Close()
		cfg.Persist = st
		cfg.SnapshotEvery = *snapEvery
		fmt.Fprintf(out, "durable mode: persist dir %s, snapshot every %d round(s), fsync %s\n",
			*persistDir, *snapEvery, policy)
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	if *persistDir != "" && srv.Round() > 0 {
		fmt.Fprintf(out, "recovered to round %d from %s\n", srv.Round(), *persistDir)
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		return err
	}
	defer srv.Close()

	fmt.Fprintf(out, "billboard server listening on %s\n", bound)
	if reg != nil {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return err
		}
		defer mln.Close()
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(reg))
		msrv := &http.Server{Handler: mux}
		go msrv.Serve(mln)
		defer msrv.Close()
		fmt.Fprintf(out, "metrics on http://%s/metrics\n", mln.Addr())
	}
	fmt.Fprintf(out, "players %d, objects %d (%d good), advertised alpha %.3f\n",
		*n, *m, *good, *alpha)
	if *grace > 0 || *deadline > 0 {
		fmt.Fprintf(out, "session grace %v, barrier deadline %v\n", *grace, *deadline)
	}
	if fd := srv.ForceDone(); len(fd) > 0 {
		for p, r := range fd {
			fmt.Fprintf(out, "recovered force-done: player %d (round %d) may not rejoin\n", p, r)
		}
	}
	for i, tok := range tokens {
		fmt.Fprintf(out, "player %3d token %s\n", i, tok)
	}
	if *once {
		return nil
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(out, "shutting down")
	return nil
}

// splitAddrs parses a comma-separated address list, trimming blanks.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// runReplicaNode runs one member of a coordinator replica group (the
// -replicas branch of run).
func runReplicaNode(rc server.ReplicaConfig, scfg server.Config, reg *obs.Registry, metricsAddr string, tokens []string, out io.Writer, once bool) error {
	// Validate up front so the quorum default (majority) is filled in for
	// the banner below; StartReplica re-validates the same config.
	if err := rc.Validate(); err != nil {
		return err
	}
	node, err := server.StartReplica(rc, scfg)
	if err != nil {
		return err
	}
	defer node.Close()

	role := "follower"
	if leading, _ := node.Leader(); leading {
		role = "leader (bootstrap)"
	}
	fmt.Fprintf(out, "replica %d/%d %s: replication on %s, clients on %s\n",
		rc.ID, len(rc.Peers), role, node.RepAddr(), node.ClientAddr())
	fmt.Fprintf(out, "quorum %d/%d, fsync commit (replicated rounds are always durable)\n",
		rc.Quorum, len(rc.Peers))
	if reg != nil {
		mln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			return err
		}
		defer mln.Close()
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(reg))
		msrv := &http.Server{Handler: mux}
		go msrv.Serve(mln)
		defer msrv.Close()
		fmt.Fprintf(out, "metrics on http://%s/metrics\n", mln.Addr())
	}
	for i, tok := range tokens {
		fmt.Fprintf(out, "player %3d token %s\n", i, tok)
	}
	if once {
		return nil
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(out, "shutting down")
	return nil
}
