// Command swarm-bench drives a large block of simulated players through a
// multi-round DISTILL search on one machine: an in-process billboard server
// plus the swarm event-loop driver (repro.RunSwarm) multiplexing every
// player onto a few pipelined connections. A million players fit where a
// goroutine-and-socket-per-player fleet would exhaust file descriptors four
// orders of magnitude earlier.
//
//	swarm-bench -players 1000000 -max-rounds 4
//	swarm-bench -players 100000 -groups 8 -metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro"
	"repro/internal/object"
	"repro/internal/rng"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "swarm-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("swarm-bench", flag.ContinueOnError)
	var (
		players   = fs.Int("players", 100_000, "players to drive")
		m         = fs.Int("m", 256, "number of objects")
		good      = fs.Int("good", 8, "number of good objects")
		groups    = fs.Int("groups", 4, "swarm connection groups")
		chunk     = fs.Int("chunk", 4096, "probes/posts per frame")
		window    = fs.Int("window", 8, "pipelined frames in flight per connection")
		maxRounds = fs.Int("max-rounds", 4, "round bound; players still searching then time out")
		seed      = fs.Uint64("seed", 42, "universe/player seed")
		metrics   = fs.Bool("metrics", false, "print the swarm_* metric snapshot after the run")
		verbose   = fs.Bool("v", false, "log per-round progress")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	u, err := object.NewPlanted(object.Planted{M: *m, Good: *good}, rng.New(*seed))
	if err != nil {
		return err
	}
	const token = "swarm-bench"
	srv, err := server.New(server.Config{
		Universe:   u,
		Tokens:     make([]string, *players),
		Alpha:      1.0,
		Beta:       u.Beta(),
		SwarmToken: token,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}

	reg := repro.NewMetrics()
	opts := []repro.SwarmOption{
		repro.WithSwarmGroups(*groups),
		repro.WithSwarmChunk(*chunk),
		repro.WithSwarmWindow(*window),
		repro.WithMetrics(reg),
	}
	if *verbose {
		logf := func(format string, a ...any) { fmt.Fprintf(out, format+"\n", a...) }
		opts = append(opts, repro.WithLogf(logf))
	}

	fmt.Fprintf(out, "swarm-bench: %d players, m=%d good=%d groups=%d chunk=%d window=%d max-rounds=%d\n",
		*players, *m, *good, *groups, *chunk, *window, *maxRounds)
	start := time.Now()
	res, err := repro.RunSwarm(context.Background(), repro.SwarmConfig{
		Addr: addr, From: 0, To: *players, Token: token,
		Seed: *seed, MaxRounds: *maxRounds,
	}, opts...)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	nsPerPlayer := float64(elapsed.Nanoseconds()) / float64(*players)
	fmt.Fprintf(out, "rounds=%d found=%d timed-out=%d mean-probes=%.2f\n",
		res.Rounds, res.Found, res.TimedOut, res.MeanProbes)
	fmt.Fprintf(out, "wall=%s ns/player=%.0f players/s=%.0f\n",
		elapsed.Round(time.Millisecond), nsPerPlayer, float64(*players)/elapsed.Seconds())

	if *metrics {
		snap := reg.Snapshot()
		names := make([]string, 0, len(snap))
		for name := range snap {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(out, "%s %g\n", name, snap[name])
		}
	}
	return nil
}
