// Package swarm drives a large block of simulated players — thousands to a
// million — over a handful of pipelined connections: an event-loop
// scheduler over plain player state, with no goroutine, connection or
// DISTILL instance per player. It is the only honest-fleet driver; the
// distributed harness (internal/dist) and the scenario engine run every
// honest player through it.
//
// One core.Distill instance carries the schedule shared by every honest
// player (the DISTILL schedule evolves from committed billboard state only,
// never from private randomness), while each player keeps its own split
// random stream and probe count. A round is a fixed frame pattern per
// connection group: bulk board reads, chunked probe batches, chunked post
// batches riding one exchange with the group's arrival, then batched
// deregistration of the players that found their object. Every phase
// pipelines up to Config.Window frames per connection, and the transport
// resumes sessions and resends the unacked frame tail across reconnects —
// the whole closing exchange of a round whose arrival is unanswered, since
// a server restart or leader failover rolls that round's posts back — so
// chaos runs (server restart, leader kill) drive through unchanged.
//
// The shared schedule is bit-compatible with independent per-player DISTILL
// instances: same per-player randomness (rng.New(Seed).Split(player)), same
// probe/post/arrival ordering per round, same halt rule — so a swarm-backed
// cluster run commits the board digest a fleet of per-player clients would.
// internal/dist pins that parity against a per-player reference fleet kept
// in its tests.
package swarm

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Config describes one swarm: a contiguous block of players driven against
// one billboard service.
type Config struct {
	// Addr is the server address; Fallbacks lists the other members of a
	// replicated coordinator group (not-leader redirects steer there).
	Addr      string
	Fallbacks []string
	// From, To bound the player block [From, To) this swarm drives.
	From, To int
	// Token is the server's shared swarm credential (server.Config.SwarmToken).
	Token string
	// Params configures the DISTILL schedule shared by all players.
	Params core.Params
	// Seed derives every player's private stream as rng.New(Seed).Split(player)
	// — the derivation an independent per-player DISTILL instance uses.
	Seed uint64
	// MaxRounds bounds the search (default 4096); players still active then
	// are deregistered and reported timed out.
	MaxRounds int
	// Groups is the number of connection groups (default 4, clamped to the
	// player count). Each group owns a contiguous sub-block and its own
	// pipelined connection; groups run each round's phases concurrently.
	Groups int
	// Chunk caps probes/posts/dones per frame (default 4096).
	Chunk int
	// Window caps pipelined in-flight frames per connection (default 8).
	Window int
	// Client tunes the transport (dialer, retries, backoff, timeouts) —
	// the same knobs the per-player client takes, including the faultnet
	// dialer hook.
	Client client.Options
	// Metrics, when non-nil, receives the swarm_* metric family.
	Metrics *obs.Registry
	// Dynamics, when non-nil, opens the world: the driver starts with an
	// empty active set and player arrivals/departures flow through the hook
	// at round boundaries (see sim.Dynamics). The whole block [From, To)
	// stays registered with the server from the handshake — an inactive
	// player is a silent spectator covered by its group's barrier — so
	// membership changes are pure driver-side bookkeeping and the committed
	// digest is a function of (scenario, seed) alone, independent of
	// connection scheduling. Departure deregisters the player permanently:
	// a departed player cannot re-arrive (the engine-backend rejoin
	// semantics do not exist here), and EndRound cannot drift the universe
	// (the server owns it); scenarios that need either must run on the
	// in-process engine backend.
	Dynamics sim.Dynamics
	// Observer, when non-nil, receives a RoundStats snapshot after every
	// committed round. The driver fills the fields it can see from the
	// scheduler and one committed-board read — Round, ActiveHonest,
	// SatisfiedHonest, ProbesThisRound, VotedObjects; GoodVotes and
	// TotalVotes need ground truth or full board scans and stay zero.
	Observer sim.Observer
	// Logf, when non-nil, receives progress lines (one per round).
	Logf func(format string, args ...any)
}

// PlayerResult is one player's outcome (dist.HonestResult is an alias).
type PlayerResult struct {
	Player   int
	Probes   int // probes issued by this player (client-side count)
	Rounds   int // round at which the player halted (or MaxRounds)
	Found    bool
	TimedOut bool
	Departed bool // left via Config.Dynamics before finding an object
}

// Result is a completed swarm run.
type Result struct {
	From, To   int
	Players    []PlayerResult // one per player, in player order
	Rounds     int            // max rounds any player ran
	Found      int
	TimedOut   int
	Departed   int
	MeanProbes float64
}

func (cfg *Config) applyDefaults() error {
	if cfg.Addr == "" {
		return errors.New("swarm: missing server address")
	}
	if cfg.From < 0 || cfg.To <= cfg.From {
		return fmt.Errorf("swarm: invalid player range [%d, %d)", cfg.From, cfg.To)
	}
	if cfg.Token == "" {
		return errors.New("swarm: missing swarm token")
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 4096
	}
	if cfg.Groups <= 0 {
		cfg.Groups = 4
	}
	if n := cfg.To - cfg.From; cfg.Groups > n {
		cfg.Groups = n
	}
	if cfg.Chunk <= 0 {
		cfg.Chunk = 4096
	}
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	return nil
}

// playerState is one player's entire footprint in the driver: no goroutine,
// no connection, no timer — just data the event loop sweeps.
type playerState struct {
	src          rng.Source // private stream, rng.New(Seed).Split(player)
	probes       int32
	rounds       int32
	active       bool // currently searching (mirrors group membership)
	found        bool
	timedOut     bool
	departed     bool // left via Dynamics
	deregistered bool // ReqDone sent for this player
}

// group is one connection group: a contiguous sub-block of players and the
// pipelined connection carrying its swarm session.
type group struct {
	d        *driver
	idx      int
	from, to int
	prim     *conn
	members  []int // active players, ascending
	// registered counts the players of this block still registered with the
	// server (not yet deregistered via ReqDone). Under Dynamics a group
	// can hold zero active members while not-yet-arrived players remain
	// registered; its arrival must still run then, or every other group's
	// arrival waits forever on this block's silent spectators.
	registered int

	// Per-round scratch, reused across rounds.
	probes  []wire.ProbeMsg
	posts   []wire.PostMsg
	found   []int
	departs []int
	reqs    []wire.Request
	resps   []wire.Response
	round   int // round the server last answered this group's arrival with
}

type driver struct {
	cfg   Config
	t     *transport
	met   metrics
	uni   *universe
	board *boardReader
	proto *core.Distill

	n       int           // total players served (server-advertised)
	players []playerState // indexed by player-cfg.From
	groups  []*group
}

func (d *driver) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

func (d *driver) state(player int) *playerState { return &d.players[player-d.cfg.From] }

// Run drives the configured player block to completion: every player either
// finds a good object or times out at MaxRounds. The context cancels the
// run (including mid-backoff and mid-arrival).
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	opt := client.WithDefaults(cfg.Client, cfg.From)
	met := newMetrics(cfg.Metrics)
	d := &driver{cfg: cfg, met: met}
	d.t = &transport{
		ctx: ctx, opt: opt, token: cfg.Token, window: cfg.Window, met: &d.met,
		addr: cfg.Addr, addrs: []string{cfg.Addr},
	}
	for _, fb := range cfg.Fallbacks {
		if fb != "" && fb != cfg.Addr {
			d.t.addrs = append(d.t.addrs, fb)
		}
	}

	// Carve [From, To) into contiguous near-equal group sub-blocks.
	total := cfg.To - cfg.From
	d.groups = make([]*group, cfg.Groups)
	for gi := range d.groups {
		gFrom := cfg.From + gi*total/cfg.Groups
		gTo := cfg.From + (gi+1)*total/cfg.Groups
		g := &group{d: d, idx: gi, from: gFrom, to: gTo}
		g.prim = &conn{
			t: d.t, label: fmt.Sprintf("group %d", gi),
			from: gFrom, to: gTo,
			session: client.NewSessionID(gFrom),
			jitter:  rng.New(opt.Seed).Split(0x5731 + uint64(gi)),
		}
		g.registered = gTo - gFrom
		g.members = make([]int, 0, gTo-gFrom)
		g.probes = make([]wire.ProbeMsg, 0, gTo-gFrom)
		if cfg.Dynamics == nil {
			for p := gFrom; p < gTo; p++ {
				g.members = append(g.members, p)
			}
		} // open world: everyone starts as a registered spectator
		d.groups[gi] = g
	}
	defer func() {
		for _, g := range d.groups {
			g.prim.drop()
		}
	}()

	// Eager handshakes: group 0 first (its Hello payload carries the
	// universe), then the rest. Each group paces from its Hello's round.
	hello, err := d.groups[0].prim.ensure()
	if err != nil {
		return nil, err
	}
	d.groups[0].round = hello.Round
	d.n = hello.N
	d.uni = &universe{m: hello.M, costs: hello.Costs, localTesting: hello.LocalTesting}
	for _, g := range d.groups[1:] {
		resp, err := g.prim.ensure()
		if err != nil {
			return nil, err
		}
		g.round = resp.Round
	}

	// Player state: the per-player stream derivation of an independent
	// DISTILL instance (Split depends only on (seed, label)).
	// (This is the rng.Partition player-stream derivation inlined: bulk
	// blocks skip the partition's stream cache, which would pin a Source
	// per player, and split by value, which allocates none.)
	base := rng.New(cfg.Seed)
	d.players = make([]playerState, total)
	for i := range d.players {
		d.players[i].src = base.SplitValue(uint64(cfg.From + i))
		d.players[i].active = cfg.Dynamics == nil
	}
	if met.enabled {
		met.players.Set(float64(total))
	}

	// One shared schedule. Board reads flow through the cached reader on
	// group 0's connection; the Init-time source is never drawn from (the
	// schedule is a pure function of committed board state), but Init
	// requires one.
	d.board = newBoardReader(d.groups[0].prim, hello.Round, d.n)
	d.proto = core.NewDistill(cfg.Params)
	if err := d.proto.Init(sim.Setup{
		N: d.n, Alpha: hello.Alpha, Beta: hello.Beta,
		Universe: d.uni, Board: d.board,
		Rng: rng.New(cfg.Seed).Split(uint64(cfg.From)),
	}); err != nil {
		return nil, fmt.Errorf("swarm: init: %w", err)
	}
	if d.board.err != nil {
		return nil, fmt.Errorf("swarm: board read: %w", d.board.err)
	}

	if err := d.run(); err != nil {
		return nil, err
	}
	return d.collect(), nil
}

// run is the event loop: one iteration per round while players remain.
func (d *driver) run() error {
	cfg := &d.cfg
	dyn := cfg.Dynamics
	active := 0
	for _, g := range d.groups {
		active += len(g.members)
	}
	for round := 0; round < cfg.MaxRounds; round++ {
		if dyn != nil {
			delta, err := d.applyDynamics(dyn, round)
			if err != nil {
				return err
			}
			active += delta
		}
		if active == 0 && (dyn == nil || dyn.Idle(round)) {
			break
		}
		start := time.Now()
		if d.met.enabled {
			d.met.activePlayers.Set(float64(active))
		}

		// Schedule step + probe draws (single-threaded; board reads go
		// through the cached reader).
		d.proto.BeginRound(round)
		if d.proto.AdviceRound() {
			d.prefetchAdvice()
		}
		for _, g := range d.groups {
			g.probes = g.probes[:0]
			for _, p := range g.members {
				if obj, ok := d.proto.ProbeFor(&d.state(p).src); ok {
					g.probes = append(g.probes, wire.ProbeMsg{Player: p, Object: obj})
				}
			}
		}
		d.proto.FinishRound()
		if d.board.err != nil {
			return fmt.Errorf("swarm: board read: %w", d.board.err)
		}

		// Fan out: each group runs probes → posts → arrival on its own
		// connections; player state blocks are disjoint, so this is
		// race-free by construction.
		if err := d.eachGroup(func(g *group) error { return g.runRound() }); err != nil {
			return err
		}

		// The round committed: new board state, and the players that
		// probed a good object halt (found is only meaningful under local
		// testing, exactly like the per-player path).
		d.board.invalidate()
		for _, g := range d.groups {
			if g.round > d.board.round {
				d.board.round = g.round
			}
		}
		found := 0
		for _, g := range d.groups {
			g.found = g.found[:0]
			keep := g.members[:0]
			for _, p := range g.members {
				st := d.state(p)
				if st.found {
					st.rounds = int32(round + 1)
					st.active = false
					g.found = append(g.found, p)
					found++
				} else {
					keep = append(keep, p)
				}
			}
			g.members = keep
		}
		if found > 0 {
			if err := d.eachGroup(func(g *group) error { return g.sendDones(g.found) }); err != nil {
				return err
			}
			active -= found
		}
		if dyn != nil {
			if err := dyn.EndRound(round); err != nil {
				return fmt.Errorf("swarm: dynamics at round %d: %w", round, err)
			}
		}
		if d.cfg.Observer != nil {
			d.cfg.Observer.ObserveRound(sim.RoundStats{
				Round:           round,
				ActiveHonest:    active,
				SatisfiedHonest: (d.cfg.To - d.cfg.From) - active,
				ProbesThisRound: d.probesThisRound(),
				VotedObjects:    d.board.NumVotedObjects(),
			})
			if d.board.err != nil {
				return fmt.Errorf("swarm: board read: %w", d.board.err)
			}
		}
		if d.met.enabled {
			d.met.rounds.Inc()
			d.met.roundSeconds.ObserveSince(start)
		}
		d.logf("swarm: round %d: %d active, %d found (%.2fs)",
			round, active+found, found, time.Since(start).Seconds())
	}

	// Deregister everyone still registered (best effort, like the
	// per-player path's final Done): stragglers active at MaxRounds are
	// timed out; under Dynamics the sweep also releases never-arrived
	// spectators, which simply never played.
	for _, g := range d.groups {
		for _, p := range g.members {
			st := d.state(p)
			st.rounds = int32(cfg.MaxRounds)
			st.timedOut = true
		}
	}
	_ = d.eachGroup(func(g *group) error {
		defer func() { g.members = g.members[:0] }()
		if g.registered == 0 {
			return nil
		}
		g.departs = g.departs[:0]
		for p := g.from; p < g.to; p++ {
			if !d.state(p).deregistered {
				g.departs = append(g.departs, p)
			}
		}
		return g.sendDones(g.departs)
	})
	return nil
}

// applyDynamics injects one round's arrivals and departures and returns the
// net change to the active count. Departures deregister immediately (before
// the round's probes), so the server's expected set tracks the driver's.
func (d *driver) applyDynamics(dyn sim.Dynamics, round int) (int, error) {
	arrive, depart := dyn.BeginRound(round, d.activeList())
	if len(arrive) == 0 && len(depart) == 0 {
		return 0, nil
	}
	for _, p := range depart {
		st, err := d.checkedState(p, round)
		if err != nil {
			return 0, err
		}
		if !st.active {
			return 0, fmt.Errorf("swarm: dynamics departed inactive player %d at round %d", p, round)
		}
		st.active = false
		st.departed = true
		st.rounds = int32(round)
	}
	departed := 0
	if len(depart) > 0 {
		for _, g := range d.groups {
			g.departs = g.departs[:0]
			keep := g.members[:0]
			for _, p := range g.members {
				if st := d.state(p); st.departed && !st.deregistered {
					g.departs = append(g.departs, p)
					departed++
				} else {
					keep = append(keep, p)
				}
			}
			g.members = keep
		}
		if err := d.eachGroup(func(g *group) error { return g.sendDones(g.departs) }); err != nil {
			return 0, err
		}
	}
	arrived := 0
	for _, p := range arrive {
		st, err := d.checkedState(p, round)
		if err != nil {
			return 0, err
		}
		if st.deregistered || st.departed {
			return 0, fmt.Errorf("swarm: dynamics re-arrival of departed player %d at round %d (swarm departures are permanent)", p, round)
		}
		if st.active || st.found {
			continue // double arrivals are no-ops; halted players stay halted
		}
		st.active = true
		g := d.groupOf(p)
		g.members = append(g.members, p)
		arrived++
	}
	if arrived > 0 {
		// Keep each group's members ascending: member order fixes probe
		// order, which fixes frame contents and the committed digest.
		for _, g := range d.groups {
			sort.Ints(g.members)
		}
	}
	return arrived - departed, nil
}

// activeList flattens the groups' member lists in ascending player order.
func (d *driver) activeList() []int {
	var out []int
	for _, g := range d.groups {
		out = append(out, g.members...)
	}
	return out
}

// checkedState bounds-checks a dynamics-supplied player id.
func (d *driver) checkedState(p, round int) (*playerState, error) {
	if p < d.cfg.From || p >= d.cfg.To {
		return nil, fmt.Errorf("swarm: dynamics player %d outside block [%d, %d) at round %d",
			p, d.cfg.From, d.cfg.To, round)
	}
	return d.state(p), nil
}

// groupOf returns the group whose sub-block contains player p.
func (d *driver) groupOf(p int) *group {
	for _, g := range d.groups {
		if p >= g.from && p < g.to {
			return g
		}
	}
	panic("swarm: player outside every group") // unreachable after checkedState
}

// probesThisRound sums the round's probe draws across groups.
func (d *driver) probesThisRound() int {
	n := 0
	for _, g := range d.groups {
		n += len(g.probes)
	}
	return n
}

// prefetchAdvice peeks every active player's advice draw — a value copy of
// the player's stream leaves the real draw untouched — and bulk-loads the
// votes of every distinct advised player before the draw loop runs.
func (d *driver) prefetchAdvice() {
	for _, g := range d.groups {
		for _, p := range g.members {
			peek := d.state(p).src
			d.board.want(peek.Intn(d.n))
		}
	}
	d.board.fetchVotes(d.cfg.Chunk)
}

// eachGroup runs fn concurrently over the groups and returns the first
// error.
func (d *driver) eachGroup(fn func(g *group) error) error {
	if len(d.groups) == 1 {
		return fn(d.groups[0])
	}
	errs := make([]error, len(d.groups))
	var wg sync.WaitGroup
	for gi, g := range d.groups {
		wg.Add(1)
		go func(gi int, g *group) {
			defer wg.Done()
			errs[gi] = fn(g)
		}(gi, g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runRound executes one group's share of a round: chunked pipelined probe
// batches, then the resulting posts and the group's arrival in one
// exchange.
func (g *group) runRound() error {
	if len(g.members) == 0 && g.registered == 0 {
		// A fully deregistered group adds nothing; its arrival would only
		// wait on everyone else. A group with no ACTIVE members but
		// registered spectators (open-world Dynamics) must still fall
		// through to the arrival — the server waits on its whole block.
		return nil
	}
	d := g.d
	chunk := d.cfg.Chunk

	// Probes.
	g.reqs = g.reqs[:0]
	for lo := 0; lo < len(g.probes); lo += chunk {
		hi := min(lo+chunk, len(g.probes))
		g.reqs = append(g.reqs, wire.Request{Type: wire.ReqProbeBatch, Probes: g.probes[lo:hi]})
	}
	g.resps = resize(g.resps, len(g.reqs))
	if err := g.prim.exchange(g.reqs, g.resps); err != nil {
		return err
	}

	// Results → posts. One post per answered probe, in probe order — the
	// same posting order the per-player loop produces.
	g.posts = slices.Grow(g.posts[:0], len(g.probes))
	ri := 0
	for i := range g.resps {
		for _, pr := range g.resps[i].ProbeResults {
			pm := g.probes[ri]
			ri++
			st := d.state(pm.Player)
			st.probes++
			positive := d.uni.localTesting && pr.Good
			if positive {
				st.found = true
			}
			g.posts = append(g.posts, wire.PostMsg{
				Player: pm.Player, Object: pm.Object, Value: pr.Value, Positive: positive,
			})
		}
	}
	if ri != len(g.probes) {
		return fmt.Errorf("swarm: group %d: %d probes answered, want %d", g.idx, ri, len(g.probes))
	}

	// Posts: batched frames, sent in one exchange with the arrival below.
	g.reqs = g.reqs[:0]
	for lo := 0; lo < len(g.posts); lo += chunk {
		hi := min(lo+chunk, len(g.posts))
		g.reqs = append(g.reqs, wire.Request{Type: wire.ReqPostBatch, Posts: g.posts[lo:hi]})
	}

	// Arrival: one frame stamps the block past the group's round, and the
	// server answers once that round has committed. An acknowledged post is
	// not yet safe: until the commit, a server restart or leader failover
	// rolls the round back and discards it. The post frames therefore
	// travel in the arrival's exchange, which resends them all if the
	// session resumes before the arrival is answered. An answer below the
	// stamp can only be a replay recorded before the seal, so the bare stamp
	// is re-sent; the group's round only ever moves forward.
	start := time.Now()
	target := g.round + 1
	g.reqs = append(g.reqs, wire.Request{Type: wire.ReqEpoch, Epoch: target})
	for {
		g.resps = resize(g.resps, len(g.reqs))
		if err := g.prim.exchange(g.reqs, g.resps); err != nil {
			return err
		}
		if resp := &g.resps[len(g.reqs)-1]; resp.Round >= target {
			g.round = resp.Round
			break
		}
		g.reqs = append(g.reqs[:0], wire.Request{Type: wire.ReqEpoch, Epoch: target})
	}
	if d.met.enabled {
		d.met.barrierSeconds.ObserveSince(start)
	}
	return nil
}

// sendDones deregisters the listed players in chunked frames.
func (g *group) sendDones(players []int) error {
	if len(players) == 0 {
		return nil
	}
	chunk := g.d.cfg.Chunk
	g.reqs = g.reqs[:0]
	for lo := 0; lo < len(players); lo += chunk {
		hi := min(lo+chunk, len(players))
		g.reqs = append(g.reqs, wire.Request{Type: wire.ReqDone, Players: players[lo:hi]})
	}
	g.resps = resize(g.resps, len(g.reqs))
	if err := g.prim.exchange(g.reqs, g.resps); err != nil {
		return err
	}
	for _, p := range players {
		if st := g.d.state(p); !st.deregistered {
			st.deregistered = true
			g.registered--
		}
	}
	return nil
}

// collect assembles the Result from the swept player state.
func (d *driver) collect() *Result {
	res := &Result{From: d.cfg.From, To: d.cfg.To}
	res.Players = make([]PlayerResult, len(d.players))
	total := 0
	for i := range d.players {
		st := &d.players[i]
		pr := PlayerResult{
			Player:   d.cfg.From + i,
			Probes:   int(st.probes),
			Rounds:   int(st.rounds),
			Found:    st.found,
			TimedOut: st.timedOut,
			Departed: st.departed,
		}
		res.Players[i] = pr
		total += pr.Probes
		if pr.Found {
			res.Found++
		}
		if pr.TimedOut {
			res.TimedOut++
		}
		if pr.Departed {
			res.Departed++
		}
		if pr.Rounds > res.Rounds {
			res.Rounds = pr.Rounds
		}
	}
	res.MeanProbes = float64(total) / float64(len(d.players))
	return res
}

// resize returns s with length n, reusing capacity.
func resize(s []wire.Response, n int) []wire.Response {
	if cap(s) < n {
		return make([]wire.Response, n)
	}
	return s[:n]
}
