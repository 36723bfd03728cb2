// Package scenario is the declarative workload layer: a Spec — loaded from
// a JSON file or picked from the builtin library — composes player
// arrival/departure processes (Poisson, bursts/flash crowds, trace replay),
// power-law object popularity with drift, and phased adversary campaigns
// that switch strategy at configured rounds, then drives them through the
// in-process simulation engine or the full networked cluster (swarm-driven,
// in sync or epoch mode).
//
// A run is replayable bit-for-bit from (spec, seed): every stochastic
// process draws from its own keyed stream of one rng.Partition
// (StreamArrival, StreamDeparture, StreamPopularity, StreamCampaign,
// StreamWorld), so the arrival process consuming more randomness can never
// perturb the popularity drift, and adding a process to a spec leaves the
// others' draw sequences untouched. The replay golden tests pin
// (file, seed) → byte-identical billboard digest.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Backends and cluster modes a Spec can name.
const (
	BackendEngine  = "engine"  // in-process sim.Engine (default)
	BackendCluster = "cluster" // loopback server + swarm event-loop driver

	ModeSync  = "sync"  // server.ModeSync: a round deadline expels stragglers (default)
	ModeEpoch = "epoch" // server.ModeEpoch: a round deadline seals past them
)

// Spec is a declarative scenario. The zero value of every optional field
// means "absent"; Validate fills defaults and rejects inconsistent combos.
type Spec struct {
	// Name identifies the scenario in results and the builtin library.
	Name string `json:"name"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`
	// Backend selects the runner: BackendEngine (default) or BackendCluster.
	// Popularity drift and adversary campaigns need the engine backend (the
	// cluster's server owns the universe and its Byzantine clients are
	// plain spammers); open-world churn runs on both.
	Backend string `json:"backend,omitempty"`
	// Mode selects the cluster's operation mode: ModeSync (default) or
	// ModeEpoch. Engine runs are always synchronous.
	Mode string `json:"mode,omitempty"`

	// Players is the total population; Byzantine of them are dishonest
	// (engine: driven by the Campaign; cluster: wire-protocol spammers).
	Players   int `json:"players"`
	Byzantine int `json:"byzantine,omitempty"`
	// MaxRounds bounds the run (default 512).
	MaxRounds int `json:"maxRounds,omitempty"`

	// World shapes the object universe.
	World World `json:"world"`
	// Arrivals and Departures open the world; both absent means the classic
	// closed population. An absent arrival process with departures present
	// means everyone arrives at round 0.
	Arrivals   *Process `json:"arrivals,omitempty"`
	Departures *Process `json:"departures,omitempty"`
	// Drift periodically re-plants the good set at Zipf-popular object ids
	// (engine backend only).
	Drift *Drift `json:"drift,omitempty"`
	// Campaign phases the adversary: each phase activates at its From round
	// with a fresh instance of the named strategy (engine backend only).
	Campaign []Phase `json:"campaign,omitempty"`
	// Protocol tunes the honest players' DISTILL parameters.
	Protocol Protocol `json:"protocol,omitempty"`
}

// World describes the object universe: a planted local-testing world of
// Objects objects with Good good ones. With Zipf > 0 the good set is
// planted at ids drawn from a Zipf(Zipf) popularity profile (low ids
// popular) instead of uniformly — the power-law catalog shape.
type World struct {
	Objects int     `json:"objects"`
	Good    int     `json:"good"`
	Zipf    float64 `json:"zipf,omitempty"`
}

// Process is one arrival or departure process.
type Process struct {
	// Kind selects the process: "poisson", "burst", or "trace".
	Kind string `json:"process"`
	// Rate is the Poisson mean per round ("poisson" only).
	Rate float64 `json:"rate,omitempty"`
	// From and Until bound the rounds a Poisson process is live (inclusive;
	// Until is required for arrivals so the run can detect idleness).
	From  int `json:"from,omitempty"`
	Until int `json:"until,omitempty"`
	// At and Size pair burst rounds with burst sizes ("burst" only).
	At   []int `json:"at,omitempty"`
	Size []int `json:"size,omitempty"`
	// Trace is an explicit event list ("trace" only), replayed verbatim.
	Trace []TraceEvent `json:"trace,omitempty"`
}

// TraceEvent is one trace entry: at Round, Count players arrive/depart
// (chosen deterministically), or the explicit Players do. For departures,
// explicit Players no longer active (already halted or departed) are
// skipped — in a replayed trace a player may well have found its object
// before its recorded departure.
type TraceEvent struct {
	Round   int   `json:"round"`
	Count   int   `json:"count,omitempty"`
	Players []int `json:"players,omitempty"`
}

// Drift periodically re-plants the good set: every Every committed rounds,
// Good (default World.Good) distinct object ids are drawn from a
// Zipf(Zipf) popularity profile and become the new good set (everything
// else goes bad) — the "changing interests" churn of the paper's §X6,
// generalized to a drifting power-law catalog.
type Drift struct {
	Every int     `json:"every"`
	Zipf  float64 `json:"zipf"`
	Good  int     `json:"good,omitempty"`
}

// Phase is one adversary campaign phase: Strategy (an
// internal/adversary.Names entry) activates at round From and runs until
// the next phase starts. The strategy sees rounds relative to its phase
// start — a one-shot "round 0" vote stuffer fires at the handover. Each
// phase draws from its own split of the campaign stream, so reordering or
// swapping phases leaves the others' randomness untouched.
type Phase struct {
	From     int    `json:"from"`
	Strategy string `json:"strategy"`
}

// Protocol carries the tunable DISTILL parameters (zero = paper defaults).
type Protocol struct {
	K1 float64 `json:"k1,omitempty"`
	K2 float64 `json:"k2,omitempty"`
}

// Load reads and validates a Spec from a JSON file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Parse(data)
}

// Parse decodes and validates a Spec from JSON bytes. Unknown fields are
// rejected — a typoed knob silently ignored would change the workload the
// file claims to describe.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks cross-field consistency and fills defaults in place.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	switch s.Backend {
	case "":
		s.Backend = BackendEngine
	case BackendEngine, BackendCluster:
	default:
		return fmt.Errorf("scenario %s: unknown backend %q", s.Name, s.Backend)
	}
	switch s.Mode {
	case "":
		s.Mode = ModeSync
	case ModeSync:
	case ModeEpoch:
		if s.Backend != BackendCluster {
			return fmt.Errorf("scenario %s: mode %q needs the cluster backend", s.Name, s.Mode)
		}
	default:
		return fmt.Errorf("scenario %s: unknown mode %q", s.Name, s.Mode)
	}
	if s.Players <= 0 {
		return fmt.Errorf("scenario %s: players must be > 0", s.Name)
	}
	if s.Byzantine < 0 || s.Byzantine >= s.Players {
		return fmt.Errorf("scenario %s: byzantine %d outside [0, players)", s.Name, s.Byzantine)
	}
	if s.MaxRounds == 0 {
		s.MaxRounds = 512
	}
	if s.MaxRounds < 0 {
		return fmt.Errorf("scenario %s: negative maxRounds", s.Name)
	}
	if s.World.Objects <= 0 {
		return fmt.Errorf("scenario %s: world.objects must be > 0", s.Name)
	}
	if s.World.Good < 1 || s.World.Good > s.World.Objects {
		return fmt.Errorf("scenario %s: world.good %d outside [1, %d]", s.Name, s.World.Good, s.World.Objects)
	}
	if s.World.Zipf < 0 {
		return fmt.Errorf("scenario %s: negative world.zipf", s.Name)
	}
	honest := s.Players - s.Byzantine
	if s.Arrivals != nil {
		if err := s.Arrivals.validate(s.Name, "arrivals", true, honest); err != nil {
			return err
		}
	}
	if s.Departures != nil {
		if err := s.Departures.validate(s.Name, "departures", false, honest); err != nil {
			return err
		}
	}
	if s.Drift != nil {
		if s.Backend != BackendEngine {
			return fmt.Errorf("scenario %s: drift needs the engine backend (the cluster server owns its universe)", s.Name)
		}
		if s.Drift.Every <= 0 {
			return fmt.Errorf("scenario %s: drift.every must be > 0", s.Name)
		}
		if s.Drift.Zipf <= 0 {
			return fmt.Errorf("scenario %s: drift.zipf must be > 0", s.Name)
		}
		if s.Drift.Good == 0 {
			s.Drift.Good = s.World.Good
		}
		if s.Drift.Good < 1 || s.Drift.Good > s.World.Objects {
			return fmt.Errorf("scenario %s: drift.good %d outside [1, %d]", s.Name, s.Drift.Good, s.World.Objects)
		}
	}
	if len(s.Campaign) > 0 {
		if s.Backend != BackendEngine {
			return fmt.Errorf("scenario %s: campaign needs the engine backend (cluster Byzantine clients are fixed spammers)", s.Name)
		}
		if s.Byzantine == 0 {
			return fmt.Errorf("scenario %s: campaign without byzantine players", s.Name)
		}
		if !sort.SliceIsSorted(s.Campaign, func(i, j int) bool { return s.Campaign[i].From < s.Campaign[j].From }) {
			return fmt.Errorf("scenario %s: campaign phases must be sorted by from", s.Name)
		}
		for i, ph := range s.Campaign {
			if ph.From < 0 {
				return fmt.Errorf("scenario %s: campaign phase %d: negative from", s.Name, i)
			}
			if i > 0 && ph.From == s.Campaign[i-1].From {
				return fmt.Errorf("scenario %s: campaign phases %d and %d share from=%d", s.Name, i-1, i, ph.From)
			}
			if ph.Strategy == "" {
				return fmt.Errorf("scenario %s: campaign phase %d: missing strategy", s.Name, i)
			}
		}
		if s.Campaign[0].From != 0 {
			return fmt.Errorf("scenario %s: first campaign phase must start at round 0 (use strategy %q for a quiet opening)", s.Name, "silent")
		}
	}
	if s.Protocol.K1 < 0 || s.Protocol.K2 < 0 {
		return fmt.Errorf("scenario %s: negative protocol parameter", s.Name)
	}
	return nil
}

// validate checks one Process. Arrival processes must be bounded (the run
// needs a round after which no arrival can occur to detect idleness).
func (p *Process) validate(spec, which string, arrivals bool, pool int) error {
	switch p.Kind {
	case "poisson":
		if p.Rate <= 0 {
			return fmt.Errorf("scenario %s: %s: poisson rate must be > 0", spec, which)
		}
		if p.From < 0 {
			return fmt.Errorf("scenario %s: %s: negative from", spec, which)
		}
		if arrivals {
			if p.Until < p.From {
				return fmt.Errorf("scenario %s: %s: poisson arrivals need until >= from (a bound makes idleness decidable)", spec, which)
			}
		} else if p.Until != 0 && p.Until < p.From {
			return fmt.Errorf("scenario %s: %s: until %d before from %d", spec, which, p.Until, p.From)
		}
		if len(p.At) > 0 || len(p.Size) > 0 || len(p.Trace) > 0 {
			return fmt.Errorf("scenario %s: %s: poisson process with burst/trace fields", spec, which)
		}
	case "burst":
		if len(p.At) == 0 || len(p.At) != len(p.Size) {
			return fmt.Errorf("scenario %s: %s: burst needs matching non-empty at/size", spec, which)
		}
		if !sort.IntsAreSorted(p.At) {
			return fmt.Errorf("scenario %s: %s: burst rounds must be sorted", spec, which)
		}
		for i, at := range p.At {
			if at < 0 || p.Size[i] <= 0 {
				return fmt.Errorf("scenario %s: %s: burst %d invalid (round %d, size %d)", spec, which, i, at, p.Size[i])
			}
		}
		if len(p.Trace) > 0 {
			return fmt.Errorf("scenario %s: %s: burst process with trace field", spec, which)
		}
	case "trace":
		if len(p.Trace) == 0 {
			return fmt.Errorf("scenario %s: %s: empty trace", spec, which)
		}
		last := -1
		for i, ev := range p.Trace {
			if ev.Round <= last {
				return fmt.Errorf("scenario %s: %s: trace event %d out of order", spec, which, i)
			}
			last = ev.Round
			if ev.Count < 0 {
				return fmt.Errorf("scenario %s: %s: trace event %d: negative count", spec, which, i)
			}
			if ev.Count == 0 && len(ev.Players) == 0 {
				return fmt.Errorf("scenario %s: %s: trace event %d: no count and no players", spec, which, i)
			}
			if ev.Count > 0 && len(ev.Players) > 0 {
				return fmt.Errorf("scenario %s: %s: trace event %d: both count and players", spec, which, i)
			}
			for _, id := range ev.Players {
				if id < 0 || id >= pool {
					return fmt.Errorf("scenario %s: %s: trace event %d: player %d outside the honest pool [0, %d)", spec, which, i, id, pool)
				}
			}
		}
	default:
		return fmt.Errorf("scenario %s: %s: unknown process %q", spec, which, p.Kind)
	}
	return nil
}

// lastRound returns the last round at which this process can still emit
// (arrival processes are validated bounded).
func (p *Process) lastRound() int {
	if p == nil {
		return 0
	}
	switch p.Kind {
	case "poisson":
		return p.Until
	case "burst":
		return p.At[len(p.At)-1]
	case "trace":
		return p.Trace[len(p.Trace)-1].Round
	}
	return 0
}
