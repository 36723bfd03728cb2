package dist

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/rng"
)

func TestClusterAllHonest(t *testing.T) {
	u, err := object.NewPlanted(object.Planted{M: 64, Good: 2}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCluster(context.Background(), ClusterConfig{
		Universe: u, Honest: 16, Params: core.Params{}, Seed: 1, MaxRounds: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllFound {
		t.Fatal("not every honest player found a good object")
	}
	if res.MeanProbes <= 0 || res.MeanProbes > 64 {
		t.Fatalf("implausible mean probes %v", res.MeanProbes)
	}
}

func TestClusterWithByzantine(t *testing.T) {
	u, err := object.NewPlanted(object.Planted{M: 96, Good: 1}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCluster(context.Background(), ClusterConfig{
		Universe: u, Honest: 24, Byzantine: 8, Params: core.Params{},
		Seed: 2, MaxRounds: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllFound {
		t.Fatal("Byzantine spam defeated the distributed run")
	}
	for _, h := range res.Honest {
		if h.TimedOut {
			t.Fatalf("player %d timed out", h.Player)
		}
		if h.Probes <= 0 {
			t.Fatalf("player %d recorded no probes", h.Player)
		}
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := RunCluster(context.Background(), ClusterConfig{Honest: 1}); err == nil {
		t.Fatal("missing universe accepted")
	}
	u, err := object.NewPlanted(object.Planted{M: 8, Good: 1}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCluster(context.Background(), ClusterConfig{Universe: u, Honest: 0}); err == nil {
		t.Fatal("zero honest players accepted")
	}
}

func TestDistributedMatchesEngineBallpark(t *testing.T) {
	// The distributed run and the in-process engine implement the same
	// protocol; their mean individual costs should be in the same ballpark
	// (they use different randomness, so only a loose check is possible).
	u, err := object.NewPlanted(object.Planted{M: 64, Good: 1}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCluster(context.Background(), ClusterConfig{
		Universe: u, Honest: 16, Byzantine: 4, Params: core.Params{},
		Seed: 4, MaxRounds: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanProbes > 60 {
		t.Fatalf("distributed mean probes %v far above the engine's typical ~10", res.MeanProbes)
	}
}
