package repro_test

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro"
)

func TestFacadeAsync(t *testing.T) {
	u, err := repro.NewPlantedUniverse(repro.Planted{M: 100, Good: 2}, repro.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.RunAsync(repro.AsyncConfig{
		Universe: u, Strategy: repro.NewExploreFollow(4, 100),
		Schedule: repro.ScheduleRoundRobin, N: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for p, ok := range res.Satisfied {
		if !ok {
			t.Fatalf("player %d unsatisfied", p)
		}
	}
	// The other schedules are reachable through the facade too.
	if repro.ScheduleUniformRandom.Name() != "uniform-random" {
		t.Fatal("schedule naming")
	}
	if repro.ScheduleStarve(3).Name() != "starve-victim" {
		t.Fatal("starve naming")
	}
	if repro.NewSoloStrategy(10).Name() != "solo-random" {
		t.Fatal("solo naming")
	}
}

func TestFacadeBillboardService(t *testing.T) {
	u, err := repro.NewPlantedUniverse(repro.Planted{M: 16, Good: 1}, repro.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	store, err := repro.OpenJournalStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, err := repro.NewBillboardServer(repro.BillboardServerConfig{
		Universe: u, Tokens: []string{"a", "b"}, Alpha: 1, Beta: u.Beta(),
		Persist: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c0, err := repro.Dial(context.Background(), addr, 0, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := repro.Dial(context.Background(), addr, 1, "b")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	cached := repro.NewCachedReader(c0)
	if err := c1.Post(3, 1, true); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	for _, c := range []*repro.BillboardClient{c0, c1} {
		go func(c *repro.BillboardClient) { defer wg.Done(); _, _ = c.Barrier() }(c)
	}
	wg.Wait()
	cached.Invalidate()
	if cached.VoteCount(3) != 1 {
		t.Fatal("cached read through facade failed")
	}
	wal, err := os.ReadFile(filepath.Join(store.Dir(), "wal-00000000.log"))
	if err != nil || len(wal) == 0 {
		t.Fatalf("journal through facade recorded nothing (%d bytes, %v)", len(wal), err)
	}
}

func TestFacadeDistributedCluster(t *testing.T) {
	u, err := repro.NewPlantedUniverse(repro.Planted{M: 48, Good: 1}, repro.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.RunDistributedCluster(repro.ClusterConfig{
		Universe: u, Honest: 8, Byzantine: 2,
		Params: repro.DistillParams{}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllFound {
		t.Fatal("distributed cluster through facade did not finish")
	}
}

func TestFacadeTrust(t *testing.T) {
	reports := []repro.TrustReport{
		{Player: 0, Object: 1, Value: 1},
		{Player: 1, Object: 1, Value: 1},
		{Player: 2, Object: 1, Value: 0},
	}
	scores, err := repro.TrustScores(reports, repro.TrustConfig{Players: 3})
	if err != nil {
		t.Fatal(err)
	}
	if scores[0] <= scores[2] {
		t.Fatal("agreeing raters should out-trust the dissenter")
	}
	obj, _, ok := repro.TrustRecommend(reports, scores, 0.5)
	if !ok || obj != 1 {
		t.Fatalf("recommended %d (ok=%v)", obj, ok)
	}
}
