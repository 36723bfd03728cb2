package swarm_test

// The session transport's rules as both drivers see them: one meaning of
// Options.Retries, and a done context ending a run blocked in an arrival.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/swarm"
	"repro/internal/wire"
)

// startHelloOnly serves a server that answers every Hello and drops the
// connection at the first request after it.
func startHelloOnly(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				dec := wire.NewStreamDecoder(bufio.NewReader(nc))
				var req wire.Request
				if dec.DecodeRequest(&req) != nil {
					return
				}
				hello := wire.Response{N: 1, M: 1, Costs: []float64{1}, Alpha: 1, Beta: 1, LocalTesting: true}
				if wire.NewStreamEncoder(nc).EncodeResponse(&hello) != nil {
					return
				}
				dec.DecodeRequest(&req)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return ln.Addr().String()
}

// TestRetriesBoundDials pins one meaning of Options.Retries for both
// drivers: against a server that drops every request, a call fails after
// 1 + max(Retries, 0) dials in all, the session's first dial included.
func TestRetriesBoundDials(t *testing.T) {
	addr := startHelloOnly(t)
	for _, retries := range []int{-1, 2} {
		want := int64(1 + max(retries, 0))
		opts := func(dials *atomic.Int64) client.Options {
			return client.Options{
				Retries: retries, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
				Dialer: func(addr string) (net.Conn, error) {
					dials.Add(1)
					return net.Dial("tcp", addr)
				},
			}
		}
		t.Run(fmt.Sprintf("client/retries=%d", retries), func(t *testing.T) {
			var dials atomic.Int64
			c, err := client.DialOptions(addr, 0, "tok", opts(&dials))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Probe(0); err == nil {
				t.Fatal("probe succeeded against a server that drops it")
			}
			if got := dials.Load(); got != want {
				t.Errorf("client dialed %d times, want %d", got, want)
			}
		})
		t.Run(fmt.Sprintf("swarm/retries=%d", retries), func(t *testing.T) {
			var dials atomic.Int64
			_, err := swarm.Run(context.Background(), swarm.Config{
				Addr: addr, To: 1, Token: "tok", Client: opts(&dials),
			})
			if err == nil {
				t.Fatal("swarm run succeeded against a server that drops every request")
			}
			if got := dials.Load(); got != want {
				t.Errorf("swarm dialed %d times, want %d", got, want)
			}
		})
	}
}

// TestCancelEndsBlockedArrival drives player 0 of two, so round 0 waits for
// player 1, who never registers, and the arrival's answer waits under no
// BarrierTimeout. Canceling the run's context must end it promptly.
func TestCancelEndsBlockedArrival(t *testing.T) {
	_, addr := startServer(t, stressUniverse(t), 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := swarm.Run(ctx, swarm.Config{
			Addr: addr, To: 1, Token: stressToken, Seed: 1,
		})
		errc <- err
	}()
	time.Sleep(300 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Run still blocked in its arrival a second after the cancel")
	}
}
