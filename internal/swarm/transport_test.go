package swarm_test

// The session transport's rules as both drivers see them: one meaning of
// Options.Retries, a malformed Hello answer refused, a done context ending
// a run blocked in an arrival, and the swarm's concurrent handshakes.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/swarm"
	"repro/internal/wire"
)

// startHelloOnly serves a server that answers every Hello with hello and
// drops the connection at the first request after it.
func startHelloOnly(t *testing.T, hello wire.Response) string {
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
	addr := startHelloOnly(t, wire.Response{N: 1, M: 1, Alpha: 1, Beta: 1, LocalTesting: true})
	for _, retries := range []int{-1, 2} {
		want := int64(1 + max(retries, 0))
		opts := func(dials *atomic.Int64) client.Options {
			return client.Options{
				Retries: retries, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
				Dialer: countingDialer(dials),
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

// countingDialer returns a Dialer that counts its dials.
func countingDialer(dials *atomic.Int64) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		dials.Add(1)
		return net.Dial("tcp", addr)
	}
}

// TestMalformedCostTableRefused: a Hello answer whose cost table is
// neither empty nor one cost per object fails the dial in both drivers,
// once, instead of leaving Cost to index past the table.
func TestMalformedCostTableRefused(t *testing.T) {
	addr := startHelloOnly(t, wire.Response{N: 1, M: 4, Costs: []float64{1, 2}, Alpha: 1, Beta: 1, LocalTesting: true})
	const want = "2 costs for 4 objects"
	t.Run("client", func(t *testing.T) {
		var dials atomic.Int64
		c, err := client.DialOptions(addr, 0, "tok", client.Options{Dialer: countingDialer(&dials)})
		if err == nil {
			c.Close()
			t.Fatal("dial accepted a malformed cost table")
		}
		if !strings.Contains(err.Error(), want) || dials.Load() != 1 {
			t.Fatalf("dial failed after %d dials with %v, want one dial and %q", dials.Load(), err, want)
		}
	})
	t.Run("swarm", func(t *testing.T) {
		var dials atomic.Int64
		_, err := swarm.Run(context.Background(), swarm.Config{
			Addr: addr, To: 1, Token: "tok", Client: client.Options{Dialer: countingDialer(&dials)},
		})
		if err == nil || !strings.Contains(err.Error(), want) || dials.Load() != 1 {
			t.Fatalf("run failed after %d dials with %v, want one dial and %q", dials.Load(), err, want)
		}
	})
}

// TestHandshakesRunConcurrently: every group of a run says Hello at once.
// The dialer holds each dial until all four groups are dialing, or a
// second has passed, and records the most dials it saw in progress.
func TestHandshakesRunConcurrently(t *testing.T) {
	const groups = 4
	_, addr := startServer(t, stressUniverse(t), 8)
	var inflight, peak atomic.Int64
	all := make(chan struct{})
	var once sync.Once
	opt := stressClientOpts()
	opt.Dialer = func(addr string) (net.Conn, error) {
		n := inflight.Add(1)
		defer inflight.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		if n == groups {
			once.Do(func() { close(all) })
		}
		select {
		case <-all:
		case <-time.After(time.Second):
		}
		return net.Dial("tcp", addr)
	}
	res, err := swarm.Run(context.Background(), swarm.Config{
		Addr: addr, To: 8, Token: stressToken, Seed: 42, MaxRounds: 256, Groups: groups, Client: opt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found != 8 {
		t.Fatalf("%d of 8 players found an object", res.Found)
	}
	if got := peak.Load(); got != groups {
		t.Fatalf("at most %d of %d groups were dialing at once", got, groups)
	}
}

// TestRefusedHelloReturnsGroupError: when the server refuses the second
// group's Hello (one of its players already holds a session of its own),
// the run fails with that group's error under its label, and every
// goroutine the run started has ended by the time it returns.
func TestRefusedHelloReturnsGroupError(t *testing.T) {
	_, addr := startServer(t, stressUniverse(t), 4)
	c, err := client.Dial(addr, 2, "") // startServer's tokens are empty
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := runtime.NumGoroutine()
	_, err = swarm.Run(context.Background(), swarm.Config{
		Addr: addr, To: 4, Token: stressToken, Seed: 1, Groups: 2, Client: stressClientOpts(),
	})
	if err == nil || !strings.Contains(err.Error(), "swarm: group 1: session refused") ||
		!errors.Is(err, wire.ErrSessionExpired) {
		t.Fatalf("Run = %v, want group 1's refusal", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines 2s after Run returned, %d before it started:\n%s",
				runtime.NumGoroutine(), before, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
