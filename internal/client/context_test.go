package client

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/object"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/wire"
)

// refusingDialer always fails, as a dead endpoint would.
func refusingDialer(addr string) (net.Conn, error) {
	return nil, errors.New("connection refused")
}

// TestDialContextCanceledStopsBackoff pins the cancellation contract: a
// canceled context cuts the dial's retry/backoff loop short and surfaces
// context.Canceled instead of grinding through every attempt.
func TestDialContextCanceledStopsBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := DialContext(ctx, "127.0.0.1:1", 0, "tok", Options{
		Dialer:  refusingDialer,
		Retries: 1000,
		// Without cancellation this schedule would sleep for minutes.
		BackoffBase: 50 * time.Millisecond,
		BackoffMax:  time.Second,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("canceled dial still took %v", elapsed)
	}
}

// TestDialExhaustionClassifiesDeadEndpoint pins the error contract: a dial
// that never completes a handshake wraps wire.ErrServerClosed.
func TestDialExhaustionClassifiesDeadEndpoint(t *testing.T) {
	_, err := DialContext(context.Background(), "127.0.0.1:1", 0, "tok", Options{
		Dialer:      refusingDialer,
		Retries:     2,
		BackoffBase: time.Microsecond,
		BackoffMax:  time.Microsecond,
	})
	if !errors.Is(err, wire.ErrServerClosed) {
		t.Fatalf("err = %v, want it to wrap wire.ErrServerClosed", err)
	}
}

// TestCancelEndsBlockedBarrier pins the context rule for a blocked arrival:
// player 0 of two arrives, so its Barrier waits for player 1, who never
// registers, with no barrier deadline. Canceling the client's context must
// end the Barrier promptly with the context's error, and every later call
// must fail too.
func TestCancelEndsBlockedBarrier(t *testing.T) {
	u, err := object.NewPlanted(object.Planted{M: 16, Good: 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Universe: u, Tokens: []string{"a", "b"}, Alpha: 1, Beta: u.Beta()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addr, err := srv.Start("")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, err := DialContext(ctx, addr, 0, "a", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := c.Barrier()
		errc <- err
	}()
	time.Sleep(300 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Barrier returned %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Barrier still blocked a second after the cancel")
	}
	if _, err := c.Probe(0); !errors.Is(err, context.Canceled) {
		t.Fatalf("probe after the cancel returned %v, want context.Canceled", err)
	}
}
