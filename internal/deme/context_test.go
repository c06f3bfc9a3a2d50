package deme

import (
	"context"
	"testing"
	"time"
)

// TestGoroutineRunContextUnblocksRecv parks every process in a receive
// that no message and no timeout ends and expects cancellation to release
// them all.
func TestGoroutineRunContextUnblocksRecv(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		done <- NewGoroutine().Run(ctx, 3, func(p Proc) {
			for {
				if _, ok := p.RecvTimeout(longWait); !ok {
					return
				}
			}
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("cancelled run returned error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not unblock RecvTimeout")
	}
}

// TestSimRunContextReleasesBlocked parks sim processes in RecvTimeout and
// expects the scheduler to release them once the context is cancelled.
func TestSimRunContextReleasesBlocked(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		done <- NewSim(Origin3800()).Run(ctx, 2, func(p Proc) {
			for {
				// Perpetual ping-pong: each waits on the other with a
				// timeout, so the virtual clock keeps advancing and the
				// scheduler keeps polling the context.
				p.Send(1-p.ID(), 1, nil, 8)
				if _, ok := p.RecvTimeout(1.0); !ok {
					return
				}
			}
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("cancelled sim run returned error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not stop the simulation")
	}
}
