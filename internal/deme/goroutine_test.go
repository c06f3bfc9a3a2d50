package deme

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func TestGoroutinePingPong(t *testing.T) {
	g := NewGoroutine()
	var got atomic.Int64
	err := g.Run(context.Background(), 2, func(p Proc) {
		if p.ID() == 0 {
			p.Send(1, 1, 41, 0)
			msg, ok := p.RecvTimeout(longWait)
			if !ok {
				t.Error("A: no pong")
				return
			}
			got.Store(int64(msg.Data.(int)))
		} else {
			msg, ok := p.RecvTimeout(longWait)
			if !ok {
				t.Error("B: no ping")
				return
			}
			p.Send(0, 2, msg.Data.(int)+1, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Load() != 42 {
		t.Errorf("got %d, want 42", got.Load())
	}
	if g.Elapsed() <= 0 {
		t.Error("Elapsed should be positive")
	}
}

func TestGoroutineTryRecv(t *testing.T) {
	g := NewGoroutine()
	err := g.Run(context.Background(), 1, func(p Proc) {
		if _, ok := p.TryRecv(); ok {
			t.Error("TryRecv on empty mailbox returned a message")
		}
		p.Send(0, 9, nil, 0)
		if m, ok := p.TryRecv(); !ok || m.Tag != 9 {
			t.Error("self-send not visible to TryRecv")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGoroutineRecvTimeout(t *testing.T) {
	g := NewGoroutine()
	err := g.Run(context.Background(), 2, func(p Proc) {
		if p.ID() == 0 {
			// Keep the run alive but never send.
			p.RecvTimeout(0.2)
			return
		}
		if _, ok := p.RecvTimeout(0.01); ok {
			t.Error("timeout returned a message")
		}
		p.Send(0, 1, nil, 0) // release proc 0 quickly
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGoroutineRecvTimeoutClamped receives, under a timeout past the
// largest time.Duration, a message sent about 50 ms later. Converted
// unchecked, 1e10 seconds overflows into a negative Duration and the
// receive times out at once.
func TestGoroutineRecvTimeoutClamped(t *testing.T) {
	g := NewGoroutine()
	err := g.Run(context.Background(), 2, func(p Proc) {
		if p.ID() == 1 {
			time.Sleep(50 * time.Millisecond)
			p.Send(0, 1, nil, 0)
			return
		}
		start := time.Now()
		if _, ok := p.RecvTimeout(1e10); !ok {
			t.Errorf("RecvTimeout(1e10) returned after %v without the message sent 50 ms later", time.Since(start))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGoroutineManyMessages(t *testing.T) {
	g := NewGoroutine()
	const n = 4
	const per = 500
	var sum atomic.Int64
	err := g.Run(context.Background(), n, func(p Proc) {
		if p.ID() == 0 {
			for i := 0; i < (n-1)*per; i++ {
				m, ok := p.RecvTimeout(longWait)
				if !ok {
					t.Error("stream ended early")
					return
				}
				sum.Add(int64(m.Data.(int)))
			}
			return
		}
		for i := 0; i < per; i++ {
			p.Send(0, 0, 1, 8)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Load() != (n-1)*per {
		t.Errorf("received %d, want %d", sum.Load(), (n-1)*per)
	}
}

func TestGoroutinePanicPropagates(t *testing.T) {
	g := NewGoroutine()
	err := g.Run(context.Background(), 2, func(p Proc) {
		if p.ID() == 0 {
			panic("boom")
		}
		p.RecvTimeout(longWait)
	})
	if err == nil {
		t.Fatal("panic not reported")
	}
}

func TestGoroutineRunValidation(t *testing.T) {
	if err := NewGoroutine().Run(context.Background(), 0, func(Proc) {}); err == nil {
		t.Error("Run(0) should fail")
	}
}

func TestGoroutineFIFOPerSender(t *testing.T) {
	g := NewGoroutine()
	err := g.Run(context.Background(), 2, func(p Proc) {
		if p.ID() == 0 {
			for i := 0; i < 100; i++ {
				p.Send(1, i, nil, 0)
			}
			return
		}
		last := -1
		for i := 0; i < 100; i++ {
			m, ok := p.RecvTimeout(longWait)
			if !ok {
				t.Error("stream ended early")
				return
			}
			if m.Tag <= last {
				t.Errorf("reordered: %d after %d", m.Tag, last)
				return
			}
			last = m.Tag
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
