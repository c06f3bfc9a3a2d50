package seqlog

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

func isClosed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// TestLogMatchesModel runs random Append, Since, Snapshot and Finish
// sequences at bounds 1-5 and unbounded against a plain slice that keeps
// every entry: numbers are contiguous, Since returns exactly the retained
// entries after its cursor (from the oldest retained one when the cursor
// fell off the window), dropped is appended minus retained, and the wake
// channel of a reader with nothing to read stays open until the next
// Append or Finish closes it.
func TestLogMatchesModel(t *testing.T) {
	for _, bound := range []int{0, 1, 2, 3, 4, 5} {
		for seed := int64(1); seed <= 50; seed++ {
			rng := rand.New(rand.NewSource(seed))
			l := New[int](bound)
			var model []int
			done := false
			var waiters []<-chan struct{}
			retained := func() []int {
				if bound > 0 && len(model) > bound {
					return model[len(model)-bound:]
				}
				return model
			}
			for step := 0; step < 200; step++ {
				mutated := false
				switch op := rng.Intn(10); {
				case op < 4:
					v := rng.Int()
					model = append(model, v)
					if n := l.Append(v); n != len(model) {
						t.Fatalf("bound %d seed %d: Append numbered %d, want %d", bound, seed, n, len(model))
					}
					mutated = true
				case op < 8:
					after := rng.Intn(len(model)+4) - 2
					if rng.Intn(3) == 0 {
						after = len(model) // a reader that has caught up
					}
					entries, first, gotDone, wake := l.Since(after)
					oldest := len(model) - len(retained()) + 1
					wantFirst := max(after+1, oldest)
					var want []int
					if wantFirst <= len(model) {
						want = model[wantFirst-1:]
					}
					if first != wantFirst || !reflect.DeepEqual(entries, want) || gotDone != done {
						t.Fatalf("bound %d seed %d: Since(%d) = %v from %d done %v, want %v from %d done %v",
							bound, seed, after, entries, first, gotDone, want, wantFirst, done)
					}
					if ready := len(want) > 0 || done; isClosed(wake) != ready {
						t.Fatalf("bound %d seed %d: Since(%d) wake closed %v with %d to read, done %v",
							bound, seed, after, isClosed(wake), len(want), done)
					}
					if !isClosed(wake) {
						waiters = append(waiters, wake)
					}
				case op < 9:
					entries, dropped := l.Snapshot()
					want := retained()
					if len(want) == 0 {
						want = nil
					}
					if !reflect.DeepEqual(entries, want) || dropped != len(model)-len(want) {
						t.Fatalf("bound %d seed %d: Snapshot = %v dropped %d, want %v dropped %d",
							bound, seed, entries, dropped, want, len(model)-len(want))
					}
				default:
					done = true
					l.Finish()
					mutated = true
				}
				for _, c := range waiters {
					if isClosed(c) != mutated {
						t.Fatalf("bound %d seed %d step %d: waiter closed %v after an op that mutated %v",
							bound, seed, step, isClosed(c), mutated)
					}
				}
				if mutated {
					waiters = nil
				}
				if l.Last() != len(model) {
					t.Fatalf("bound %d seed %d: Last = %d, want %d", bound, seed, l.Last(), len(model))
				}
			}
		}
	}
}

// TestWaiterWakes blocks one reader on Append and one on Finish.
func TestWaiterWakes(t *testing.T) {
	l := New[string](2)
	l.Append("a")
	for _, change := range []func(){func() { l.Append("b") }, l.Finish} {
		woke := make(chan struct{})
		_, _, _, wake := l.Since(l.Last())
		go func() {
			<-wake
			close(woke)
		}()
		select {
		case <-woke:
			t.Fatal("waiter woke before the log changed")
		case <-time.After(10 * time.Millisecond):
		}
		change()
		select {
		case <-woke:
		case <-time.After(5 * time.Second):
			t.Fatal("waiter did not wake")
		}
	}
}

// TestConcurrentFollowers races appenders against readers that follow the
// log to its end with Since and against snapshotters: an
// unbounded log delivers every entry to every follower in number order,
// and a bounded one accounts every entry as retained or dropped.
func TestConcurrentFollowers(t *testing.T) {
	for _, bound := range []int{0, 3, 64} {
		l := New[int](bound)
		const writers, perWriter, readers = 4, 500, 4
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				after, read := 0, 0
				for {
					entries, first, done, wake := l.Since(after)
					if len(entries) > 0 {
						if bound == 0 && first != after+1 {
							t.Errorf("unbounded follower at %d read from %d", after, first)
						}
						after = first + len(entries) - 1
						read += len(entries)
					}
					if done && len(entries) == 0 {
						break
					}
					<-wake
				}
				if bound == 0 && read != writers*perWriter {
					t.Errorf("unbounded follower read %d entries, want %d", read, writers*perWriter)
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					if s, _ := l.Snapshot(); bound > 0 && len(s) > bound {
						t.Errorf("snapshot of %d entries exceeds bound %d", len(s), bound)
					}
				}
			}()
		}
		var writersWG sync.WaitGroup
		for w := 0; w < writers; w++ {
			writersWG.Add(1)
			go func() {
				defer writersWG.Done()
				for i := 0; i < perWriter; i++ {
					l.Append(i)
				}
			}()
		}
		writersWG.Wait()
		l.Finish()
		wg.Wait()
		entries, dropped := l.Snapshot()
		if len(entries)+dropped != writers*perWriter || l.Last() != writers*perWriter {
			t.Errorf("bound %d: retained %d + dropped %d, last %d; want %d appended",
				bound, len(entries), dropped, l.Last(), writers*perWriter)
		}
	}
}
