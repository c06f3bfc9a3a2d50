// Package seqlog is a sequence-numbered append-only log with waiting
// readers: the one buffer behind the solver service's job event streams
// and cluster share feeds, a trace's completed spans and a job's flight
// recording. Entries are numbered 1, 2, 3, ... in append order. A bounded
// log grows by append up to its bound, then each append overwrites the
// oldest entry in place, so appending never copies the retained entries.
// The wake-up channel is made only when a reader finds nothing to read,
// so an append allocates nothing beyond growing the log to its bound.
package seqlog

import "sync"

// Log is a sequence-numbered log, safe for concurrent use.
type Log[T any] struct {
	mu    sync.Mutex
	buf   []T // entry n at (n-1) % bound once the log is full, else at n-1
	bound int // most entries retained, 0 for all
	last  int // number of the newest entry, 0 while empty
	done  bool
	wake  chan struct{} // closed by the next Append or Finish; nil until a reader waits
}

// New returns an empty log that retains its newest bound entries, or all
// of them when bound <= 0.
func New[T any](bound int) *Log[T] {
	return &Log[T]{bound: max(bound, 0)}
}

// Append adds v as the next entry, overwriting the oldest when the log is
// at its bound, wakes the waiting readers and returns v's number.
func (l *Log[T]) Append(v T) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.bound == 0 || len(l.buf) < l.bound {
		l.buf = append(l.buf, v)
	} else {
		l.buf[l.last%l.bound] = v
	}
	l.last++
	l.wakeLocked()
	return l.last
}

// Finish marks the log finished, which tells readers that have caught up
// that they may stop, and wakes them. A later Append is still retained.
func (l *Log[T]) Finish() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.done = true
	l.wakeLocked()
}

func (l *Log[T]) wakeLocked() {
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
}

// Last returns the number of the newest entry, 0 while the log is empty.
func (l *Log[T]) Last() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// Since returns a copy of the retained entries numbered after the cursor
// after, the number of the first of them, and whether the log was finished
// when they were read. A cursor before the retained entries reads from the
// oldest one. A reader that wants more calls Since again once wake is
// closed: by the next Append or Finish when there were no such entries and
// the log was not finished, and at once otherwise.
func (l *Log[T]) Since(after int) (entries []T, first int, done bool, wake <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	first = max(after+1, l.last-len(l.buf)+1)
	if n := l.last - first + 1; n > 0 {
		i := first - 1
		if l.bound > 0 {
			i %= l.bound
		}
		head := l.buf[i:min(i+n, len(l.buf))]
		return append(append(make([]T, 0, n), head...), l.buf[:n-len(head)]...), first, l.done, closed
	}
	if l.done {
		return nil, first, true, closed
	}
	if l.wake == nil {
		l.wake = make(chan struct{})
	}
	return nil, first, false, l.wake
}

// closed is the wake channel of a reader that need not wait.
var closed = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Snapshot returns a copy of the retained entries, oldest first, and the
// number the bound has dropped.
func (l *Log[T]) Snapshot() (entries []T, dropped int) {
	entries, first, _, _ := l.Since(0)
	return entries, first - 1
}
