// Package tabu implements the short-term memory of Tabu Search: a FIFO
// list of move attributes with a fixed tenure. A move whose attribute is
// still in the list is forbidden; once tenure further moves have been made,
// the list forgets it (paper §III.B: one move per iteration, so the tenure
// equals the number of iterations an attribute stays tabu).
package tabu

// Attribute identifies a move for tabu purposes. The operators package
// hashes the operator kind and the customers a move touches into one value,
// so re-touching the same customers with the same operator is forbidden
// regardless of route indices.
type Attribute uint64

// List is a fixed-tenure tabu list. The zero value is unusable; construct
// with NewList. It is not safe for concurrent use; each searcher owns one.
type List struct {
	tenure int
	queue  []Attribute
	counts map[Attribute]int // multiset view of queue for O(1) lookup
}

// NewList returns an empty tabu list with the given tenure.
// It panics if tenure < 1.
func NewList(tenure int) *List {
	if tenure < 1 {
		panic("tabu: tenure must be >= 1")
	}
	return &List{tenure: tenure, counts: make(map[Attribute]int, tenure)}
}

// Tenure returns the current tenure.
func (l *List) Tenure() int { return l.tenure }

// Len returns the number of remembered attributes.
func (l *List) Len() int { return len(l.queue) }

// Add remembers a move attribute, forgetting the oldest entry if the list
// is full.
func (l *List) Add(a Attribute) {
	l.queue = append(l.queue, a)
	l.counts[a]++
	l.trim()
}

func (l *List) trim() {
	for len(l.queue) > l.tenure {
		old := l.queue[0]
		l.queue = l.queue[1:]
		if l.counts[old] == 1 {
			delete(l.counts, old)
		} else {
			l.counts[old]--
		}
	}
}

// Queue returns a copy of the remembered attributes, oldest first — the
// serializable view of the list for checkpointing.
func (l *List) Queue() []Attribute {
	return append([]Attribute(nil), l.queue...)
}

// Restore replaces the list contents with the given attributes (oldest
// first), rebuilding the multiset index. Entries beyond the tenure are
// trimmed oldest-first, as if they had been Added in order.
func (l *List) Restore(queue []Attribute) {
	l.queue = append(l.queue[:0], queue...)
	clear(l.counts)
	for _, a := range l.queue {
		l.counts[a]++
	}
	l.trim()
}

// Contains reports whether the attribute is currently tabu.
func (l *List) Contains(a Attribute) bool { return l.counts[a] > 0 }
